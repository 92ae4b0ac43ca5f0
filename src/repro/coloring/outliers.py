"""Inlier/outlier classification (Equation (4), Lemmas 4.10 and 4.16).

Outliers -- vertices whose external or (proxied) anti-degree is far above
their clique's average -- may lack the slack later stages rely on, so they
are colored early, while uncolored inliers still provide ``Ω(Δ)`` temporary
slack.

Cluster graphs cannot approximate anti-degrees, so non-cabals use the proxy
``x_v = |K| - (Δ+1) + e~_v`` (Equation (3)) against the colorful-matching
size: ``I_K = {v : e~_v ≤ 20 e~_K and x_v ≤ M_K/2 + (γ/8) e~_K}``.
Cabals only filter on external degree (Lemma 4.16), since put-aside sets
manufacture the slack the proxy would certify.
"""

from __future__ import annotations

from repro.decomposition.acd import AlmostCliqueDecomposition
from repro.decomposition.cabals import anti_degree_proxy

EXTERNAL_MULT = 20.0  # the "20 e~_K" of Equation (4)


def inliers_noncabal(
    acd: AlmostCliqueDecomposition,
    graph,
    clique_index: int,
    matching_size: int,
    gamma: float,
) -> tuple[list[int], list[int]]:
    """Split a non-cabal into (inliers, outliers) per Equation (4)."""
    members = acd.cliques[clique_index]
    e_avg = acd.e_tilde_clique[clique_index]
    threshold_x = matching_size / 2.0 + (gamma / 8.0) * e_avg
    inliers: list[int] = []
    outliers: list[int] = []
    for v in members:
        e_v = acd.e_tilde[v]
        x_v = anti_degree_proxy(acd, graph, v)
        if e_v <= EXTERNAL_MULT * max(e_avg, 1e-9) and x_v <= threshold_x:
            inliers.append(v)
        else:
            outliers.append(v)
    return inliers, outliers


def inliers_cabal(
    acd: AlmostCliqueDecomposition, clique_index: int
) -> tuple[list[int], list[int]]:
    """Split a cabal into (inliers, outliers): external degree only
    (Lemma 4.16 gives ``|I_K| ≥ 0.9 Δ`` by Markov)."""
    members = acd.cliques[clique_index]
    e_avg = acd.e_tilde_clique[clique_index]
    inliers: list[int] = []
    outliers: list[int] = []
    for v in members:
        if acd.e_tilde[v] <= EXTERNAL_MULT * max(e_avg, 1.0):
            inliers.append(v)
        else:
            outliers.append(v)
    return inliers, outliers
