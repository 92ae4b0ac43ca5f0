"""External-degree estimation, cabal classification, reserved colors.

After the ACD, each dense vertex estimates its external degree ``e~_v``
(fingerprints with the predicate "neighbor outside ``K_v``", Lemma 5.7), the
clique aggregates the average ``e~_K`` exactly on a BFS tree, and cliques
with ``e~_K < ell`` become *cabals* (Section 4.1).  Reserved colors follow
Equation (2): ``r_K = 250 max(e~_K, ell)`` (scaled multiplier in the scaled
preset), capped at ``300 eps Delta``.

Also here: the anti-degree proxy of Equation (3),

    x_v = |K| - (Delta + 1) + e~_v  in  a_v - (Delta - deg(v)) ± delta e_v,

the quantity non-cabal inlier classification uses because anti-degrees are
not approximable on cluster graphs.
"""

from __future__ import annotations

from repro.aggregation.runtime import ClusterRuntime
from repro.decomposition.acd import AlmostCliqueDecomposition
from repro.graphcore import batch_label_mismatch_counts
from repro.sketch.fingerprint import batch_count_estimates


def annotate_with_cabals(
    runtime: ClusterRuntime,
    acd: AlmostCliqueDecomposition,
    *,
    op: str = "cabal_classify",
) -> AlmostCliqueDecomposition:
    """Fill in ``e_tilde``, ``e_tilde_clique``, ``cabal_flags`` and
    ``reserved`` on an ACD, in place (returned for chaining).

    Cost: one fingerprint pass (``O(1/delta^2)`` rounds) plus one exact
    aggregation over a clique-spanning BFS tree per clique (``O(1)`` rounds,
    cliques are vertex-disjoint).

    Runs inside the tracer span ``acd.cabals``, so both regimes that
    classify cabals show it as a child of their ACD stage.
    """
    with runtime.tracer.span("acd.cabals"):
        graph = runtime.graph
        params = runtime.params
        n = runtime.n
        delta = graph.max_degree
        trials = params.fingerprint_trials(n, max(params.delta, 1e-3))

        # All dense vertices at once: external degrees are one label-mismatch
        # gather over the CSR (label = clique id), estimates one batched
        # fingerprint pass.  Vertex order (clique by clique, members in order)
        # matches the per-vertex loop this replaces, so the RNG stream and the
        # resulting estimates are bitwise identical.
        dense = [v for members in acd.cliques for v in members]
        e_tilde: dict[int, float] = {}
        if dense:
            true_external = batch_label_mismatch_counts(
                graph.csr, acd.clique_of, dense
            )
            estimates = batch_count_estimates(runtime.rng, true_external, trials)
            e_tilde = {v: float(e) for v, e in zip(dense, estimates)}
        runtime.wide_message(op + "_external", 2 * trials + 16)

        e_tilde_clique: list[float] = []
        cabal_flags: list[bool] = []
        reserved: list[int] = []
        ell = params.ell(n)
        for members in acd.cliques:
            avg = sum(e_tilde[v] for v in members) / max(1, len(members))
            e_tilde_clique.append(avg)
            cabal_flags.append(avg < ell)
            reserved.append(params.reserved_colors(avg, n, delta))
        # |K| and the e~_K average: one convergecast + broadcast per clique, all
        # cliques in parallel (they are vertex-disjoint).
        runtime.h_rounds(op + "_average", count=2)

        acd.e_tilde = e_tilde
        acd.e_tilde_clique = e_tilde_clique
        acd.cabal_flags = cabal_flags
        acd.reserved = reserved
    return acd


def anti_degree_proxy(
    acd: AlmostCliqueDecomposition, graph, v: int
) -> float:
    """Equation (3)'s ``x_v = |K| - (Delta + 1) + e~_v``.

    Each vertex can compute this from quantities it already holds (``|K|``
    from the clique aggregation, ``Delta`` global, ``e~_v`` its own
    estimate); it over/under-shoots ``a_v`` by ``(Delta - deg(v)) ± delta e_v``,
    an error the slack accounting absorbs (Lemma 4.11).
    """
    idx = int(acd.clique_of[v])
    if idx < 0:
        raise ValueError(f"vertex {v} is sparse; x_v is defined for dense vertices")
    k_size = len(acd.cliques[idx])
    return k_size - (graph.max_degree + 1) + acd.e_tilde[v]
