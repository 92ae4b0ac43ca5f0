"""Almost-clique decomposition on cluster graphs (Proposition 4.3).

Pipeline (all fingerprint-powered, ``O(eps^-2)`` rounds):

1. solve the buddy predicate on every edge (Lemma 5.8);
2. every vertex estimates its number of incident buddy edges (Lemma 5.7 with
   the predicate "this link carries a buddy edge") and declares itself a
   dense candidate if the estimate is large;
3. almost-cliques are the connected components of the buddy graph restricted
   to dense candidates ([ACK19, Lemma 4.8]); components have diameter 2, so
   an ``O(1)``-round BFS elects leaders and spreads clique ids;
4. repair: components violating Definition 4.2 (possible at finite scale,
   where "w.h.p." events do fail) are dissolved into the sparse side --
   the fallback discipline of docs/ARCHITECTURE.md, D3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.aggregation.bfs import bfs_forest
from repro.aggregation.runtime import ClusterRuntime
from repro.decomposition.buddy import buddy_predicate
from repro.decomposition.sparsity import is_valid_almost_clique
from repro.graphcore import label_components
from repro.sketch.fingerprint import batch_count_estimates


@dataclass
class AlmostCliqueDecomposition:
    """The output of ComputeACD plus the per-clique statistics later stages
    need (filled in by :mod:`repro.decomposition.cabals`).

    Attributes
    ----------
    sparse:
        Vertices of ``V_sparse``.
    cliques:
        ``cliques[i]`` is the sorted member list of almost-clique ``i``.
    clique_of:
        ``clique_of[v]`` is the clique index of ``v`` or ``-1`` if sparse.
    e_tilde:
        Estimated external degree per dense vertex (``e~_v``).
    e_tilde_clique:
        Estimated average external degree per clique (``e~_K``).
    cabal_flags:
        ``cabal_flags[i]`` iff clique ``i`` is a cabal (``e~_K < ell``).
    reserved:
        Reserved-color count ``r_K`` per clique (Equation (2)).
    repaired_components:
        Number of components dissolved by the repair step (0 w.h.p.).
    """

    sparse: list[int]
    cliques: list[list[int]]
    clique_of: np.ndarray
    e_tilde: dict[int, float] = field(default_factory=dict)
    e_tilde_clique: list[float] = field(default_factory=list)
    cabal_flags: list[bool] = field(default_factory=list)
    reserved: list[int] = field(default_factory=list)
    repaired_components: int = 0

    @property
    def num_cliques(self) -> int:
        """Number of almost-cliques."""
        return len(self.cliques)

    def is_cabal_vertex(self, v: int) -> bool:
        """Whether ``v`` lies in a cabal."""
        idx = int(self.clique_of[v])
        return idx >= 0 and self.cabal_flags[idx]

    def cabal_indices(self) -> list[int]:
        """Indices of cliques classified as cabals."""
        return [i for i, f in enumerate(self.cabal_flags) if f]

    def non_cabal_indices(self) -> list[int]:
        """Indices of cliques that are not cabals."""
        return [i for i, f in enumerate(self.cabal_flags) if not f]

    def external_degree_true(self, graph, v: int) -> int:
        """Exact ``e_v`` (test/benchmark ground truth, not algorithm-visible)."""
        idx = int(self.clique_of[v])
        if idx < 0:
            return graph.degree(v)
        members = set(self.cliques[idx])
        return sum(1 for u in graph.neighbors(v) if u not in members)

    def anti_degree_true(self, graph, v: int) -> int:
        """Exact ``a_v = |K_v \\ N(v)| - 1`` (self excluded)."""
        idx = int(self.clique_of[v])
        if idx < 0:
            return 0
        members = self.cliques[idx]
        nbrs = graph.neighbor_set(v)
        return sum(1 for u in members if u != v and u not in nbrs)


def compute_acd(
    runtime: ClusterRuntime, eps: float | None = None, *, op: str = "acd"
) -> AlmostCliqueDecomposition:
    """ComputeACD (Proposition 4.3): an ``eps``-almost-clique decomposition
    in ``O(eps^-2)`` rounds, w.h.p.
    """
    graph = runtime.graph
    params = runtime.params
    if eps is None:
        eps = params.eps
    n_v = graph.n_vertices
    delta = graph.max_degree
    xi = max(eps, params.acd_detection_xi)

    tracer = runtime.tracer
    with tracer.span(op + ".buddy") as span:
        buddy = buddy_predicate(runtime, xi, op=op + "_buddy")
        yes_u, yes_v = buddy.yes_edge_arrays()
        span.counter("yes_edges", int(yes_u.size))

    # Step 2: estimate per-vertex buddy-edge counts (Lemma 5.7, predicate
    # "incident edge is a buddy edge").  One batched fingerprint draw +
    # estimate over all vertices; the RNG stream matches the per-vertex
    # loop this replaces bitwise.
    with tracer.span(op + ".count") as span:
        buddy_count = np.bincount(yes_u, minlength=n_v) + np.bincount(
            yes_v, minlength=n_v
        )
        trials = params.fingerprint_trials(runtime.n, max(xi, 1e-3))
        estimates = batch_count_estimates(runtime.rng, buddy_count, trials)
        runtime.wide_message(op + "_count", 2 * trials + 16)
        dense_mask = estimates >= (1 - 3 * xi) * delta
        span.counter("rows", n_v)
        span.counter("dense_candidates", int(dense_mask.sum()))

    # Step 3: components of the buddy graph restricted to dense candidates.
    # Min-id label propagation (diameter-2 components, so O(1) sweeps);
    # grouping by label in id order reproduces the per-vertex BFS's
    # component enumeration exactly.
    with tracer.span(op + ".components") as span:
        comp_labels = label_components(yes_u, yes_v, n_v, dense_mask)
        components: list[list[int]] = []
        if dense_mask.any():
            dense = np.flatnonzero(dense_mask)
            order = np.argsort(comp_labels[dense], kind="stable")
            grouped = dense[order]
            boundaries = np.flatnonzero(
                np.diff(comp_labels[grouped], prepend=-2)
            )
            components = [
                part.tolist() for part in np.split(grouped, boundaries[1:])
            ]
        if components:
            # Leader election + id dissemination: O(1)-round BFS on the
            # vertex-disjoint components (Lemma 3.2).
            bfs_forest(
                runtime,
                [(comp[0], comp) for comp in components],
                op=op + "_leaders",
            )
        span.counter("components", len(components))

    # Step 4: repair.
    with tracer.span(op + ".repair") as span:
        kept: list[list[int]] = []
        repaired = 0
        for comp in components:
            if is_valid_almost_clique(graph, comp, eps):
                kept.append(comp)
            else:
                repaired += 1
        span.counter("repaired", repaired)
    clique_of = np.full(n_v, -1, dtype=np.int64)
    for idx, comp in enumerate(kept):
        clique_of[comp] = idx
    sparse = np.flatnonzero(clique_of < 0).tolist()
    return AlmostCliqueDecomposition(
        sparse=sparse,
        cliques=kept,
        clique_of=clique_of,
        repaired_components=repaired,
    )
