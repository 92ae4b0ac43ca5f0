"""Sparsity and exact decomposition references (Definitions 4.1/4.2).

These exact computations are *not* available to the distributed algorithm
(computing ``|N(u) ∩ N(v)|`` is a set-intersection problem on cluster
graphs); they serve as ground truth for tests and for Experiment E6's
quality comparison against the fingerprint-based ACD.
"""

from __future__ import annotations

import numpy as np

from repro.graphcore import (
    gather_neighborhoods,
    in_sorted,
    neighbor_counts_within,
    row_blocks,
)


def sparsity(graph, v: int) -> float:
    """Exact sparsity ``zeta_v`` (Definition 4.1):

        zeta_v = (1/Delta) * [ C(Delta, 2) - (1/2) sum_{u in N(v)} |N(u) ∩ N(v)| ].

    Counts (scaled) missing edges in ``v``'s neighborhood.
    """
    delta = graph.max_degree
    if delta == 0:
        return 0.0
    nv = graph.csr.neighbors(v)
    common_total = int(neighbor_counts_within(graph.csr, nv, nv).sum())
    return (delta * (delta - 1) / 2.0 - common_total / 2.0) / delta


def _edge_common_counts(csr) -> np.ndarray:
    """``|N(u) ∩ N(v)|`` for every edge of ``csr.edge_arrays()``, aligned
    with it.

    Each edge gathers the row of its lower-degree endpoint and binary
    searches every entry, as a directed code ``other * n + w``, among the
    CSR's sorted codes -- ``O(sum_e min(deg))`` work, in the gather blocks
    of :func:`~repro.graphcore.row_blocks`.
    """
    n = csr.n_vertices
    eu, ev = csr.edge_arrays()
    degrees = csr.degrees
    swap = degrees[eu] > degrees[ev]
    short = np.where(swap, ev, eu)
    other = np.where(swap, eu, ev)
    codes = np.repeat(np.arange(n, dtype=np.int64) * n, degrees)
    codes += csr.indices  # sorted: the CSR is ordered by (row, neighbor)
    counts = np.empty(eu.size, dtype=np.int64)
    for start, stop in row_blocks(csr, short):
        seg_ids, flat = gather_neighborhoods(csr, short[start:stop])
        flat += other[start:stop][seg_ids] * n
        hit = in_sorted(codes, flat)
        counts[start:stop] = np.bincount(seg_ids[hit], minlength=stop - start)
    return counts


def all_sparsities(graph) -> np.ndarray:
    """Exact ``zeta_v`` for every vertex, from per-edge common-neighbor
    counts: ``sum_{u in N(v)} |N(u) ∩ N(v)|`` is the sum of the counts of
    ``v``'s edges.  Equal, value for value, to :func:`sparsity`.
    """
    n = graph.n_vertices
    delta = graph.max_degree
    if delta == 0:
        return np.zeros(n)
    eu, ev = graph.csr.edge_arrays()
    common = _edge_common_counts(graph.csr)
    totals = np.bincount(eu, weights=common, minlength=n)
    totals += np.bincount(ev, weights=common, minlength=n)
    return (delta * (delta - 1) / 2.0 - totals / 2.0) / delta


def is_valid_almost_clique(graph, members: list[int], eps: float) -> bool:
    """Definition 4.2 condition (2): ``|K| <= (1+eps) Delta`` and every
    member has ``|N(v) ∩ K| >= (1-eps)|K|``.
    """
    delta = graph.max_degree
    k = len(members)
    if k == 0 or k > (1 + eps) * delta:
        return False
    inside = neighbor_counts_within(graph.csr, members, members)
    return bool((inside >= (1 - eps) * k).all())


def friendly_edges(graph, xi: float) -> set[tuple[int, int]]:
    """Exact ``xi``-friendly edges: ``{u, v}`` with
    ``|N(u) ∩ N(v)| >= (1 - xi) Delta`` (Section 5.4).
    """
    delta = graph.max_degree
    eu, ev = graph.csr.edge_arrays()
    keep = _edge_common_counts(graph.csr) >= (1 - xi) * delta
    return set(zip(eu[keep].tolist(), ev[keep].tolist()))


def exact_acd_reference(
    graph, eps: float, xi: float | None = None
) -> tuple[list[int], list[list[int]]]:
    """Reference ACD built from *exact* friendliness (the [ACK19, Lemma 4.8]
    construction the distributed algorithm approximates).

    Returns ``(sparse_vertices, almost_cliques)``.  Components of the buddy
    graph that fail Definition 4.2 are dissolved into the sparse side, which
    matches the repair discipline of the distributed version.
    """
    if xi is None:
        xi = eps / 3.0
    delta = graph.max_degree
    buddy = friendly_edges(graph, xi)
    degree_in_buddy: dict[int, int] = {}
    adj: dict[int, list[int]] = {}
    for u, v in buddy:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
        degree_in_buddy[u] = degree_in_buddy.get(u, 0) + 1
        degree_in_buddy[v] = degree_in_buddy.get(v, 0) + 1
    dense_candidates = {
        v for v, d in degree_in_buddy.items() if d >= (1 - 2 * xi) * delta
    }
    seen: set[int] = set()
    cliques: list[list[int]] = []
    for start in sorted(dense_candidates):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        frontier = [start]
        while frontier:
            nxt = []
            for x in frontier:
                for y in adj.get(x, []):
                    if y in dense_candidates and y not in seen:
                        seen.add(y)
                        comp.append(y)
                        nxt.append(y)
            frontier = nxt
        cliques.append(sorted(comp))
    kept = [c for c in cliques if is_valid_almost_clique(graph, c, eps)]
    clustered = {v for c in kept for v in c}
    sparse = [v for v in range(graph.n_vertices) if v not in clustered]
    return sparse, kept
