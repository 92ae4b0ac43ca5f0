"""Validation layer: proper colorings, decompositions, matchings, model
compliance.

Everything here is *centralized* ground-truth checking, used by tests and
at the end of pipeline runs; none of it is available to the distributed
algorithms.
"""

from __future__ import annotations

import numpy as np

from repro.graphcore import is_proper_edges, neighbor_counts_within, violations_edges


def is_proper(graph, colors: np.ndarray, *, allow_partial: bool = False) -> bool:
    """Whether ``colors`` is a proper (partial) coloring of the conflict
    graph: endpoints of every edge differ (``⊥`` clashes with nothing).
    One vectorized pass over the graph's ``h_edge_arrays``."""
    edge_u, edge_v = graph.h_edge_arrays()
    return is_proper_edges(edge_u, edge_v, colors, allow_partial=allow_partial)


def violations(graph, colors: np.ndarray) -> list[tuple[int, int]]:
    """All monochromatic edges (diagnostics for failed runs), in
    ``(u, v)``, ``u < v``, lexicographic order."""
    edge_u, edge_v = graph.h_edge_arrays()
    return violations_edges(edge_u, edge_v, colors)


def invariant_problem(
    colors: np.ndarray, num_colors: int, ledger, alive: np.ndarray | None = None
) -> str | None:
    """The run invariants beyond edge properness (:func:`is_proper`): every
    live vertex holds a color of the palette ``[0, num_colors)``, and no
    recorded message was wider than the link budget of Section 3.2
    (``ledger.max_message_bits <= ledger.bandwidth_bits``).  ``alive``
    masks the live vertices (default: all).  Returns a diagnosis on a miss,
    ``None`` when both hold."""
    live = colors if alive is None else colors[alive]
    if live.size and (live.min() < 0 or live.max() >= num_colors):
        return f"colors outside palette [0, {num_colors})"
    if ledger.max_message_bits > ledger.bandwidth_bits:
        return (
            f"recorded a {ledger.max_message_bits}-bit message; "
            f"cap is {ledger.bandwidth_bits}"
        )
    return None


def check_acd(graph, acd, eps: float) -> list[str]:
    """Validate Definition 4.2 on a decomposition; returns a list of
    human-readable problems (empty = valid)."""
    problems: list[str] = []
    delta = graph.max_degree
    seen: set[int] = set()
    for i, members in enumerate(acd.cliques):
        mset = set(members)
        if seen & mset:
            problems.append(f"clique {i} overlaps another clique")
        seen |= mset
        if len(members) > (1 + eps) * delta:
            problems.append(f"clique {i} has {len(members)} > (1+eps)Δ members")
        inside = neighbor_counts_within(graph.csr, members, members)
        short = np.flatnonzero(inside < (1 - eps) * len(members))
        if short.size:
            j = int(short[0])
            problems.append(
                f"vertex {members[j]} in clique {i}: {int(inside[j])} internal "
                f"neighbors < (1-eps)|K| = {(1 - eps) * len(members):.1f}"
            )
    overlap = seen & set(acd.sparse)
    if overlap:
        problems.append(f"{len(overlap)} vertices both sparse and dense")
    if len(seen) + len(acd.sparse) != graph.n_vertices:
        problems.append("decomposition does not cover V")
    return problems


def check_colorful_matching(
    graph, coloring, members: list[int]
) -> int:
    """Validate reuse inside one clique: every used color is proper, and the
    returned value is ``M_K = |K ∩ dom φ| - |φ(K)|`` (reuse count)."""
    colored = [v for v in members if coloring.is_colored(v)]
    by_color: dict[int, list[int]] = {}
    for v in colored:
        by_color.setdefault(coloring.get(v), []).append(v)
    for c, vs in by_color.items():
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                assert not graph.are_adjacent(vs[i], vs[j]), (
                    f"adjacent vertices {vs[i]},{vs[j]} share color {c}"
                )
    return len(colored) - len(by_color)


def check_put_aside(graph, put_aside: dict[int, list[int]], r: int) -> list[str]:
    """Validate Lemma 4.18's properties 1-2 on computed put-aside sets."""
    problems: list[str] = []
    owner: dict[int, int] = {}
    for idx, vs in put_aside.items():
        if len(vs) != r:
            problems.append(f"cabal {idx}: |P_K| = {len(vs)} != r = {r}")
        for v in vs:
            owner[v] = idx
    for v, idx in owner.items():
        for u in graph.neighbors(v):
            if u in owner and owner[u] != idx:
                problems.append(f"edge between put-aside sets: {v} ({idx}) - {u} ({owner[u]})")
    return problems
