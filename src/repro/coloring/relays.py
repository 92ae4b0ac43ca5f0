"""Relay assignment for anti-edges in the low-degree regime (Lemma 9.2).

When ``Δ`` is too small for per-trial random groups (the ``Δ ≫ k log n``
hierarchy of Section 6 fails), each matched anti-edge instead gets a
dedicated *relay*: a vertex adjacent to both endpoints that forwards their
coordination messages.  Lemma 9.2 obtains relays via a maximal matching in
the bipartite graph (anti-edges) x (sampled vertices); the paper plugs in
Fischer's deterministic CONGEST algorithm, we use the classic randomized
proposal rounds (Israeli-Itai style) -- same model, measured rounds.
"""

from __future__ import annotations

import numpy as np

from repro.aggregation.runtime import ClusterRuntime
from repro.graphcore import adjacency_mask


def eligible_relays(graph, members: list[int], pair: tuple[int, int]) -> list[int]:
    """Vertices of ``K`` adjacent to both endpoints of an anti-edge."""
    u, w = pair
    arr = np.asarray(members, dtype=np.int64)
    both = adjacency_mask(graph.csr, u, arr) & adjacency_mask(graph.csr, w, arr)
    return arr[both].tolist()


def find_relays(
    runtime: ClusterRuntime,
    members: list[int],
    anti_edges: list[tuple[int, int]],
    *,
    sample_factor: float = 3.0,
    max_rounds: int = 64,
    op: str = "relays",
) -> dict[int, int]:
    """Assign a distinct relay to each anti-edge (Lemma 9.2).

    Vertices are sampled w.p. ``~ sample_factor * k / Δ``; unmatched
    anti-edges then propose to a uniform eligible sampled relay each round
    and every relay accepts its smallest proposer -- a randomized maximal
    matching that terminates in ``O(log)`` rounds w.h.p.

    Returns ``anti-edge index -> relay vertex``; anti-edges that cannot be
    matched (no eligible sampled relay) are simply absent, which is safe --
    a smaller anti-edge matching still yields a valid colorful matching.
    """
    graph = runtime.graph
    k = len(anti_edges)
    if k == 0:
        return {}
    delta = max(1, graph.max_degree)
    p = min(1.0, sample_factor * k / delta)
    sampled = {v for v in members if runtime.rng.random() < p}
    runtime.h_rounds(op + "_sample", count=1)

    candidates: dict[int, list[int]] = {}
    for i, pair in enumerate(anti_edges):
        pool = [x for x in eligible_relays(graph, members, pair) if x in sampled]
        if pool:
            candidates[i] = pool

    assignment: dict[int, int] = {}
    taken: set[int] = set()
    pending = sorted(candidates)
    rounds = 0
    while pending and rounds < max_rounds:
        rounds += 1
        proposals: dict[int, list[int]] = {}
        still: list[int] = []
        for i in pending:
            pool = [x for x in candidates[i] if x not in taken]
            if not pool:
                continue  # exhausted: drop this anti-edge
            choice = pool[int(runtime.rng.integers(0, len(pool)))]
            proposals.setdefault(choice, []).append(i)
        for relay, proposers in proposals.items():
            winner = min(proposers)
            assignment[winner] = relay
            taken.add(relay)
            for i in proposers:
                if i != winner:
                    still.append(i)
        pending = [i for i in still if i not in assignment]
        runtime.h_rounds(op + "_round", count=2, bits=runtime.id_bits)
    return assignment
