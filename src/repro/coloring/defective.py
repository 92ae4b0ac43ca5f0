"""Weighted defective coloring (Definition 9.5 / Lemma 9.6's tool).

A weighted ``δ``-relative ``q``-coloring lets every vertex keep at most a
``δ`` fraction of its incident edge weight monochromatic.  The
Ghaffari-Kuhn local rounding (Section 9.4) consumes such colorings to
serialize its label updates; we provide the classic local-search
construction: start from a random ``q``-coloring and let over-defective
vertices move to their least-loaded color class, a potential-function
argument making global monochromatic weight strictly decrease.

This is a real distributed algorithm in the model (each round exchanges
one color, ``O(log q)`` bits) and is exercised by the small-instance
finisher's tests; the full GK rounding is substituted per
docs/ARCHITECTURE.md, D4.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.aggregation.runtime import ClusterRuntime


def weighted_defect(graph, colors: np.ndarray, weights: Mapping, v: int) -> float:
    """``sum of w(uv) over same-colored neighbors`` (Definition 9.5 LHS)."""
    total = 0.0
    for u in graph.neighbors(v):
        if colors[u] == colors[v]:
            total += weights.get((min(u, v), max(u, v)), 1.0)
    return total


def incident_weight(graph, weights: Mapping, v: int) -> float:
    """``sum of w(uv) over all neighbors`` (Definition 9.5 RHS)."""
    return sum(
        weights.get((min(u, v), max(u, v)), 1.0) for u in graph.neighbors(v)
    )


def weighted_defective_coloring(
    runtime: ClusterRuntime,
    q: int,
    delta_rel: float,
    weights: Mapping | None = None,
    *,
    max_rounds: int = 200,
    op: str = "defective",
) -> np.ndarray:
    """Compute a weighted ``delta_rel``-relative ``q``-coloring.

    Local search: every round, each vertex whose monochromatic weight
    exceeds ``delta_rel`` times its incident weight proposes to move to its
    least-loaded color class; moves commit by smaller-ID priority among
    adjacent movers (so the potential -- total monochromatic weight --
    strictly decreases).  Terminates when no vertex is over budget.

    Feasibility: with ``q >= 2/delta_rel`` every vertex's least-loaded class
    carries at most ``(1/q) <= delta_rel/2`` of its weight, so local search
    cannot get stuck; we assert the precondition.
    """
    if q < 2:
        raise ValueError("need at least 2 colors")
    if q * delta_rel < 1.0:
        raise ValueError(
            f"q={q} colors cannot achieve relative defect {delta_rel}: "
            f"need q >= 1/delta"
        )
    graph = runtime.graph
    n = graph.n_vertices
    weights = weights or {}
    colors = runtime.rng.integers(0, q, size=n)

    for _ in range(max_rounds):
        movers: list[tuple[int, int]] = []
        for v in range(n):
            incident = incident_weight(graph, weights, v)
            if incident == 0:
                continue
            if weighted_defect(graph, colors, weights, v) <= delta_rel * incident:
                continue
            load = np.zeros(q)
            for u in graph.neighbors(v):
                load[colors[u]] += weights.get((min(u, v), max(u, v)), 1.0)
            best = int(np.argmin(load))
            if best != colors[v] and load[best] < weighted_defect(
                graph, colors, weights, v
            ):
                movers.append((v, best))
        if not movers:
            break
        moving = {v for v, _c in movers}
        for v, c in movers:
            # smaller-ID priority among adjacent movers keeps the potential
            # argument intact under simultaneous moves
            if any(u in moving and u < v for u in graph.neighbors(v)):
                continue
            colors[v] = c
        runtime.h_rounds(op, count=2, bits=max(1, int(np.ceil(np.log2(q)))))
    return colors


def max_relative_defect(graph, colors: np.ndarray, weights: Mapping | None = None) -> float:
    """The worst ``defect/incident`` ratio over all vertices (validation)."""
    weights = weights or {}
    worst = 0.0
    for v in range(graph.n_vertices):
        incident = incident_weight(graph, weights, v)
        if incident == 0:
            continue
        worst = max(worst, weighted_defect(graph, colors, weights, v) / incident)
    return worst
