"""Link deduplication primitives (Section 1.1).

Two clusters may be joined by many links (Figure 1), so "count incident
links" grossly overestimates a node's degree, and a cluster cannot learn
its palette at all (Figure 2's set-intersection bound).  But both tasks are
easy *with the dedication of the node's neighbors*:

* each neighbor ``u`` of ``v`` internally elects ONE of its links to
  ``V(v)`` (an aggregation inside ``V(u)``) and mutes the rest -- after
  which one aggregation over ``v``'s support tree counts each neighbor
  exactly once: **exact degree in O(1) rounds**;
* with deduplicated links, ``v`` can binary-search for a free color: in
  each step the neighbors report (dedup-summed) how many of them use colors
  below the probe -- **a free color in O(log Δ) rounds**.

The catch -- and the reason the paper's pipeline does not lean on these --
is that the neighbors' dedication serializes: only vertex-disjoint
neighborhoods can run this in parallel.  The primitives are still the right
tool in a few places (and for users of the library), so they live here,
with their costs charged honestly.
"""

from __future__ import annotations

import numpy as np

from repro.aggregation.runtime import ClusterRuntime
from repro.coloring.types import PartialColoring, UNCOLORED
from repro.params import log2ceil


def dedup_elected_links(graph, v: int) -> dict[int, tuple[int, int]]:
    """For each H-neighbor ``u`` of ``v``: the single elected link
    ``(machine_u, machine_v)`` representing the edge ``{u, v}`` (the
    smallest ``(gu, gv)`` of :meth:`~repro.cluster.ClusterGraph.realizing_links`,
    a deterministic intra-cluster election)."""
    a, b, gu, gv = graph.realizing_links()
    mine = (a == v) | (b == v)
    a, b, gu, gv = a[mine], b[mine], gu[mine], gv[mine]
    u = np.where(a == v, b, a)
    # by neighbor, then (gu, gv): each neighbor's run starts at its elected link
    order = np.lexsort((gv, gu, u))
    u, gu, gv = u[order], gu[order], gv[order]
    first = np.ones(u.size, dtype=bool)
    first[1:] = u[1:] != u[:-1]
    elected: dict[int, tuple[int, int]] = {}
    for w, x, y in zip(u[first].tolist(), gu[first].tolist(), gv[first].tolist()):
        # orient the link as (machine in V(w), machine in V(v))
        elected[w] = (x, y) if w < v else (y, x)
    return elected


def exact_degree(runtime: ClusterRuntime, v: int, *, op: str = "dedup_degree") -> int:
    """The true H-degree of ``v``, via neighbor dedication (Section 1.1).

    Cost: one aggregation in every neighboring cluster (electing links, all
    neighbors in parallel -- they are dedicating to the single node ``v``)
    plus one aggregation over ``T(v)``: O(1) rounds.
    """
    graph = runtime.graph
    elected = dedup_elected_links(graph, v)
    runtime.h_rounds(op, count=2, bits=runtime.id_bits)
    return len(elected)


def find_free_color_binary_search(
    runtime: ClusterRuntime,
    coloring: PartialColoring,
    v: int,
    *,
    op: str = "dedup_free_color",
) -> int | None:
    """A color of ``L_φ(v)``, found by binary search with dedicated
    neighbors (Section 1.1); ``None`` if the palette is empty.

    Invariant: the interval ``[lo, hi)`` always contains at least one free
    color iff ``#used distinct colors in [lo, hi) < hi - lo``; each probe
    costs one dedup-aggregation round.  Total: ``O(log Δ)`` rounds.
    """
    graph = runtime.graph
    num_colors = coloring.num_colors
    used = {
        int(c)
        for c in coloring.colors[graph.neighbor_array(v)]
        if c != UNCOLORED
    }

    def distinct_used_in(lo: int, hi: int) -> int:
        # one aggregation: each (deduplicated) neighbor contributes its
        # color if it falls in the probe window; the tree merges bit-counts
        runtime.h_rounds(op + "_probe", count=1, bits=runtime.color_bits + 8)
        return sum(1 for c in used if lo <= c < hi)

    lo, hi = 0, num_colors
    if distinct_used_in(lo, hi) >= hi - lo:
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if distinct_used_in(lo, mid) < mid - lo:
            hi = mid
        else:
            lo, hi = mid, hi
    return lo


def binary_search_round_budget(num_colors: int) -> int:
    """The O(log Δ) probe budget of the search (for tests/benchmarks)."""
    return log2ceil(max(num_colors, 2)) + 1
