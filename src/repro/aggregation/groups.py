"""Random groups inside almost-cliques (Lemma 4.4).

Splitting an almost-clique ``K`` into ``x`` uniform groups gives, w.h.p.,
groups of size ``Theta(|K|/x)`` such that every vertex of ``K`` is adjacent
to more than half of every group; in particular each group has diameter 2 in
``H[K]``.  Groups are the paper's workhorse for intra-clique communication:
group ``i`` relays messages for the ``i``-th anti-edge (Algorithm 6), tests
color uniqueness (Algorithm 9), estimates donor counts (Algorithm 10), etc.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.aggregation.runtime import ClusterRuntime
from repro.graphcore import neighbor_counts_within


@dataclass(frozen=True)
class RandomGroups:
    """The result of one random split of a clique ``K``.

    Attributes
    ----------
    groups:
        ``groups[i]`` lists the vertices that picked group ``i``.
    group_of:
        Inverse map, vertex -> group index.
    well_connected:
        Whether the Lemma 4.4 guarantee (every vertex adjacent to more than
        half of every group) was verified to hold for this draw.
    """

    groups: list[list[int]]
    group_of: dict[int, int]
    well_connected: bool



def random_groups(
    runtime: ClusterRuntime,
    clique: Sequence[int],
    num_groups: int,
    *,
    verify: bool = True,
    op: str = "random_groups",
) -> RandomGroups:
    """Split ``clique`` into ``num_groups`` uniform groups (Lemma 4.4).

    Each vertex independently picks a uniform group index and announces it to
    its neighbors -- one H-round with an ``O(log x)``-bit message.  When
    ``verify`` is set we also check the adjacency guarantee, which the
    algorithms rely on for correctness; callers treat a failed draw like any
    other failed w.h.p. event (retry -- see docs/ARCHITECTURE.md, D3).
    """
    if num_groups < 1:
        raise ValueError("need at least one group")
    members = list(clique)
    picks = runtime.rng.integers(0, num_groups, size=len(members))
    groups: list[list[int]] = [[] for _ in range(num_groups)]
    group_of: dict[int, int] = {}
    for vertex, pick in zip(members, picks):
        groups[int(pick)].append(vertex)
        group_of[vertex] = int(pick)
    runtime.h_rounds(op, count=1, bits=max(1, int(np.ceil(np.log2(num_groups + 1)))))

    well_connected = True
    if verify:
        csr = runtime.graph.csr
        for g, group in enumerate(groups):
            # a member in the group counts itself as adjacent
            inside = neighbor_counts_within(csr, members, group) + (picks == g)
            if not group or (inside * 2 <= len(group)).any():
                well_connected = False
                break
    return RandomGroups(groups=groups, group_of=group_of, well_connected=well_connected)
