"""Random color trials: TryColor (Algorithm 17 / Lemma D.3).

One round: active vertices announce a candidate color to their neighbors
(one ``O(log Δ)``-bit H-round), then adopt it unless a *colored* neighbor
already holds it or a *smaller-ID* active neighbor announced the same color
(the paper's tie-break, Algorithm 17 step 4).

Lemma D.3 guarantees a constant-factor drop in uncolored degree per round
whenever palettes retain a ``γ`` fraction of the sampled space; callers loop
:func:`try_color_round` accordingly.  :func:`greedy_finish` is the last-resort
sequential completion used only by the fallback path (and counted as such).
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.aggregation.runtime import ClusterRuntime
from repro.coloring.types import PartialColoring
from repro.graphcore import batch_conflict_mask, batch_used_color_masks, csr_of

ColorSampler = Callable[[int], int | None]


def resolve_proposals(
    runtime: ClusterRuntime,
    coloring: PartialColoring,
    proposals: dict[int, int],
    *,
    op: str = "try_color",
    symmetric: bool = False,
) -> list[int]:
    """Resolve one round of simultaneous color proposals.

    ``symmetric=True`` uses SlackGeneration's rule (both endpoints of a
    same-color proposal drop); the default is Algorithm 17's smaller-ID-wins
    rule.  Returns the vertices that adopted their proposal.

    Cost: 2 H-rounds (announce, learn outcome), ``O(log Δ)``-bit messages.
    """
    graph = runtime.graph
    adopted: list[int] = []
    if proposals:
        verts = np.fromiter(proposals.keys(), dtype=np.int64, count=len(proposals))
        cands = np.fromiter(proposals.values(), dtype=np.int64, count=len(proposals))
        proposal_arr = np.full(graph.n_vertices, -2, dtype=np.int64)
        proposal_arr[verts] = cands
        blocked = batch_conflict_mask(
            csr_of(graph),
            coloring.colors,
            verts,
            cands,
            proposal_map=proposal_arr,
            symmetric=symmetric,
        )
        adopted = [int(v) for v in verts[~blocked]]
    for v in adopted:
        coloring.assign(v, proposals[v])
    runtime.h_rounds(op, count=2, bits=runtime.color_bits)
    return adopted


def try_color_round(
    runtime: ClusterRuntime,
    coloring: PartialColoring,
    vertices: Iterable[int],
    sampler: ColorSampler,
    *,
    activation: float = 1.0,
    op: str = "try_color",
) -> list[int]:
    """One TryColor round (Algorithm 17) over the uncolored members of
    ``vertices``; ``sampler(v)`` draws from ``C(v)``.
    """
    proposals: dict[int, int] = {}
    sample_batch = getattr(sampler, "sample_batch", None)
    if sample_batch is not None and activation >= 1.0:
        # batch samplers draw per vertex in the same order as the loop
        # below would, so the RNG stream (and hence the coloring) is
        # bitwise-identical -- only palette discovery is batched.
        proposals = sample_batch(
            [v for v in vertices if not coloring.is_colored(v)]
        )
    else:
        for v in vertices:
            if coloring.is_colored(v):
                continue
            if activation < 1.0 and runtime.rng.random() >= activation:
                continue
            c = sampler(v)
            if c is not None:
                proposals[v] = int(c)
    if not proposals:
        runtime.h_rounds(op, count=1, bits=runtime.color_bits)
        return []
    return resolve_proposals(runtime, coloring, proposals, op=op)


def uniform_range_sampler(
    runtime: ClusterRuntime, num_colors: int, floor: int = 0
) -> ColorSampler:
    """Sampler for ``C(v) = [q] \\ [floor]`` (uniform non-reserved color)."""

    def sample(_v: int) -> int | None:
        if floor >= num_colors:
            return None
        return int(runtime.rng.integers(floor, num_colors))

    return sample


def palette_sampler(
    runtime: ClusterRuntime, coloring: PartialColoring
) -> ColorSampler:
    """Sampler for ``C(v) = L_φ(v)`` -- only legitimate in the low-degree
    regime, where palettes fit in ``O(log n)``-bit bitmaps (Section 9.1);
    callers there charge the bitmap exchange.

    The returned sampler also carries a ``sample_batch`` attribute:
    :func:`try_color_round` uses it (at full activation) to discover every
    palette in one batched used-color-mask evaluation instead of a
    per-vertex CSR gather, then draws per vertex in the same order the
    per-vertex path would -- same RNG stream, same proposals, just batched
    palette discovery.
    """

    def sample(v: int) -> int | None:
        free = coloring.palette_array(runtime.graph, v)
        if not free.size:
            return None
        return int(free[int(runtime.rng.integers(0, free.size))])

    def sample_batch(vertices: list[int]) -> dict[int, int]:
        if not vertices:
            return {}
        verts = np.asarray(vertices, dtype=np.int64)
        used = batch_used_color_masks(
            csr_of(runtime.graph), coloring.colors, verts, coloring.num_colors
        )
        proposals: dict[int, int] = {}
        for v, row in zip(vertices, used):
            free = np.flatnonzero(~row)
            if free.size:
                proposals[int(v)] = int(
                    free[int(runtime.rng.integers(0, free.size))]
                )
        return proposals

    sample.sample_batch = sample_batch
    return sample


def try_color_until(
    runtime: ClusterRuntime,
    coloring: PartialColoring,
    vertices: list[int],
    sampler: ColorSampler,
    *,
    max_rounds: int,
    activation: float = 1.0,
    op: str = "try_color",
) -> list[int]:
    """Loop TryColor rounds until all of ``vertices`` are colored or the
    round budget runs out; returns the still-uncolored leftover.
    """
    remaining = [v for v in vertices if not coloring.is_colored(v)]
    for _ in range(max_rounds):
        if not remaining:
            break
        try_color_round(
            runtime, coloring, remaining, sampler, activation=activation, op=op
        )
        remaining = [v for v in remaining if not coloring.is_colored(v)]
    return remaining


def greedy_finish(
    runtime: ClusterRuntime,
    coloring: PartialColoring,
    vertices: list[int],
    *,
    op: str = "greedy_finish",
) -> list[int]:
    """Sequential greedy completion -- the fallback of last resort.

    Always succeeds when palettes are ``deg+1``-sized (they are, with
    ``q = Δ+1``).  Charged one H-round per vertex: this is what "give up on
    parallelism" costs, and it shows up in the stats as such.
    """
    stuck: list[int] = []
    for v in vertices:
        if coloring.is_colored(v):
            continue
        free = coloring.palette_array(runtime.graph, v)
        if not free.size:
            stuck.append(v)
            continue
        coloring.assign(v, int(free[0]))
        runtime.h_rounds(op, count=1, bits=runtime.color_bits)
    return stuck
