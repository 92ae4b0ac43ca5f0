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

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.aggregation.runtime import ClusterRuntime
from repro.coloring.types import UNCOLORED, PartialColoring
from repro.graphcore import (
    batch_conflict_mask,
    batch_used_color_masks,
    draw_free_colors,
)


@dataclass(frozen=True)
class BatchSampler:
    """A sampler that draws a whole round's proposals at once.

    ``draw(vertices)`` takes the round's uncolored vertices (int64 array)
    and returns aligned ``(proposers, colors)`` int64 arrays, ``proposers``
    a subsequence of ``vertices``.  It consumes the RNG exactly as one
    scalar draw per proposer, in order, would.
    """

    draw: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def resolve_proposals(
    runtime: ClusterRuntime,
    coloring: PartialColoring,
    vertices,
    colors,
    *,
    op: str = "try_color",
    symmetric: bool = False,
) -> np.ndarray:
    """Resolve one round of simultaneous color proposals: ``vertices[i]``
    proposes ``colors[i]`` (aligned int64 arrays, each vertex at most once).

    ``symmetric=True`` uses SlackGeneration's rule (both endpoints of a
    same-color proposal drop); the default is Algorithm 17's smaller-ID-wins
    rule.  Returns the vertices that adopted their proposal, in proposal
    order.

    Cost: 2 H-rounds (announce, learn outcome), ``O(log Δ)``-bit messages.
    """
    verts = np.asarray(vertices, dtype=np.int64)
    cands = np.asarray(colors, dtype=np.int64)
    proposal_map = np.full(runtime.graph.n_vertices, -2, dtype=np.int64)
    proposal_map[verts] = cands
    blocked = batch_conflict_mask(
        runtime.graph.csr,
        coloring.colors,
        verts,
        cands,
        proposal_map=proposal_map,
        symmetric=symmetric,
    )
    adopted = verts[~blocked]
    coloring.assign_many(adopted, cands[~blocked])
    runtime.h_rounds(op, count=2, bits=runtime.color_bits)
    return adopted


def try_color_round(
    runtime: ClusterRuntime,
    coloring: PartialColoring,
    vertices: Iterable[int],
    sampler: BatchSampler,
    *,
    op: str = "try_color",
) -> np.ndarray:
    """One TryColor round (Algorithm 17) over the uncolored members of
    ``vertices``; the sampler draws from ``C(v)``.  Returns the adopters.
    """
    verts = np.asarray(vertices, dtype=np.int64)
    verts = verts[coloring.colors[verts] == UNCOLORED]
    verts, cands = sampler.draw(verts)
    if verts.size == 0:
        runtime.h_rounds(op, count=1, bits=runtime.color_bits)
        return verts
    return resolve_proposals(runtime, coloring, verts, cands, op=op)


def uniform_range_sampler(
    runtime: ClusterRuntime, num_colors: int, floor: int = 0
) -> BatchSampler:
    """Sampler for ``C(v) = [q] \\ [floor]`` (uniform non-reserved color):
    one ``rng.integers(floor, q, size=k)`` call per round."""

    def draw(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if floor >= num_colors:
            return vertices[:0], vertices[:0]
        return vertices, runtime.rng.integers(
            floor, num_colors, size=vertices.size
        )

    return BatchSampler(draw)


def palette_sampler(
    runtime: ClusterRuntime, coloring: PartialColoring
) -> BatchSampler:
    """Sampler for ``C(v) = L_φ(v)`` -- only legitimate in the low-degree
    regime, where palettes fit in ``O(log n)``-bit bitmaps (Section 9.1);
    callers there charge the bitmap exchange.

    Each round discovers every palette in one batched used-color-mask
    evaluation and draws with :func:`repro.graphcore.draw_free_colors`;
    vertices whose palette is empty propose nothing.
    """

    def draw(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        used = batch_used_color_masks(
            runtime.graph.csr, coloring.colors, vertices, coloring.num_colors
        )
        can, colors = draw_free_colors(used, runtime.rng)
        return vertices[can], colors

    return BatchSampler(draw)


def try_color_until(
    runtime: ClusterRuntime,
    coloring: PartialColoring,
    vertices: list[int],
    sampler: BatchSampler,
    *,
    max_rounds: int,
    op: str = "try_color",
) -> list[int]:
    """Loop TryColor rounds until all of ``vertices`` are colored or the
    round budget runs out; returns the still-uncolored leftover.
    """
    remaining = np.asarray(vertices, dtype=np.int64)
    remaining = remaining[coloring.colors[remaining] == UNCOLORED]
    for _ in range(max_rounds):
        if remaining.size == 0:
            break
        try_color_round(runtime, coloring, remaining, sampler, op=op)
        remaining = remaining[coloring.colors[remaining] == UNCOLORED]
    return remaining.tolist()


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
