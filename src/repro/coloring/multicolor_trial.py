"""MultiColorTrial (Lemma D.1, via TryPseudorandomColors -- Algorithm 16).

Vertices with slack proportional to their color space get fully colored in
``O(log* n)`` rounds by trying exponentially growing numbers of colors.  A
vertex cannot *list* the colors it tries in one message, so it announces the
index of a pseudorandom *representative set* (Definition C.5) plus how many
of its elements it tries -- ``O(log n)`` bits regardless of the trial size.

Adoption rule (Algorithm 16, step 3): ``v`` takes a color ``c`` from its
trial set if no colored neighbor holds ``c`` and no active neighbor's trial
set contains ``c``.
"""

from __future__ import annotations

from typing import Callable

from repro.aggregation.runtime import ClusterRuntime
from repro.coloring.errors import StageFailure
from repro.coloring.types import PartialColoring
from repro.graphcore import batch_used_color_masks
from repro.params import log_star
from repro.sketch.representative import RepresentativeFamily

ColorSpace = Callable[[int], list[int]]


def _trial_schedule(gamma: float, n: int, max_iters: int) -> list[int]:
    """Exponentially growing trial sizes: 1, 2, 5, 26, ... capped at the
    representative-set size ``Θ(γ^{-1} log n)`` -- the growth that yields
    ``O(log* n)`` iterations (Lemma D.1's analysis).
    """
    cap = RepresentativeFamily.for_multicolor_trial(gamma, n).set_size
    sizes = []
    x = 1
    for _ in range(max_iters):
        sizes.append(min(x, cap))
        x = min(cap, x * x + 1)
    return sizes


def multicolor_trial(
    runtime: ClusterRuntime,
    coloring: PartialColoring,
    vertices: list[int],
    color_space: ColorSpace,
    *,
    gamma: float | None = None,
    max_iters: int | None = None,
    op: str = "mct",
    raise_on_leftover: bool = True,
) -> list[int]:
    """Color all of ``vertices`` in ``O(log* n)`` rounds, given slack.

    ``color_space(v)`` returns the (current) list ``C(v) ∩ L(v)``-superset
    the vertex samples from; it is re-evaluated each iteration so callers
    can pass live clique-palette views.

    Raises :class:`StageFailure` listing the leftover if the schedule ends
    with uncolored vertices (the caller's fallback takes over), unless
    ``raise_on_leftover`` is False.
    """
    params = runtime.params
    n = runtime.n
    if gamma is None:
        gamma = params.mct_slack_coeff
    if max_iters is None:
        max_iters = 2 * log_star(n) + 10
    family = RepresentativeFamily.for_multicolor_trial(gamma, n)
    graph = runtime.graph
    remaining = [v for v in vertices if not coloring.is_colored(v)]

    for trial_round, x in enumerate(_trial_schedule(gamma, n, max_iters)):
        if not remaining:
            break
        # Each pass gets its own (neutral) tracer span: active frontier in,
        # colored count out, ledger rounds/bits attributed to the pass.
        with runtime.tracer.span(op + ".pass", round=trial_round, trial_size=x) as span:
            span.counter("active", len(remaining))
            trial_sets: dict[int, list[int]] = {}
            tried_by: dict[int, list[int]] = {}
            for v in remaining:
                space = color_space(v)
                if not space:
                    continue
                rep = family.sample(runtime.rng).materialize(list(space))
                trial = rep[: min(x, len(rep))]
                trial_sets[v] = trial
                for c in trial:
                    tried_by.setdefault(c, []).append(v)
            # Announce: (set index, x) per vertex -- O(log n) bits.
            runtime.h_rounds(op, count=2, bits=2 * runtime.id_bits)

            # Pass 1 (Algorithm 16's rule): adopt a trial color no active
            # neighbor even *tried*.  Used-color lookups come from one batched
            # CSR gather over every active vertex; the contention scan stays
            # per-vertex (expected O(1) contenders per color).
            newly: list[tuple[int, int]] = []
            blocked_vertices: list[int] = []
            active = list(trial_sets)
            used_masks = batch_used_color_masks(
                graph.csr, coloring.colors, active, coloring.num_colors
            )
            for row, (v, trial) in zip(used_masks, trial_sets.items()):
                choice = None
                for c in trial:
                    if row[c]:
                        continue
                    blocked = False
                    for u in tried_by.get(c, ()):  # expected O(1) contenders
                        if u != v and graph.are_adjacent(u, v):
                            blocked = True
                            break
                    if not blocked:
                        choice = c
                        break
                if choice is not None:
                    newly.append((v, choice))
                else:
                    blocked_vertices.append(v)
            for v, c in newly:
                coloring.assign(v, c)
            # Pass 2 (smaller-ID priority, Algorithm 17-style): when trial sets
            # saturate the palette the symmetric rule deadlocks; letting the
            # smallest contender win costs one more round and only adds
            # progress, preserving Lemma D.1's guarantee.
            chosen_now: dict[int, list[int]] = {}
            contenders = sorted(blocked_vertices)
            # snapshot used-colors once (post pass-1): colors taken *during*
            # pass 2 are exactly the chosen_now entries, checked by adjacency.
            pass2_masks = batch_used_color_masks(
                graph.csr, coloring.colors, contenders, coloring.num_colors
            )
            for row, v in zip(pass2_masks, contenders):
                if coloring.is_colored(v):
                    continue
                for c in trial_sets[v]:
                    if row[c]:
                        continue
                    if any(
                        graph.are_adjacent(u, v) for u in chosen_now.get(c, ())
                    ):
                        continue
                    coloring.assign(v, c)
                    chosen_now.setdefault(c, []).append(v)
                    break
            runtime.h_rounds(op + "_priority", count=1, bits=runtime.color_bits)
            still = [v for v in remaining if not coloring.is_colored(v)]
            span.counter("colored", len(remaining) - len(still))
            remaining = still

    if remaining and raise_on_leftover:
        raise StageFailure(
            op, f"{len(remaining)} vertices uncolored after trial schedule", remaining
        )
    return remaining
