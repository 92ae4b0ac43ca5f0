"""Colorful matching by random color trials (Lemma 4.9, after [ACK19]).

A *colorful matching* in an almost-clique ``K`` uses each of ``M_K`` colors
on (at least) two non-adjacent vertices of ``K``, creating the reuse slack
that lets the clique palette survive cliques larger than ``Δ+1``.

When the average anti-degree is ``Ω(log n)`` (or merely positive, at our
scale), a constant number of synchronized random color trials finds enough
same-colored anti-edge pairs w.h.p.  The densest cabals, where this fails,
use the fingerprint algorithm of Section 6 instead
(:mod:`repro.coloring.fingerprint_matching`).
"""

from __future__ import annotations

import numpy as np

from repro.aggregation.runtime import ClusterRuntime
from repro.coloring.types import UNCOLORED, PartialColoring
from repro.graphcore import batch_conflict_mask


def colorful_matching(
    runtime: ClusterRuntime,
    coloring: PartialColoring,
    cliques: dict[int, list[int]],
    *,
    reserved_floor: int,
    rounds: int | None = None,
    op: str = "colorful_matching",
) -> dict[int, int]:
    """Grow a colorful matching in every given clique simultaneously.

    Parameters
    ----------
    cliques:
        ``clique_index -> member list`` of the cliques to process.
    reserved_floor:
        Colors below this index are reserved and never used (Lemma 4.9's
        ``φ_cm(V) ∩ [300 eps Δ] = ∅``).
    rounds:
        Number of trial rounds; default ``O(1/eps)``.

    Returns ``clique_index -> M_K`` (colors used at least twice by the
    matching).  Only vertices that *provide reuse slack* get colored, per
    the lemma.
    """
    params = runtime.params
    graph = runtime.graph
    num_colors = coloring.num_colors
    if rounds is None:
        rounds = max(4, int(round(1.0 / params.eps)))
    matching_size: dict[int, int] = {idx: 0 for idx in cliques}
    if reserved_floor >= num_colors:
        return matching_size

    csr = graph.csr
    for _ in range(rounds):
        # Every uncolored clique member flips a coin and samples a uniform
        # non-reserved color; same-colored anti-edge pairs commit together.
        # The draw loop stays scalar -- its coin/color interleaving is the
        # pinned RNG stream -- but the membership test reads one snapshot
        # array instead of per-vertex coloring queries.
        uncolored = coloring.colors == UNCOLORED
        groups: dict[tuple[int, int], list[int]] = {}
        for idx, members in cliques.items():
            for v in members:
                if not uncolored[v]:
                    continue
                if runtime.rng.random() < 0.5:
                    c = int(runtime.rng.integers(reserved_floor, num_colors))
                    groups.setdefault((idx, c), []).append(v)
        runtime.h_rounds(op, count=2, bits=runtime.color_bits)

        # Conflict discovery for every candidate in one batched gather
        # against the pre-commit snapshot.  Mid-round commits can only
        # block a candidate through a same-colored neighbor committed this
        # round -- exactly the ``committed_this_round`` adjacency test
        # below -- so the snapshot mask plus that test reproduces the
        # sequential per-vertex ``is_free_for`` decisions.
        flat_verts = [v for cand in groups.values() for v in cand]
        flat_cands = [key[1] for key, cand in groups.items() for _ in cand]
        blocked = (
            batch_conflict_mask(csr, coloring.colors, flat_verts, flat_cands)
            if flat_verts
            else np.empty(0, dtype=bool)
        )

        committed_this_round: dict[int, list[int]] = {}  # color -> vertices
        cursor = 0
        for (idx, c), candidates in groups.items():
            cand_blocked = blocked[cursor : cursor + len(candidates)]
            cursor += len(candidates)
            if len(candidates) < 2:
                continue
            # keep candidates for which c is free (no colored neighbor uses
            # it) and which do not conflict with commits elsewhere this round
            selected: list[int] = []
            for v, is_blocked in zip(candidates, cand_blocked):
                if is_blocked:
                    continue
                if any(graph.are_adjacent(v, u) for u in selected):
                    continue
                if any(
                    graph.are_adjacent(v, w)
                    for w in committed_this_round.get(c, ())
                ):
                    continue
                selected.append(v)
            if len(selected) >= 2:
                for v in selected:
                    coloring.assign(v, c)
                committed_this_round.setdefault(c, []).extend(selected)
                matching_size[idx] += 1
    return matching_size
