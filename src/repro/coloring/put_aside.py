"""Put-aside sets (Lemma 4.18).

Each cabal deliberately leaves ``r`` inliers uncolored until the very end,
manufacturing temporary slack for everyone else.  Requirements:

1. ``|P_K| = r`` exactly;
2. no edge joins put-aside sets of different cabals (so Section 7 can
   recolor each cabal independently);
3. few vertices of ``K`` have any neighbor in other cabals' put-aside sets
   (the extra guarantee this paper adds over [HKNT22], needed by the donor
   search).

Construction (Algorithm 20's standard shape): sample ``3r`` candidates per
cabal, drop any candidate adjacent to a foreign candidate -- cabals have so
few external edges that w.h.p. at least ``r`` survive.
"""

from __future__ import annotations

import numpy as np

from repro.aggregation.runtime import ClusterRuntime
from repro.coloring.errors import StageFailure
from repro.coloring.types import UNCOLORED, PartialColoring
from repro.graphcore import batch_label_mismatch_counts


def compute_put_aside(
    runtime: ClusterRuntime,
    coloring: PartialColoring,
    eligible: dict[int, list[int]],
    r: int,
    *,
    op: str = "put_aside",
) -> dict[int, list[int]]:
    """Compute ``P_K`` for every cabal at once.

    Parameters
    ----------
    eligible:
        ``cabal_index -> uncolored inliers`` to draw from.
    r:
        Target size (the cabal-uniform ``r = 250 ℓ`` of Section 4.3,
        scaled preset's multiplier otherwise).

    Raises
    ------
    StageFailure
        If some cabal cannot field ``r`` conflict-free candidates (caller
        retries, then falls back for that cabal).
    """
    graph = runtime.graph
    uncolored = coloring.colors == UNCOLORED
    candidates: dict[int, list[int]] = {}
    owner = np.full(graph.n_vertices, -1, dtype=np.int64)
    for idx, pool_all in eligible.items():
        pool = [v for v in pool_all if uncolored[v]]
        want = min(len(pool), 3 * r)
        picks = runtime.rng.permutation(len(pool))[:want]
        chosen = [pool[int(i)] for i in picks]
        candidates[idx] = chosen
        owner[chosen] = idx
    runtime.h_rounds(op + "_sample", count=2)

    # A candidate survives iff no neighbor belongs to a *different* cabal's
    # candidate set: one batched foreign-owner gather over all candidates
    # replaces the per-candidate neighbor scans.
    flat = [v for chosen in candidates.values() for v in chosen]
    clash = (
        batch_label_mismatch_counts(
            graph.csr, owner, flat, ignore_label=-1
        )
        > 0
    )

    result: dict[int, list[int]] = {}
    cursor = 0
    for idx, chosen in candidates.items():
        clashes = clash[cursor : cursor + len(chosen)]
        cursor += len(chosen)
        survivors = [v for v, bad in zip(chosen, clashes) if not bad]
        if len(survivors) < r:
            raise StageFailure(
                op,
                f"cabal {idx} fielded only {len(survivors)} of {r} put-aside "
                f"candidates",
                affected=eligible[idx],
            )
        result[idx] = survivors[:r]
    runtime.h_rounds(op + "_filter", count=2)
    return result
