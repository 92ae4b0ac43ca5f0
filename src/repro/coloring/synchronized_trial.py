"""SynchronizedColorTrial (Lemma 4.13).

Within each almost-clique, uncolored participants are matched one-to-one
with the free colors of the clique palette above the reserved prefix, via a
(pseudo)random permutation sampled by the leader.  Trials inside a clique
are conflict-free by construction; only *external* neighbors can clash, and
Lemma 4.13 bounds the survivors by ``(24/α) max(e_K, ℓ)`` -- even under
adversarial randomness outside the clique.

All cliques run simultaneously; the global conflict resolution is one
TryColor-style round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.aggregation.runtime import ClusterRuntime
from repro.coloring.types import CliquePaletteView, PartialColoring
from repro.coloring.try_color import resolve_proposals


@dataclass
class SctPlan:
    """One clique's participation in the synchronized trial.

    ``participants`` must number at most ``|L_φ(K)| - reserved_floor`` free
    colors (the caller sizes ``S_K`` per Proposition 4.6's proof).
    """

    participants: list[int]
    palette: CliquePaletteView
    reserved_floor: int


def synchronized_color_trial(
    runtime: ClusterRuntime,
    coloring: PartialColoring,
    plans: list[SctPlan],
    *,
    op: str = "sct",
) -> list[int]:
    """Run the SCT in every planned clique at once; returns the vertices
    that remain uncolored among all participants.

    Cost: ``O(1)`` rounds -- permutation-seed broadcast, local-id prefix
    sums (charged as one tree pass), and one global resolution round.
    """
    proposers: list[list[int]] = []
    proposed: list[np.ndarray] = []
    all_participants: list[int] = []
    for plan in plans:
        free = plan.palette.free_above(plan.reserved_floor)
        members = [v for v in plan.participants if not coloring.is_colored(v)]
        if not members:
            continue
        usable = min(len(members), int(free.size))
        members = members[:usable]
        all_participants.extend(plan.participants)
        perm = runtime.rng.permutation(int(free.size))[:usable]
        proposers.append(members)
        proposed.append(free[perm])
    # permutation seed + local ids: one broadcast + one prefix-sum pass
    runtime.h_rounds(op + "_setup", count=2, bits=2 * runtime.id_bits)
    if proposers:
        resolve_proposals(
            runtime,
            coloring,
            np.concatenate(proposers),
            np.concatenate(proposed),
            op=op,
        )
    return [v for v in all_participants if not coloring.is_colored(v)]
