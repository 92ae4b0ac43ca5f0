"""Coloring put-aside sets by color donation (Section 7, Algorithms 8-10).

Once everything but the put-aside sets is colored, a cabal's machines may be
connected to the outside world through a single ``O(log n)``-bit link
(Figure 3), so a put-aside vertex cannot *search* for a free color.  Instead
already-colored vertices donate:

    replacement color  ->  donor  ->  put-aside vertex

a three-way matching (Figure 4) built in four steps:

1. **TryFreeColors** -- if the clique palette still has ``>= ell_s`` free
   colors, put-aside vertices simply sample them (hash-compressed queries).
2. **FindCandidateDonors** (Algorithm 9) -- colored inliers holding a color
   unique in ``K``, with no (active or put-aside) foreign neighbors, so each
   cabal recolors independently.
3. **FindSafeDonors** (Algorithm 10) -- for each put-aside vertex ``u_i``, a
   replacement color ``c_i`` from the clique palette and a set ``S_i`` of
   candidate donors who (a) can themselves move to ``c_i`` and (b) hold
   colors from one contiguous *block* of the color space, so a handful of
   donations fits in one ``O(log n)``-bit message (block index + offsets).
4. **DonateColors** -- ``u_i`` samples ``k = Θ(log n/loglog n)`` donations
   from ``S_i`` and takes the first whose color no external neighbor uses;
   the donor moves to ``c_i``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.aggregation.runtime import ClusterRuntime
from repro.coloring.clique_palette import palette_view
from repro.coloring.errors import StageFailure
from repro.coloring.types import CliquePaletteView, PartialColoring, UNCOLORED
from repro.graphcore import batch_conflict_mask, batch_label_mismatch_counts
from repro.sketch.fingerprint import batch_count_estimates


@dataclass
class CabalPlan:
    """Inputs Section 7 needs for one cabal."""

    clique_index: int
    members: list[int]
    put_aside: list[int]
    inliers: list[int]


def _colors_in_clique(coloring: PartialColoring, members: list[int]) -> dict[int, int]:
    """Multiplicity of each color inside ``K`` (for uniqueness tests --
    implemented distributedly by random groups doing min-ID scans)."""
    cols = coloring.colors[np.asarray(members, dtype=np.int64)]
    used = cols[cols != UNCOLORED]
    values, counts = np.unique(used, return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


def try_free_colors(
    runtime: ClusterRuntime,
    coloring: PartialColoring,
    plan: CabalPlan,
    view: CliquePaletteView,
    ell_s: int,
    *,
    op: str = "try_free_colors",
) -> list[int]:
    """Step 2 of Algorithm 8: the clique palette is rich, so put-aside
    vertices sample from its ``ell_s`` smallest colors (hash-compressed in
    the paper; the message is ``k * O(loglog n) = O(log n)`` bits).

    Returns vertices still uncolored (empty w.h.p.).
    """
    k = runtime.params.donation_samples(runtime.n)
    window = view.free[: min(ell_s, view.size)]
    taken: set[int] = set()
    leftover: list[int] = []
    for u in plan.put_aside:
        if coloring.is_colored(u):
            continue
        # one neighbor-color gather per put-aside vertex instead of one
        # per sampled color (no assignments happen between the k probes)
        ncols = coloring.neighbor_colors(runtime.graph, u)
        used = set(ncols[ncols != UNCOLORED].tolist())
        picks = runtime.rng.integers(0, max(1, window.size), size=k)
        chosen = None
        for i in picks:
            c = int(window[int(i)])
            if c in taken:
                continue
            if c not in used:
                chosen = c
                break
        if chosen is None:
            leftover.append(u)
        else:
            taken.add(chosen)
            coloring.assign(u, chosen)
    runtime.h_rounds(op, count=2, bits=runtime.id_bits)
    return leftover


def find_candidate_donors(
    runtime: ClusterRuntime,
    coloring: PartialColoring,
    plans: list[CabalPlan],
    *,
    op: str = "candidate_donors",
) -> dict[int, list[int]]:
    """Algorithm 9: candidate donor sets ``Q_K``, computed jointly so the
    cross-cabal independence filters see every cabal's choices.
    """
    graph = runtime.graph
    params = runtime.params
    csr = graph.csr
    n_v = graph.n_vertices
    put_aside_owner = np.full(n_v, -1, dtype=np.int64)
    for plan in plans:
        put_aside_owner[plan.put_aside] = plan.clique_index

    # Step 1: colored inliers with no external neighbor in a foreign
    # put-aside set.  Step 2: independent activation.  The foreign-put
    # test is one batched owner-mismatch gather per plan; the activation
    # coins are drawn as one block, which consumes the RNG exactly as the
    # per-vertex coin loop did.
    active_owner = np.full(n_v, -1, dtype=np.int64)
    active_by_plan: dict[int, list[int]] = {}
    color_counts: dict[int, dict[int, int]] = {}
    for plan in plans:
        idx = plan.clique_index
        color_counts[idx] = _colors_in_clique(coloring, plan.members)
        inliers = np.asarray(plan.inliers, dtype=np.int64)
        eligible = coloring.colors[inliers] != UNCOLORED
        eligible &= put_aside_owner[inliers] != idx
        foreign_put = (
            batch_label_mismatch_counts(
                csr, put_aside_owner, inliers,
                ignore_label=-1, own_labels=idx,
            )
            > 0
        )
        pre = inliers[eligible & ~foreign_put].tolist()
        coins = runtime.rng.random(len(pre))
        active = [v for v, coin in zip(pre, coins) if coin < params.donor_activation]
        active_by_plan[idx] = active
        active_owner[active] = idx
    runtime.h_rounds(op + "_activate", count=2)

    # Step 3: keep active vertices whose color is unique in K and who have
    # no *active* external neighbor (again one batched gather per plan).
    result: dict[int, list[int]] = {}
    for plan in plans:
        idx = plan.clique_index
        counts = color_counts[idx]
        active = active_by_plan[idx]
        clash = (
            batch_label_mismatch_counts(
                csr, active_owner, active, ignore_label=-1, own_labels=idx
            )
            > 0
        )
        result[idx] = [
            v
            for v, clashes in zip(active, clash)
            if not clashes and counts.get(coloring.get(v), 0) == 1
        ]
    runtime.h_rounds(op + "_filter", count=2)
    return result


@dataclass
class SafeDonorAssignment:
    """Lemma 7.3's triplet for one put-aside vertex ``u_i``."""

    replacement_color: int
    block_index: int
    donors: list[int]


def find_safe_donors(
    runtime: ClusterRuntime,
    coloring: PartialColoring,
    plan: CabalPlan,
    donors_q: list[int],
    view: CliquePaletteView,
    *,
    op: str = "safe_donors",
) -> list[SafeDonorAssignment]:
    """Algorithm 10: replacement colors, blocks and safe-donor sets.

    Raises :class:`StageFailure` if fewer than ``|P_K|`` replacement colors
    reach the ``2 * quota`` estimated-population bar (Step 3's ``beta``).
    """
    graph = runtime.graph
    params = runtime.params
    r = len(plan.put_aside)
    quota = params.donor_quota(runtime.n)
    block = params.donor_block_size(runtime.n, graph.max_degree)

    # Step 1: every candidate donor samples a uniform clique-palette color
    # and keeps it only if it is in its own palette too.  One block draw
    # (RNG stream identical to per-donor draws) + one batched conflict
    # gather; the grouping loop only routes precomputed bits.
    sampled: dict[tuple[int, int], list[int]] = {}  # (color, block_j) -> donors
    if view.size > 0 and donors_q:
        picks = runtime.rng.integers(0, view.size, size=len(donors_q))
        colors_drawn = view.free[picks]
        blocked = batch_conflict_mask(
            graph.csr, coloring.colors, donors_q, colors_drawn
        )
        blocks = coloring.colors[np.asarray(donors_q, dtype=np.int64)] // block
        for v, c, j, is_blocked in zip(
            donors_q, colors_drawn.tolist(), blocks.tolist(), blocked
        ):
            if not is_blocked:
                sampled.setdefault((c, j), []).append(v)
    runtime.h_rounds(op + "_sample", count=2, bits=runtime.color_bits)

    # Step 2: random group (c, j) estimates its population by fingerprint
    # (one batched draw + estimate over the groups, in insertion order).
    trials = params.fingerprint_trials(runtime.n, 0.5)
    group_sizes = [len(vs) for vs in sampled.values()]
    estimates = batch_count_estimates(runtime.rng, group_sizes, trials)
    beta = dict(zip(sampled.keys(), estimates.tolist()))
    runtime.wide_message(op + "_beta", 2 * trials + 16)

    # Steps 3-4: per color, the smallest block whose estimate clears the
    # bar; take the first r such colors (prefix sums over a clique tree).
    block_of: dict[int, int] = {}
    for (c, j), estimate in sorted(beta.items()):
        if estimate > 2 * quota and c not in block_of:
            block_of[c] = j
    if len(block_of) < r:
        raise StageFailure(
            op,
            f"cabal {plan.clique_index}: only {len(block_of)} replacement "
            f"colors reached the 2x{quota} donor bar; need {r}",
            affected=plan.put_aside,
        )
    runtime.h_rounds(op + "_select", count=2)
    out: list[SafeDonorAssignment] = []
    for c in sorted(block_of)[:r]:
        j = block_of[c]
        out.append(
            SafeDonorAssignment(
                replacement_color=c, block_index=j, donors=sampled[(c, j)]
            )
        )
    return out


def donate_colors(
    runtime: ClusterRuntime,
    coloring: PartialColoring,
    plan: CabalPlan,
    assignments: list[SafeDonorAssignment],
    *,
    op: str = "donate",
) -> list[int]:
    """Step 6 of Algorithm 8: sample donations, commit the double recoloring
    ``φ_total`` of Section 7.1.  Returns put-aside vertices left uncolored
    (empty w.h.p.).

    The ``k`` donation offers fit one ``O(log Δ + k log b)``-bit message
    because all of ``S_i`` holds colors from block ``j_i`` (offsets only).
    """
    graph = runtime.graph
    csr = graph.csr
    k = runtime.params.donation_samples(runtime.n)
    leftover: list[int] = []
    for u, assignment in zip(plan.put_aside, assignments):
        if coloring.is_colored(u):
            continue
        # one batched conflict gather over the candidate donors (the
        # coloring mutates between put-aside vertices, so the mask is
        # rebuilt per ``u`` -- but not per donor)
        donor_arr = np.asarray(assignment.donors, dtype=np.int64)
        donor_blocked = (
            batch_conflict_mask(
                csr,
                coloring.colors,
                donor_arr,
                np.full(donor_arr.size, assignment.replacement_color),
            )
            if donor_arr.size
            else np.empty(0, dtype=bool)
        )
        donors = [
            v
            for v, is_blocked in zip(assignment.donors, donor_blocked)
            if not is_blocked
        ]
        accepted = None
        if donors:
            picks = runtime.rng.integers(0, len(donors), size=k)
            for i in picks:
                v = donors[int(i)]
                c_don = coloring.get(v)
                # acceptable iff no neighbor of u except the donor itself
                # carries c_don (unique in K; externals are the real test)
                nbrs = graph.neighbor_array(u)
                clash = False
                for w in nbrs[coloring.colors[nbrs] == c_don]:
                    if int(w) != v:
                        clash = True
                        break
                if not clash:
                    accepted = (v, c_don)
                    break
        if accepted is None:
            leftover.append(u)
            continue
        v, c_don = accepted
        coloring.recolor(v, assignment.replacement_color)
        coloring.assign(u, c_don)
    runtime.h_rounds(op, count=3, bits=runtime.id_bits)
    return leftover


def color_put_aside_sets(
    runtime: ClusterRuntime,
    coloring: PartialColoring,
    plans: list[CabalPlan],
    *,
    op: str = "color_put_aside",
) -> list[int]:
    """ColorPutAsideSets (Algorithm 8) over all cabals; ``O(1)`` rounds.

    Returns the put-aside vertices that could not be colored (empty
    w.h.p.); the caller's fallback handles any leftover.
    """
    params = runtime.params
    ell_s = params.ell_s(runtime.n)
    rich: list[tuple[CabalPlan, CliquePaletteView]] = []
    poor: list[tuple[CabalPlan, CliquePaletteView]] = []
    for plan in plans:
        view = palette_view(runtime, coloring, plan.members, op=op + "_palette")
        if view.size >= ell_s:
            rich.append((plan, view))
        else:
            poor.append((plan, view))

    leftover: list[int] = []
    for plan, view in rich:
        leftover.extend(try_free_colors(runtime, coloring, plan, view, ell_s, op=op))

    if poor:
        donor_sets = find_candidate_donors(
            runtime, coloring, [plan for plan, _ in poor], op=op + "_candidates"
        )
        for plan, view in poor:
            try:
                assignments = find_safe_donors(
                    runtime,
                    coloring,
                    plan,
                    donor_sets.get(plan.clique_index, []),
                    view,
                    op=op + "_safe",
                )
            except StageFailure:
                # Donor populations too thin (possible when |K| is barely
                # above r at laptop scale): degrade to the free-colors path
                # on whatever the clique palette still offers.
                leftover.extend(
                    try_free_colors(
                        runtime, coloring, plan, view, ell_s, op=op + "_free_fb"
                    )
                )
                continue
            leftover.extend(
                donate_colors(runtime, coloring, plan, assignments, op=op + "_donate")
            )
    return leftover
