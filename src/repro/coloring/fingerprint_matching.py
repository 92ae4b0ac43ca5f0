"""Colorful matching in the densest cabals via fingerprints (Section 6).

When a cabal has ``a_K = O(log n)`` anti-edges on average, random color
trials cannot find them, and no routing scheme can ship palettes through the
cabal's few external links.  Algorithm 7 (FingerprintMatching) instead runs
``k = Θ(log n)`` parallel geometric trials:

* if trial ``i``'s maximum is unique, attained at ``u_i``, then every vertex
  whose neighborhood maximum differs from the cabal maximum is an
  *anti-neighbor* of ``u_i`` -- anti-edges reveal themselves through a
  2-bit-per-trial aggregate;
* a min-wise hash (Definition C.1) run by trial ``i``'s random group samples
  a near-uniform anti-neighbor ``w_i``;
* trials are de-duplicated so ``{(u_i, w_i)}`` forms a matching
  (Lemma 6.2: size ``≥ τ â_K/(4ε)`` w.h.p.).

Algorithm 6 then colors each anti-edge pair with a common non-reserved
color, assisted by random groups (MultiColorTrial semantics on anti-edge
super-vertices).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.aggregation.groups import random_groups
from repro.aggregation.runtime import ClusterRuntime
from repro.coloring.types import PartialColoring
from repro.graphcore import adjacency_mask
from repro.sketch.fingerprint import FingerprintTable
from repro.sketch.minwise import MinwiseHash, sample_minwise


@dataclass
class AntiEdgeMatching:
    """The matching Algorithm 7 discovers in one cabal."""

    clique_index: int
    pairs: list[tuple[int, int]]  # (u_i, w_i) anti-edges

    @property
    def size(self) -> int:
        """Number of matched anti-edges."""
        return len(self.pairs)


def matching_trial_count(runtime: ClusterRuntime, clique_size: int) -> int:
    """Number of parallel trials ``k``.

    Paper: ``k = 6 C log n/(ε τ)`` with ``Δ ≫ k log n``.  At laptop scale
    ``k`` is additionally capped at ``|K|/3`` so the per-trial random groups
    (Lemma 4.4) still exist; the success analysis only needs
    ``k ≥ Θ(â_K / (ε τ))`` matched-pair opportunities, which planted cabals
    meet comfortably under the cap.
    """
    params = runtime.params
    base = max(2.0, np.log2(max(runtime.n, 2)))
    raw = int(np.ceil(3.0 * base / params.eps))
    return max(4, min(raw, clique_size // 3))


def fingerprint_matching(
    runtime: ClusterRuntime,
    clique_index: int,
    members: list[int],
    *,
    op: str = "fingerprint_matching",
) -> AntiEdgeMatching:
    """Algorithm 7: find a matching of anti-edges inside one cabal.

    Cost: ``O(1/eps^2)`` rounds -- ``k``-trial fingerprints are pipelined
    with the Lemma 5.6 encoding, and every filtering step is a ``k``-bitmap
    aggregation over a BFS tree of ``K``.
    """
    graph = runtime.graph
    k = matching_trial_count(runtime, len(members))
    member_arr = list(members)
    index_of = {v: i for i, v in enumerate(member_arr)}

    # Step 2: per-vertex geometric variables and the clique-wide maxima.
    table = FingerprintTable(len(member_arr), k, runtime.rng)
    values, argmax_local, unique = table.argmax_per_trial(range(len(member_arr)))
    runtime.wide_message(op + "_fingerprints", 2 * k + 16)
    # Step 3: local identifiers via prefix sums (charged as one tree pass).
    runtime.h_rounds(op + "_local_ids", count=2)

    # Step 4: eligible trials.  With a unique maximum at u_i, the detected
    # anti-neighbor set A_i = K \ (N(u_i) ∪ {u_i}) -- exactly the vertices
    # whose neighborhood maximum differs from the clique maximum.
    member_set = set(member_arr)
    # anti-neighbors are listed in the member set's iteration order
    member_order = np.fromiter(member_set, dtype=np.int64, count=len(member_set))
    used_as_max: set[int] = set()
    eligible: list[tuple[int, int, list[int]]] = []  # (trial, u_i, A_i)
    for i in range(k):
        if not unique[i]:
            continue
        u_i = member_arr[int(argmax_local[i])]
        if u_i in used_as_max:
            continue
        outside = ~adjacency_mask(graph.csr, u_i, member_order)
        anti = member_order[outside & (member_order != u_i)].tolist()
        if not anti:
            continue
        used_as_max.add(u_i)
        eligible.append((i, u_i, anti))
    runtime.wide_message(op + "_trial_filter", k)

    # Steps 5-9: random groups relay min-wise sampling per trial.
    if eligible:
        random_groups(runtime, member_arr, max(1, k), verify=False, op=op + "_groups")
    chosen: list[tuple[int, int, int]] = []  # (trial, u_i, w_i)
    for i, u_i, anti in eligible:
        h: MinwiseHash = sample_minwise(runtime.rng)
        w_i = h.argmin(index_of[w] for w in anti)
        chosen.append((i, u_i, member_arr[int(w_i)]))
    runtime.wide_message(op + "_minwise", k)

    # Step 10: drop trials whose maximum was sampled as an anti-neighbor
    # elsewhere; Step 11: each w keeps one trial.
    sampled_ws = {w for (_i, _u, w) in chosen}
    first_by_w: dict[int, tuple[int, int]] = {}
    for i, u, w in chosen:
        if u in sampled_ws:
            continue
        if w not in first_by_w:
            first_by_w[w] = (i, u)
    runtime.wide_message(op + "_dedup", k)
    pairs = [(u, w) for w, (_i, u) in sorted(first_by_w.items(), key=lambda kv: kv[1][0])]
    return AntiEdgeMatching(clique_index=clique_index, pairs=pairs)


def color_anti_edge_matching(
    runtime: ClusterRuntime,
    coloring: PartialColoring,
    matchings: list[AntiEdgeMatching],
    *,
    reserved_floor: int,
    max_rounds: int = 24,
    members_by_clique: dict[int, list[int]] | None = None,
    op: str = "matching_color",
) -> dict[int, int]:
    """Algorithm 6, coloring step: give each matched anti-edge a common
    non-reserved color (random trials on anti-edge super-vertices, relayed
    by random groups; ``O(1) + O(log* n)`` rounds).

    Returns ``clique_index -> M_K`` (pairs actually colored).  Pairs that
    fail to color within the budget are dropped -- a smaller matching is
    always safe.
    """
    graph = runtime.graph
    num_colors = coloring.num_colors
    colored: dict[int, int] = {m.clique_index: 0 for m in matchings}
    pending: list[tuple[int, int, int]] = [
        (m.clique_index, u, w)
        for m in matchings
        for (u, w) in m.pairs
        if not coloring.is_colored(u) and not coloring.is_colored(w)
    ]
    # Low-degree regime (Section 9.3): random groups need Delta >> k log n;
    # below that, each anti-edge coordinates through a dedicated relay
    # (Lemma 9.2).  Unrelayable pairs are dropped -- smaller matchings are
    # always safe.
    import math

    k_total = len(pending)
    if k_total and graph.max_degree < k_total * math.log2(max(runtime.n, 4)):
        from repro.coloring.relays import find_relays

        kept: list[tuple[int, int, int]] = []
        for m in matchings:
            pairs = [(u, w) for (idx, u, w) in pending if idx == m.clique_index]
            if not pairs:
                continue
            if members_by_clique and m.clique_index in members_by_clique:
                members = members_by_clique[m.clique_index]
            else:
                # relays sit in both endpoints' neighborhoods; the union of
                # the endpoints' neighborhoods over-approximates K safely
                members = sorted(
                    set().union(
                        *(set(graph.neighbors(u)) | {u} for u, _ in pairs)
                    )
                )
            relays = find_relays(runtime, members, pairs, op=op + "_relays")
            for j, (u, w) in enumerate(pairs):
                if j in relays:
                    kept.append((m.clique_index, u, w))
        pending = kept
    for _ in range(max_rounds):
        if not pending:
            break
        proposals: list[tuple[int, int, int, int]] = []
        for idx, u, w in pending:
            c = int(runtime.rng.integers(reserved_floor, num_colors))
            proposals.append((idx, u, w, c))
        runtime.h_rounds(op, count=2, bits=runtime.color_bits)
        taken: dict[int, list[int]] = {}  # color -> endpoint vertices committed
        next_pending: list[tuple[int, int, int]] = []
        for idx, u, w, c in proposals:
            ok = coloring.is_free_for(graph, u, c) and coloring.is_free_for(
                graph, w, c
            )
            if ok:
                for x in taken.get(c, ()):
                    if graph.are_adjacent(x, u) or graph.are_adjacent(x, w):
                        ok = False
                        break
            if ok:
                coloring.assign(u, c)
                coloring.assign(w, c)
                taken.setdefault(c, []).extend((u, w))
                colored[idx] += 1
            else:
                next_pending.append((idx, u, w))
        pending = next_pending
    return colored
