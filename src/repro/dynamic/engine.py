"""The streaming update engine: colorings maintained under churn.

:class:`DynamicColoring` holds a conflict graph (as a delta-buffered CSR
plus cluster metadata) and a proper coloring, and absorbs
:class:`~repro.dynamic.updates.UpdateBatch` objects one at a time.  Each
batch is applied structurally, kind by kind (its edge deletions and its
edge insertions are one array call each on the delta-buffered CSR), then
only the *conflict frontier* -- vertices whose color became invalid
(monochromatic new edge, palette-bound violation, merge collision) or who
have no color yet (arrivals, split halves) -- is repaired with the same
batched TryColor machinery the one-shot pipeline runs on
(:mod:`repro.graphcore` kernels over the delta-aware gathers).

This mirrors the decentralized-repair reading of the paper's model: a
vertex reacts to conflicts it can observe locally, with every palette probe
and proposal round charged to a :class:`~repro.network.ledger.BandwidthLedger`
exactly as the static stages charge theirs.  When repair would touch more
than :data:`_ESCALATE_FRACTION` of the graph (or sequential completion gets
stuck), the engine concedes and recolors from scratch through
:func:`repro.color_cluster_graph` -- recorded, never silent.

The palette bound is maintained *tightly*: after every batch the palette is
``Delta + 1`` for the current maximum degree, so shrinking the graph shrinks
the palette (recoloring the now-out-of-range vertices) and growing it grows
the palette -- the invariant the dynamic tests assert batch by batch.

After every batch an exact check runs: every live color inside the
palette, the stream ledger within its link budget, and no monochromatic
edge.  The edge part reads only what can have turned monochromatic since
the last check that passed: the edges inserted since then and the edges
of vertices whose color changed -- the check primitive of the
decentralized model, where a vertex learns only whether a neighbor shares
its color.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.coloring.types import UNCOLORED
from repro.graphcore import (
    conflict_mask_from_flat,
    draw_free_colors,
    is_proper_edges,
    used_color_masks_from_flat,
)
from repro.dynamic.delta import DeltaCSR
from repro.dynamic.updates import UpdateBatch
from repro.dynamic.view import FrozenConflictGraph
from repro.network.ledger import BandwidthLedger
from repro.observe.tracer import NULL_TRACER
from repro.params import AlgorithmParameters, log2ceil, scaled
from repro.verify.checker import invariant_problem


#: Below this many edges the per-batch check scans every edge: there the
#: full scan costs less than the incremental check's fixed cost in numpy
#: calls (the delta-aware gather above all).
_INCREMENTAL_MIN_EDGES = 8192

#: Frontier size (as a fraction of live vertices) beyond which repair
#: concedes to a scratch recolor.
_ESCALATE_FRACTION = 0.5


class RepairError(RuntimeError):
    """The engine produced an improper coloring (an engine bug, not churn)."""


@dataclass
class BatchReport:
    """Everything one applied batch did, for stats and experiment records."""

    batch_index: int
    events: dict[str, int]
    dirty: int  #: vertices on the conflict frontier after structural apply
    repaired: int  #: vertices recolored by the frontier repair loop
    recolor_fraction: float  #: repaired / alive (1.0 when escalated)
    escalated: bool  #: fell back to a full scratch recolor
    repair_rounds: int  #: TryColor rounds the repair loop ran
    greedy_vertices: int  #: vertices finished by sequential completion
    compacted: bool  #: delta buffer folded into a fresh base CSR this batch
    rounds_h: int  #: ledger H-rounds charged by this batch
    message_bits: int  #: ledger payload bits charged by this batch
    wall_time_s: float
    proper: bool  #: edges, palette and link budget checker-verified
    num_colors: int  #: palette bound after the batch (Delta + 1)


@dataclass
class StreamResult:
    """Aggregate of a fully consumed stream (what experiment cells report)."""

    reports: list[BatchReport] = field(default_factory=list)

    @property
    def batches(self) -> int:
        """Number of batches consumed."""
        return len(self.reports)

    @property
    def all_proper(self) -> bool:
        """Whether every batch ended checker-proper."""
        return all(r.proper for r in self.reports)

    @property
    def total_repaired(self) -> int:
        """Vertices recolored across the whole stream."""
        return sum(r.repaired for r in self.reports)

    @property
    def mean_recolor_fraction(self) -> float:
        """Mean per-batch recolored fraction (0 for an empty stream)."""
        if not self.reports:
            return 0.0
        return sum(r.recolor_fraction for r in self.reports) / len(self.reports)

    @property
    def max_recolor_fraction(self) -> float:
        """Worst per-batch recolored fraction (1.0 marks an escalation)."""
        return max((r.recolor_fraction for r in self.reports), default=0.0)

    @property
    def escalations(self) -> int:
        """Batches that fell back to a full scratch recolor."""
        return sum(1 for r in self.reports if r.escalated)

    @property
    def rounds_h(self) -> int:
        """Total ledger H-rounds charged over the stream."""
        return sum(r.rounds_h for r in self.reports)

    @property
    def message_bits(self) -> int:
        """Total ledger payload bits charged over the stream."""
        return sum(r.message_bits for r in self.reports)

    @property
    def wall_time_s(self) -> float:
        """Wall-clock seconds spent inside ``apply`` over the stream."""
        return sum(r.wall_time_s for r in self.reports)


class DynamicColoring:
    """A proper coloring maintained under a stream of update batches.

    :meth:`apply` ingests a batch in :data:`~repro.dynamic.updates.KINDS`
    order, reading each kind's run as one slice of the batch's columns.
    The ``edge_delete`` run and the ``edge_insert`` run hand their ``u``
    and ``v`` slices to :class:`~repro.dynamic.delta.DeltaCSR` as one
    array call each, which checks every pair before it writes any: a bad
    edge update raises with its whole run unwritten (the kinds before it
    stay applied).  Vertex and cluster updates apply one at a time, each
    as at most two array calls; a run of arrivals or of splits first
    allocates all its new ids, with one growth per array.  A new edge
    whose endpoints share a color dirties its larger endpoint.  The
    per-batch bookkeeping reads no O(n) scan: ``n_alive`` is a counter,
    and ``n_machines`` and ``dilation`` read the size and height arrays
    whole, since a departure or a merge zeroes both at the dead id.

    Parameters
    ----------
    graph:
        The initial :class:`~repro.cluster.cluster_graph.ClusterGraph`.
    params:
        Constants preset (default :func:`repro.params.scaled`).
    seed:
        Seeds the randomness of the bootstrap coloring (the one-shot
        pipeline) and of all repair rounds.
    mode:
        ``"repair"`` (incremental frontier repair, the engine proper) or
        ``"scratch"`` (apply updates structurally, then recolor everything
        each batch -- the baseline the experiments compare against).
        Repair concedes to a scratch recolor when the frontier exceeds
        :data:`_ESCALATE_FRACTION` of the live vertices.
    tracer:
        Optional :class:`~repro.observe.tracer.Tracer`; the engine binds
        its stream ledger to it and wraps the bootstrap coloring plus every
        :meth:`apply` call in a span (``stream.bootstrap``,
        ``stream.batch[batch=i]``); a batch span holds one child span per
        step, ``stream.ingest``, ``stream.repair``, ``stream.compact`` and
        ``stream.verify``.  Tracing reads ledger windows only -- traced
        streams are bitwise-identical to untraced ones.
    netmodel:
        Optional :class:`~repro.network.hetnet.HetNetModel` attached to
        the stream ledger and shared with every scratch-escalation
        sub-run, so the stream's ``makespan_ms`` covers exactly the
        rounds the stream ledger accounts (the bootstrap, whose rounds
        are not stream rounds, stays outside the simulated clock too).
        Bitwise-invisible, same contract as ``tracer``.
    """

    def __init__(
        self,
        graph,
        *,
        params: AlgorithmParameters | None = None,
        seed: int = 0,
        mode: str = "repair",
        tracer=None,
        netmodel=None,
    ):
        if mode not in ("repair", "scratch"):
            raise ValueError(f"unknown mode {mode!r}")
        self.params = params or scaled()
        self.rng = np.random.default_rng(seed)
        self.mode = mode
        self.netmodel = netmodel
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # initial graph, kept for reporting static cell fields (sizes,
        # Delta, dilation at bootstrap); live topology is self.delta
        self.graph = graph
        self.delta = DeltaCSR(graph.csr)
        self.cluster_sizes = np.diff(graph.forest.offsets)
        self.tree_heights = graph.forest.height.copy()
        self.ledger = BandwidthLedger(
            bandwidth_bits=self.params.bandwidth_bits(max(2, graph.n_machines)),
            dilation=max(1, graph.dilation),
        )
        if netmodel is not None:
            # the stream ledger and every pipeline sub-run (bootstrap,
            # scratch escalations) share ONE model: per-element times
            # accumulate across them while absorb() folds the scalar
            self.ledger.attach_netmodel(netmodel)
        self.tracer.bind_ledger(self.ledger)
        self.num_colors = self.delta.max_degree + 1
        from repro import color_cluster_graph

        # the bootstrap runs on its own runtime ledger (its cost is
        # reported as bootstrap_wall_time_s, not stream rounds), so the
        # span captures wall time and zero stream-ledger charges
        with self.tracer.span("stream.bootstrap"):
            bootstrap = color_cluster_graph(
                graph,
                params=self.params,
                rng=self.rng,
                verify=True,
            )
        if not bootstrap.proper:
            raise RepairError("bootstrap: the one-shot coloring is not proper")
        self.colors = bootstrap.colors.astype(np.int64)
        # the last coloring that passed the check (None: scan every edge)
        self._verified = self.colors.copy()
        self.reports: list[BatchReport] = []

    # ---- derived state -------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        """Allocated vertex ids, dead ones included (ids are stable)."""
        return self.delta.n_vertices

    @property
    def n_alive(self) -> int:
        """Live vertices (the denominator of ``recolor_fraction``)."""
        return self.delta.n_alive

    @property
    def n_machines(self) -> int:
        """Machines across live clusters (drives bandwidth-bit sizing)."""
        return int(self.cluster_sizes.sum())

    @property
    def max_degree(self) -> int:
        """Current ``Delta``; the palette is re-tightened to ``Delta + 1``
        after every batch."""
        return self.delta.max_degree

    @property
    def dilation(self) -> int:
        """Max support-tree height over live clusters (estimated after
        merge/split; see ROADMAP)."""
        return max(1, int(self.tree_heights.max(initial=0)))

    @property
    def color_bits(self) -> int:
        """Bits of one color message under the current palette."""
        return log2ceil(self.num_colors + 1)

    def snapshot_graph(self) -> FrozenConflictGraph:
        """Current state as a static conflict graph (scratch-path input)."""
        sizes = np.where(self.delta.alive_mask, self.cluster_sizes, 0)
        return FrozenConflictGraph(
            csr=self.delta.as_csr(),
            cluster_sizes=sizes,
            dilation=self.dilation,
        )

    def result(self) -> StreamResult:
        """All batch reports so far, aggregated."""
        return StreamResult(reports=list(self.reports))

    # ---- batch application ---------------------------------------------------

    def apply(self, batch: UpdateBatch) -> BatchReport:
        """Apply one batch structurally, repair the frontier, verify."""
        with self.tracer.span("stream.batch", batch=len(self.reports)) as span:
            return self._apply_in_span(batch, span)

    def _apply_in_span(self, batch: UpdateBatch, span) -> BatchReport:
        start = time.perf_counter()
        with self.ledger.window() as window:
            with self.tracer.span("stream.ingest"):
                dirty, events = self._ingest(batch)
            with self.tracer.span("stream.repair"):
                # repairs run on the post-update network: charge them at the
                # dilation the batch's merges/splits/arrivals produced, and at
                # the link budget of the largest network seen so far -- a
                # scratch sub-run sizes its own cap from the live machines, and
                # the ledger keeps one all-time widest message to check
                self.ledger.dilation = self.dilation
                self.ledger.bandwidth_bits = max(
                    self.ledger.bandwidth_bits,
                    self.params.bandwidth_bits(max(2, self.n_machines)),
                )
                dirty |= self._retighten_palette()
                dirty = {v for v in dirty if self.delta.is_alive(v)}
                for v in dirty:
                    self.colors[v] = UNCOLORED

                escalated = False
                repair_rounds = 0
                greedy_count = 0
                if self.mode == "scratch":
                    self._recolor_scratch(op="stream_scratch")
                    repaired = self.n_alive  # the baseline recolors everything
                elif dirty and len(dirty) > _ESCALATE_FRACTION * max(1, self.n_alive):
                    self._recolor_scratch(op="stream_escalation")
                    repaired = self.n_alive
                    escalated = True
                else:
                    repaired, repair_rounds, greedy_count, escalated = self._repair(
                        sorted(dirty)
                    )

            with self.tracer.span("stream.compact"):
                compacted = self.delta.maybe_compact()
            with self.tracer.span("stream.verify"):
                # report a miss instead of raising: sweep cells and the CLI
                # surface proper=False the same graceful way static cells do
                proper = self._verify_batch(
                    full=compacted or escalated or self.mode == "scratch"
                )

        report = BatchReport(
            batch_index=len(self.reports),
            events=events,
            dirty=len(dirty),
            repaired=repaired,
            recolor_fraction=repaired / max(1, self.n_alive),
            escalated=escalated,
            repair_rounds=repair_rounds,
            greedy_vertices=greedy_count,
            compacted=compacted,
            rounds_h=window.rounds_h,
            message_bits=window.message_bits,
            wall_time_s=time.perf_counter() - start,
            proper=proper,
            num_colors=self.num_colors,
        )
        span.counter("frontier", report.dirty)
        span.counter("repaired", report.repaired)
        span.counter("repair_rounds", report.repair_rounds)
        if report.escalated:
            span.counter("escalations", 1)
        if report.compacted:
            span.counter("compactions", 1)
        self.reports.append(report)
        return report

    def run(self, batches) -> StreamResult:
        """Apply every batch of an iterable; returns the aggregate.

        The final state is re-checked by the full edge scan: a violation
        that the last batch's report missed raises :class:`RepairError`.
        """
        for batch in batches:
            self.apply(batch)
        if self.reports and self.reports[-1].proper:
            self._assert_proper("stream end, missed by the last batch check")
        return self.result()

    # ---- structural updates --------------------------------------------------

    def _ingest(self, batch: UpdateBatch) -> tuple[set[int], dict[str, int]]:
        """Apply a batch's updates run by run (each kind's rows are one
        slice of its columns), each edge run as one array call; returns
        the vertices they left dirty and the batch's
        :meth:`~repro.dynamic.updates.UpdateBatch.counts` (the report's
        ``events``)."""
        dirty: set[int] = set()
        runs = batch.by_kind()
        for kind, rows in runs.items():
            us, vs = batch.u[rows], batch.v[rows]
            if kind == "edge_delete":
                self.delta.delete_edge(us, vs)
            elif kind == "edge_insert":
                self.delta.insert_edge(us, vs)
                dirty.update(self._insert_clashes(us, vs))
            elif kind == "vertex_remove":
                for u in us.tolist():
                    self.delta.remove_vertex(u)
                    # dead ids are edge-free; their color value is moot
                    self.colors[u] = 0
                    self.cluster_sizes[u] = 0
                    self.tree_heights[u] = 0
            elif kind == "vertex_add":
                self._arrive(batch, rows, dirty)
            elif kind == "cluster_merge":
                for u, v in zip(us.tolist(), vs.tolist()):
                    self._merge(u, v, dirty)
            else:  # cluster_split: the run's new halves take sequential ids
                first = self._allocate_vertices(rows.stop - rows.start)
                splits = zip(
                    range(rows.start, rows.stop), us.tolist(), batch.size[rows].tolist()
                )
                for w, (i, u, size) in enumerate(splits, first):
                    self._split(u, batch.payload(i), size, w, dirty)
        return dirty, {kind: rows.stop - rows.start for kind, rows in runs.items()}

    def _insert_clashes(self, us: np.ndarray, vs: np.ndarray) -> list[int]:
        """The vertices that the new edges ``{us[i], vs[i]}`` dirty: where
        both endpoints hold one color, the larger id backs off (local
        conflict resolution, the mirror image of TryColor's smaller-ID-wins
        rule)."""
        cu = self.colors[us]
        clash = (cu == self.colors[vs]) & (cu != UNCOLORED)
        return np.maximum(us, vs)[clash].tolist()

    def _allocate_vertices(self, count: int) -> int:
        """Allocate ``count`` sequential uncolored ids with one growth per
        array; returns the first.  Their cluster sizes and tree heights
        start at 0 for the caller to set."""
        first = self.delta.add_vertex(count)
        zeros = np.zeros(count, dtype=np.int64)
        self.cluster_sizes = np.concatenate([self.cluster_sizes, zeros])
        self.tree_heights = np.concatenate([self.tree_heights, zeros])
        self.colors = np.concatenate(
            [self.colors, np.full(count, UNCOLORED, dtype=np.int64)]
        )
        return first

    def _arrive(self, batch: UpdateBatch, rows: slice, dirty: set[int]) -> None:
        """Apply the run ``rows`` of ``vertex_add`` updates: allocate its
        ids, then wire each arrival to its neighbors in batch order."""
        first = self._allocate_vertices(rows.stop - rows.start)
        sizes = np.maximum(batch.size[rows], 1)
        self.cluster_sizes[first:] = sizes
        # arrivals wire their machines as a star: height 1 for singletons
        # and pairs, 2 otherwise (leader + leaves)
        self.tree_heights[first:] = np.where(sizes <= 2, 1, 2)
        for w, i in enumerate(range(rows.start, rows.stop), first):
            edges = batch.payload(i)
            if edges.size and edges.max() > w:
                # a later arrival of this run has not arrived yet
                raise ValueError(f"vertex {int(edges.max())} is not alive")
            self.delta.insert_edge(w, edges)
            dirty.add(w)

    def _merge(self, u: int, v: int, dirty: set[int]) -> None:
        """``u`` absorbs ``v``; they must be H-adjacent (Definition 3.1:
        the merged machine set stays connected through a realizing link)."""
        if not self.delta.has_edge(u, v):
            raise ValueError(f"cannot merge non-adjacent clusters {u} and {v}")
        detached = self.delta.remove_vertex(v)
        kept = self.delta.neighbors(u)
        known = set(kept.tolist())
        fresh = np.array(
            [x for x in detached.tolist() if x != u and x not in known],
            dtype=np.int64,
        )
        self.delta.insert_edge(u, fresh)
        self.colors[v] = 0
        self.cluster_sizes[u] += self.cluster_sizes[v]
        self.cluster_sizes[v] = 0
        # support trees join across the realizing link: heights add
        self.tree_heights[u] = self.tree_heights[u] + self.tree_heights[v] + 1
        self.tree_heights[v] = 0
        cu = self.colors[u]
        if cu != UNCOLORED and bool(
            (self.colors[np.concatenate([kept, fresh])] == cu).any()
        ):
            dirty.add(u)

    def _split(
        self, u: int, moved: np.ndarray, size: int, w: int, dirty: set[int]
    ) -> None:
        """``u`` sheds ``size`` machines and the neighbors in ``moved`` into
        the fresh cluster ``w``, allocated with its run; the halves stay
        linked by a new H-edge."""
        if int(self.cluster_sizes[u]) < 2:
            raise ValueError(
                f"cluster {u} has {int(self.cluster_sizes[u])} machine(s); "
                "splitting needs at least 2"
            )
        size = max(1, min(int(size), int(self.cluster_sizes[u]) - 1))
        self.cluster_sizes[w] = size
        self.tree_heights[w] = self.tree_heights[u]  # conservative carry-over
        self.cluster_sizes[u] -= size
        self.delta.delete_edge(u, moved)
        self.delta.insert_edge(w, np.append(moved, u))  # plus the u-w link
        dirty.add(w)

    def _retighten_palette(self) -> set[int]:
        """Pin the palette to ``Delta + 1`` for the *current* ``Delta``;
        returns vertices whose color fell outside the shrunk palette."""
        new_q = self.delta.max_degree + 1
        violators: set[int] = set()
        if new_q < self.num_colors:
            alive = self.delta.alive_mask
            bad = np.flatnonzero(alive & (self.colors >= new_q))
            violators = {int(v) for v in bad}
        self.num_colors = new_q
        return violators

    # ---- repair --------------------------------------------------------------

    def _repair(self, dirty: list[int]) -> tuple[int, int, int, bool]:
        """Frontier repair: batched TryColor rounds over the dirty set, then
        sequential completion; escalates if completion gets stuck.

        Returns ``(repaired, rounds, greedy_vertices, escalated)``.
        """
        if not dirty:
            return 0, 0, 0, False
        remaining = np.asarray(dirty, dtype=np.int64)
        q = self.num_colors
        budget = 2 * int(math.ceil(math.log2(max(self.n_alive, 4)))) + 8
        rounds = 0
        for _ in range(budget):
            if remaining.size == 0:
                break
            rounds += 1
            seg_ids, flat = self.delta.gather(remaining)
            used = used_color_masks_from_flat(
                seg_ids, self.colors[flat], remaining.size, q
            )
            can, drawn = draw_free_colors(used, self.rng)
            proposals = np.full(remaining.size, -2, dtype=np.int64)
            proposals[can] = drawn
            proposal_map = np.full(self.n_vertices, -2, dtype=np.int64)
            proposal_map[remaining] = proposals
            blocked = conflict_mask_from_flat(
                seg_ids,
                flat,
                self.colors,
                remaining,
                proposals,
                proposal_map=proposal_map,
            )
            adopt = can & ~blocked
            self.colors[remaining[adopt]] = proposals[adopt]
            # charge: one pipelined palette bitmap + announce/learn rounds,
            # the exact accounting of the one-shot fallback ladder
            self.ledger.charge(
                "stream_repair_palette", q, rounds_h=1, pipelined=True
            )
            self.ledger.charge(
                "stream_repair", self.color_bits, rounds_h=2, pipelined=True
            )
            remaining = remaining[~adopt]
        greedy_count = 0
        stuck: list[int] = []
        for v in remaining.tolist():
            nbr_colors = self.colors[self.delta.neighbors(v)]
            free_mask = np.ones(q, dtype=bool)
            held = nbr_colors[(nbr_colors >= 0) & (nbr_colors < q)]
            free_mask[held] = False
            free = np.flatnonzero(free_mask)
            if free.size == 0:
                stuck.append(v)
                continue
            self.colors[v] = int(free[0])
            greedy_count += 1
            self.ledger.charge(
                "stream_repair_greedy", self.color_bits, rounds_h=1, pipelined=True
            )
        if stuck:
            # palette exhausted locally (cannot happen with q = Delta + 1
            # unless state is inconsistent): concede to the one-shot pipeline
            self._recolor_scratch(op="stream_escalation")
            return self.n_alive, rounds, greedy_count, True
        return len(dirty), rounds, greedy_count, False

    def _recolor_scratch(self, *, op: str) -> None:
        """Recolor the whole graph via the one-shot pipeline; the sub-run's
        ledger is absorbed under ``op`` so stream accounting stays total."""
        from repro import color_cluster_graph

        snapshot = self.snapshot_graph()
        result = color_cluster_graph(
            snapshot,
            params=self.params,
            rng=self.rng,
            verify=False,
            netmodel=self.netmodel,
        )
        self.colors = np.asarray(result.colors, dtype=np.int64).copy()
        self.num_colors = result.num_colors
        self.ledger.absorb(result.ledger_summary, op=op)

    # ---- verification --------------------------------------------------------

    def _verify_batch(self, *, full: bool) -> bool:
        """The per-batch check (ground truth, not charged), whose miss is
        reported as ``BatchReport.proper = False``.  It is exact but
        incremental against the last coloring that passed it; it scans
        every edge instead when ``full`` (batches that compact, escalate or
        run in ``mode="scratch"``), when no such coloring exists (right
        after a miss), and on graphs of fewer than
        ``_INCREMENTAL_MIN_EDGES`` (8192) edges, where the scan is the
        cheaper of the two.  Drains the insert record, so the record never
        holds more than one batch's inserts.  Returns whether the batch is
        proper."""
        inserted = self.delta.drain_inserts()
        verified, self._verified = self._verified, None
        if full or verified is None or self.delta.n_edges < _INCREMENTAL_MIN_EDGES:
            problem = self._check_proper()
        else:
            problem = self._check_proper((verified, *inserted))
        if problem is not None:
            return False
        self._verified = self.colors.copy()
        return True

    def _check_proper(self, since=None) -> str | None:
        """Ground-truth check: the run invariants of
        :func:`~repro.verify.checker.invariant_problem` (every live vertex
        colored inside the palette, the stream ledger within its link
        budget) and no monochromatic edge.  Returns a diagnosis string on a
        miss, ``None`` when all hold.

        Without ``since`` it scans every edge.  ``since = (verified, u, v)``
        names a coloring that passed this check and the endpoints of every
        edge inserted since (the drained insert record).  An edge that is
        monochromatic now and was not then is one of those inserts, or it
        touches a vertex whose color differs from ``verified`` (ids past
        ``verified.size`` are new, so all their edges are inserts).  The
        check reads only those edges and reports exactly what the full
        scan would.  The invariants part is O(n) either way.
        """
        colors = self.colors
        problem = invariant_problem(
            colors, self.num_colors, self.ledger, self.delta.alive_mask
        )
        if problem is not None:
            return problem
        if since is None:
            edge_u, edge_v = self.delta.edge_arrays()
            proper = is_proper_edges(edge_u, edge_v, colors)
        else:
            verified, ins_u, ins_v = since
            # an inserted pair counts only if it is still an edge: a split,
            # merge or departure may have removed it again
            same = colors[ins_u] == colors[ins_v]
            proper = not (
                same.any() and self.delta.has_edge(ins_u[same], ins_v[same]).any()
            )
            changed = np.flatnonzero(colors[: verified.size] != verified)
            if proper and changed.size:
                seg_ids, flat = self.delta.gather(changed)
                proper = not (colors[changed][seg_ids] == colors[flat]).any()
        return None if proper else "monochromatic edge survived repair"

    def _assert_proper(self, context: str) -> None:
        """Raise :class:`RepairError` on an invariant miss, after a full
        edge scan (the stream-end check of :meth:`run`)."""
        problem = self._check_proper()
        if problem is not None:
            raise RepairError(f"{context}: {problem}")
