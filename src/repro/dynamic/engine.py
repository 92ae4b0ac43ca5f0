"""The streaming update engine: colorings maintained under churn.

:class:`DynamicColoring` holds a conflict graph (as a delta-buffered CSR
plus cluster metadata) and a proper coloring, and absorbs
:class:`~repro.dynamic.updates.UpdateBatch` objects one at a time.  Each
batch is applied structurally, then only the *conflict frontier* -- vertices
whose color became invalid (monochromatic new edge, palette-bound violation,
merge collision) or who have no color yet (arrivals, split halves) -- is
repaired with the same batched TryColor machinery the one-shot pipeline
runs on (:mod:`repro.graphcore` kernels over the delta-aware gathers).

This mirrors the decentralized-repair reading of the paper's model: a
vertex reacts to conflicts it can observe locally, with every palette probe
and proposal round charged to a :class:`~repro.network.ledger.BandwidthLedger`
exactly as the static stages charge theirs.  When repair would touch more
than ``escalate_fraction`` of the graph (or sequential completion gets
stuck), the engine concedes and recolors from scratch through
:func:`repro.color_cluster_graph` -- recorded, never silent.

The palette bound is maintained *tightly*: after every batch the palette is
``Delta + 1`` for the current maximum degree, so shrinking the graph shrinks
the palette (recoloring the now-out-of-range vertices) and growing it grows
the palette -- the invariant the dynamic tests assert batch by batch.
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
from repro.dynamic.updates import Update, UpdateBatch
from repro.dynamic.view import FrozenConflictGraph
from repro.network.ledger import BandwidthLedger
from repro.observe.tracer import NULL_TRACER
from repro.params import AlgorithmParameters, log2ceil, scaled


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
    proper: bool  #: checker-verified (True when verification is off)
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

    Parameters
    ----------
    graph:
        The initial :class:`~repro.cluster.cluster_graph.ClusterGraph`.
    params:
        Constants preset (default :func:`repro.params.scaled`).
    seed / rng:
        Randomness for the bootstrap coloring and all repair rounds.
    colors:
        Optional starting coloring (must be proper with ``Delta + 1``
        colors); when omitted the one-shot pipeline bootstraps one.
    mode:
        ``"repair"`` (incremental frontier repair, the engine proper) or
        ``"scratch"`` (apply updates structurally, then recolor everything
        each batch -- the baseline the experiments compare against).
    escalate_fraction:
        Frontier size (as a fraction of live vertices) beyond which repair
        concedes to a scratch recolor.
    rebuild_fraction:
        Delta-buffer compaction threshold (see :class:`DeltaCSR`).
    verify_each_batch:
        Run the vectorized properness checker after every batch and raise
        :class:`RepairError` on a miss (ground truth, not charged).
    tracer:
        Optional :class:`~repro.observe.tracer.Tracer`; the engine binds
        its stream ledger to it and wraps the bootstrap coloring plus every
        :meth:`apply` call in a span (``stream.bootstrap``,
        ``stream.batch[batch=i]``).  Tracing reads snapshots only -- traced
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
        rng: np.random.Generator | None = None,
        colors: np.ndarray | None = None,
        mode: str = "repair",
        escalate_fraction: float = 0.5,
        rebuild_fraction: float = 0.25,
        verify_each_batch: bool = True,
        tracer=None,
        netmodel=None,
    ):
        if mode not in ("repair", "scratch"):
            raise ValueError(f"unknown mode {mode!r}")
        self.params = params or scaled()
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self.mode = mode
        self.netmodel = netmodel
        self.escalate_fraction = escalate_fraction
        self.verify_each_batch = verify_each_batch
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # initial graph, kept for reporting static cell fields (sizes,
        # Delta, dilation at bootstrap); live topology is self.delta
        self.graph = graph
        self.delta = DeltaCSR(graph.csr, rebuild_fraction=rebuild_fraction)
        self.cluster_sizes = np.asarray(
            [graph.cluster_size(v) for v in range(graph.n_vertices)],
            dtype=np.int64,
        )
        self.tree_heights = np.asarray(
            [t.height for t in graph.trees], dtype=np.int64
        )
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
        if colors is None:
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
            colors = bootstrap.colors
        self.colors = np.asarray(colors, dtype=np.int64).copy()
        if self.colors.size != graph.n_vertices:
            raise ValueError(
                f"colors covers {self.colors.size} vertices; "
                f"graph has {graph.n_vertices}"
            )
        self._assert_proper("bootstrap")
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
        return int(self.cluster_sizes[self.delta.alive_mask].sum())

    @property
    def max_degree(self) -> int:
        """Current ``Delta``; the palette is re-tightened to ``Delta + 1``
        after every batch."""
        return self.delta.max_degree

    @property
    def dilation(self) -> int:
        """Max support-tree height over live clusters (estimated after
        merge/split; see ROADMAP)."""
        alive = self.delta.alive_mask
        if not alive.any():
            return 1
        return max(1, int(self.tree_heights[alive].max()))

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
        before = self.ledger.snapshot()
        dirty: set[int] = set()
        for update in batch.in_application_order():
            self._apply_update(update, dirty)
        # repairs run on the post-update network: charge them at the
        # dilation the batch's merges/splits/arrivals produced
        self.ledger.dilation = self.dilation
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
        elif dirty and len(dirty) > self.escalate_fraction * max(1, self.n_alive):
            self._recolor_scratch(op="stream_escalation")
            repaired = self.n_alive
            escalated = True
        else:
            repaired, repair_rounds, greedy_count, escalated = self._repair(
                sorted(dirty)
            )

        compacted = self.delta.maybe_compact()
        proper = True
        if self.verify_each_batch:
            # report a miss instead of raising: sweep cells and the CLI
            # surface proper=False the same graceful way static cells do
            proper = self._check_proper() is None
        after = self.ledger.snapshot()
        diff = before.diff(after)
        report = BatchReport(
            batch_index=len(self.reports),
            events=batch.counts(),
            dirty=len(dirty),
            repaired=repaired,
            recolor_fraction=repaired / max(1, self.n_alive),
            escalated=escalated,
            repair_rounds=repair_rounds,
            greedy_vertices=greedy_count,
            compacted=compacted,
            rounds_h=diff.rounds_h,
            message_bits=diff.total_message_bits,
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
        """Apply every batch of an iterable; returns the aggregate."""
        for batch in batches:
            self.apply(batch)
        return self.result()

    # ---- structural updates --------------------------------------------------

    def _apply_update(self, update: Update, dirty: set[int]) -> None:
        kind = update.kind
        if kind == "edge_delete":
            self.delta.delete_edge(update.u, update.v)
        elif kind == "edge_insert":
            self.delta.insert_edge(update.u, update.v)
            cu, cv = self.colors[update.u], self.colors[update.v]
            if cu == cv and cu != UNCOLORED:
                # local conflict resolution: the larger id backs off (the
                # mirror image of TryColor's smaller-ID-wins rule)
                dirty.add(max(update.u, update.v))
        elif kind == "vertex_remove":
            self.delta.remove_vertex(update.u)
            self.colors[update.u] = 0  # dead ids are edge-free; value is moot
            self.cluster_sizes[update.u] = 0
            self.tree_heights[update.u] = 0
        elif kind == "vertex_add":
            w = self._allocate_vertex(update.size)
            for x in update.edges:
                self.delta.insert_edge(w, int(x))
            dirty.add(w)
        elif kind == "cluster_merge":
            self._merge(update.u, update.v, dirty)
        elif kind == "cluster_split":
            self._split(update.u, update.edges, update.size, dirty)
        else:  # pragma: no cover - Update.__post_init__ rejects unknown kinds
            raise ValueError(f"unknown update kind {kind!r}")

    def _allocate_vertex(self, size: int) -> int:
        w = self.delta.add_vertex()
        size = max(1, int(size))
        self.cluster_sizes = np.append(self.cluster_sizes, size)
        # arrivals wire their machines as a star: height 1 for singletons
        # and pairs, 2 otherwise (leader + leaves)
        self.tree_heights = np.append(self.tree_heights, 1 if size <= 2 else 2)
        self.colors = np.append(self.colors, UNCOLORED)
        return w

    def _merge(self, u: int, v: int, dirty: set[int]) -> None:
        """``u`` absorbs ``v``; they must be H-adjacent (Definition 3.1:
        the merged machine set stays connected through a realizing link)."""
        if not self.delta.has_edge(u, v):
            raise ValueError(f"cannot merge non-adjacent clusters {u} and {v}")
        for x in self.delta.remove_vertex(v):
            if x != u and not self.delta.has_edge(u, x):
                self.delta.insert_edge(u, x)
        self.colors[v] = 0
        self.cluster_sizes[u] += self.cluster_sizes[v]
        self.cluster_sizes[v] = 0
        # support trees join across the realizing link: heights add
        self.tree_heights[u] = self.tree_heights[u] + self.tree_heights[v] + 1
        self.tree_heights[v] = 0
        cu = self.colors[u]
        if cu != UNCOLORED and bool(
            (self.colors[self.delta.neighbors(u)] == cu).any()
        ):
            dirty.add(u)

    def _split(
        self, u: int, moved: tuple[int, ...], size: int, dirty: set[int]
    ) -> None:
        """``u`` sheds ``size`` machines and the neighbors in ``moved`` into
        a fresh cluster; the halves stay linked by a new H-edge."""
        if int(self.cluster_sizes[u]) < 2:
            raise ValueError(
                f"cluster {u} has {int(self.cluster_sizes[u])} machine(s); "
                "splitting needs at least 2"
            )
        size = max(1, min(int(size), int(self.cluster_sizes[u]) - 1))
        w = self._allocate_vertex(size)
        self.tree_heights[w] = self.tree_heights[u]  # conservative carry-over
        self.cluster_sizes[u] -= size
        for x in moved:
            x = int(x)
            self.delta.delete_edge(u, x)
            self.delta.insert_edge(w, x)
        self.delta.insert_edge(u, w)
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

    def _check_proper(self) -> str | None:
        """Ground-truth check: every live vertex colored inside the palette
        and no monochromatic edge.  Returns a diagnosis string on a miss,
        ``None`` when the invariants hold."""
        alive = self.delta.alive_mask
        live_colors = self.colors[alive]
        if live_colors.size and (
            (live_colors < 0).any() or (live_colors >= self.num_colors).any()
        ):
            return f"colors outside palette [0, {self.num_colors})"
        edge_u, edge_v = self.delta.edge_arrays()
        if not is_proper_edges(edge_u, edge_v, self.colors):
            return "monochromatic edge survived repair"
        return None

    def _assert_proper(self, context: str) -> None:
        """Raise :class:`RepairError` on an invariant miss (the bootstrap
        contract: a caller-supplied starting coloring must be valid)."""
        problem = self._check_proper()
        if problem is not None:
            raise RepairError(f"{context}: {problem}")
