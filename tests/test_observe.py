"""Tests for the observability subsystem (repro.observe).

The load-bearing property is *bitwise invisibility*: enabling a tracer
must not change a single color, ledger counter, or RNG draw.  The golden
table (tests/test_golden_runs.py) pins that on every row, traced and
untraced.  This file covers span accounting (nesting, ledger attribution,
the stage-sum == ledger-total partition invariant); the ledger window
the spans read is tested in tests/test_network.py.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import color_cluster_graph
from repro.dynamic.harness import run_stream
from repro.network.ledger import BandwidthLedger
from repro.observe import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    aggregate_stage_rows,
    stage_rows,
)
from repro.workloads import GENERATORS, STREAMS

SLOW = settings(
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)


def make_ledger(**kw):
    kw.setdefault("bandwidth_bits", 64)
    return BandwidthLedger(**kw)


class TestTracerBasics:
    def test_spans_nest_and_serialize(self):
        ledger = make_ledger()
        tracer = Tracer()
        tracer.bind_ledger(ledger)
        with tracer.span("outer", phase=1) as outer:
            ledger.charge("a", 10)
            with tracer.span("inner"):
                ledger.charge("b", 20, rounds_h=2)
            outer.counter("things", 3)
        (top,) = tracer.spans
        assert top.name == "outer"
        assert top.tags == {"phase": 1}
        assert top.rounds_h == 3
        assert top.message_bits == 10 + 40
        assert top.counters == {"things": 3}
        (child,) = top.children
        assert child.name == "inner"
        assert child.rounds_h == 2
        assert child.message_bits == 40
        tree = tracer.to_dict()
        assert json.loads(json.dumps(tree)) == tree  # JSON-safe
        assert tree["spans"][0]["children"][0]["name"] == "inner"

    def test_unbound_tracer_records_wall_time_only(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        (span,) = tracer.spans
        assert span.wall_time_s >= 0
        assert span.rounds_h == 0 and span.message_bits == 0

    def test_bind_ledger_refuses_open_spans(self):
        tracer = Tracer()
        tracer.bind_ledger(make_ledger())
        with tracer.span("open"):
            with pytest.raises(RuntimeError):
                tracer.bind_ledger(make_ledger())

    def test_counter_targets_innermost_span(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner") as inner:
                inner.counter("hits", 2)
        (outer,) = tracer.spans
        assert outer.counters == {}
        assert outer.children[0].counters == {"hits": 2}

    def test_null_tracer_is_inert_singleton(self):
        assert isinstance(NULL_TRACER, NullTracer)
        span_a = NULL_TRACER.span("x", tag=1)
        span_b = NULL_TRACER.span("y")
        assert span_a is span_b  # shared no-op span: no per-call allocation
        with span_a as s:
            s.counter("ignored")
        NULL_TRACER.bind_ledger(make_ledger())  # accepted, ignored

    def test_stage_rows_accepts_tracer_and_dict(self):
        ledger = make_ledger()
        tracer = Tracer()
        tracer.bind_ledger(ledger)
        with tracer.span("stage", k=1):
            ledger.charge("op", 8)
        live = stage_rows(tracer)
        serialized = stage_rows(tracer.to_dict())
        for rows in (live, serialized):
            assert len(rows) == 1
            assert rows[0]["stage"] == "stage[k=1]"
            assert rows[0]["rounds_h"] == 1
            assert rows[0]["bits"] == 8
        assert stage_rows(None) == []

    def test_aggregate_merges_by_name(self):
        rows = [
            {"stage": "b[batch=0]", "wall_s": 1.0, "rounds_h": 2,
             "rounds_g": 4, "bits": 10, "max_bits": 5},
            {"stage": "b[batch=1]", "wall_s": 0.5, "rounds_h": 3,
             "rounds_g": 6, "bits": 20, "max_bits": 9},
        ]
        (merged,) = aggregate_stage_rows(rows)
        assert merged["stage"] == "b"
        assert merged["spans"] == 2
        assert merged["rounds_h"] == 5 and merged["bits"] == 30
        assert merged["max_bits"] == 9  # width merges by max, not sum
        assert merged["peak_rss_mb"] == 0.0  # rows without the field

    def test_spans_record_the_rss_high_water_mark(self):
        import resource

        tracer = Tracer()
        color_cluster_graph(
            GENERATORS["planted_acd"](np.random.default_rng(0)).graph,
            seed=0, tracer=tracer,
        )
        now = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for top in tracer.spans:
            for span in top.walk():
                assert 0.0 < span.peak_rss_mb <= now
                # a span exits after its children: its mark is no lower
                for child in span.children:
                    assert child.peak_rss_mb <= span.peak_rss_mb
        marks = [s.peak_rss_mb for s in tracer.spans]
        assert marks == sorted(marks)  # top-level spans close in order
        rows = aggregate_stage_rows(stage_rows(tracer.to_dict()))
        assert max(r["peak_rss_mb"] for r in rows) == pytest.approx(
            marks[-1], abs=0.05
        )


class TestSpanAccounting:
    """Property tests: random nested spans with random charges."""

    @SLOW
    @given(st.data())
    def test_children_sum_to_at_most_parent(self, data):
        ledger = make_ledger()
        tracer = Tracer()
        tracer.bind_ledger(ledger)

        def run_span(depth):
            n_children = data.draw(
                st.integers(0, 3 if depth < 2 else 0), label=f"children@{depth}"
            )
            with tracer.span(f"s{depth}") as span:
                for _ in range(data.draw(st.integers(0, 3), label="charges")):
                    ledger.charge(
                        "op",
                        data.draw(st.integers(0, 200), label="bits"),
                        rounds_h=data.draw(st.integers(0, 3), label="rounds"),
                        pipelined=True,
                    )
                for _ in range(n_children):
                    run_span(depth + 1)
            return span.record

        top = run_span(0)
        for record in top.walk():
            child_rounds = sum(c.rounds_h for c in record.children)
            child_bits = sum(c.message_bits for c in record.children)
            child_wall = sum(c.wall_time_s for c in record.children)
            assert child_rounds <= record.rounds_h
            assert child_bits <= record.message_bits
            assert child_wall <= record.wall_time_s + 1e-9
            # a child's max width can never exceed its parent's window max
            for c in record.children:
                assert c.max_message_bits <= record.max_message_bits

    @SLOW
    @given(st.data())
    def test_sibling_spans_partition_ledger(self, data):
        ledger = make_ledger()
        tracer = Tracer()
        tracer.bind_ledger(ledger)
        n_spans = data.draw(st.integers(1, 5))
        for i in range(n_spans):
            with tracer.span(f"stage{i}"):
                for _ in range(data.draw(st.integers(0, 4))):
                    ledger.charge(
                        "op",
                        data.draw(st.integers(0, 150)),
                        rounds_h=data.draw(st.integers(0, 2)),
                        pipelined=True,
                    )
        rows = stage_rows(tracer)
        assert sum(r["rounds_h"] for r in rows) == ledger.rounds_h
        assert sum(r["bits"] for r in rows) == ledger.total_message_bits
        assert max((r["max_bits"] for r in rows), default=0) == ledger.max_message_bits

    def test_mismatched_exit_raises(self):
        tracer = Tracer()
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(RuntimeError):
            outer.__exit__(None, None, None)  # LIFO violated
        inner.__exit__(None, None, None)

    def test_stream_batch_spans_nest_the_write_path(self):
        """Every ``stream.batch`` span holds the write path's four steps,
        in order, and they carry all of the batch's ledger charges."""
        workload = STREAMS["cluster_churn"](np.random.default_rng(2))
        tracer = Tracer()
        engine, _result, _metrics = run_stream(workload, seed=1, tracer=tracer)
        batches = [s for s in tracer.spans if s.name == "stream.batch"]
        assert len(batches) == len(engine.reports)
        for batch in batches:
            assert [c.name for c in batch.children] == [
                "stream.ingest",
                "stream.repair",
                "stream.compact",
                "stream.verify",
            ]
            assert sum(c.rounds_h for c in batch.children) == batch.rounds_h
            assert (
                sum(c.message_bits for c in batch.children) == batch.message_bits
            )
            assert (
                sum(c.wall_time_s for c in batch.children)
                <= batch.wall_time_s + 1e-9
            )


class TestPolylogSpans:
    def test_substages_are_children_of_the_polylog_span(self):
        graph = GENERATORS["cabal"](np.random.default_rng(0)).graph
        tracer = Tracer()
        result = color_cluster_graph(graph, seed=0, regime="polylog", tracer=tracer)
        (span,) = [s for s in tracer.spans if s.name == "polylog"]
        substages = ["polylog_acd", "polylog_slack", "polylog_sparse",
                     "polylog_noncabals", "polylog_cabals"]
        assert [c.name for c in span.children] == substages
        stages = result.stats.stage_rounds
        assert {c.name: c.rounds_h for c in span.children} == {
            name: stages[name] for name in substages
        }
        assert sum(c.rounds_h for c in span.children) == span.rounds_h
        assert span.rounds_h == stages["polylog"]
        acd = span.children[0]
        assert "acd.cabals" in [c.name for c in acd.children]
        assert sum(c.rounds_h for c in acd.children) == acd.rounds_h


class TestTracerNeutrality:
    """What a traced run's spans report agrees with its ledger (bitwise
    invisibility itself is pinned by the golden table)."""

    def test_traced_stage_sums_match_ledger(self):
        graph = GENERATORS["high_degree"](np.random.default_rng(7)).graph
        tracer = Tracer()
        result = color_cluster_graph(graph, seed=3, tracer=tracer)
        rows = stage_rows(tracer)
        names = [r["stage"] for r in rows]
        assert names == sorted(set(names), key=names.index)  # top-level only
        assert sum(r["rounds_h"] for r in rows) == result.rounds_h
        assert (
            sum(r["bits"] for r in rows)
            == result.ledger_summary["total_message_bits"]
        )
        # every recorded stage matches its span's rounds
        by_name = {r["stage"]: r for r in rows}
        for stage, rounds in result.stats.stage_rounds.items():
            assert by_name[stage]["rounds_h"] == rounds

    def test_acd_subspans_include_cabals_and_partition_the_acd_span(self):
        """On a run whose ACD finds cliques, cabal annotation has its own
        ``acd.cabals`` span beside the ComputeACD sub-phases, and the
        sub-spans together carry every round and bit of the ``acd`` span.
        The buddy predicate's four steps nest inside ``acd.buddy``."""
        graph = GENERATORS["planted_acd"](np.random.default_rng(7)).graph
        tracer = Tracer()
        color_cluster_graph(graph, rng=np.random.default_rng(1234), tracer=tracer)
        (acd,) = [s for s in tracer.spans if s.name == "acd"]
        assert acd.counters["cliques"] > 0
        assert [c.name for c in acd.children] == [
            "acd.buddy",
            "acd.count",
            "acd.components",
            "acd.repair",
            "acd.cabals",
        ]
        cabals = acd.children[-1]
        assert cabals.rounds_h > 0 and cabals.message_bits > 0
        assert sum(c.rounds_h for c in acd.children) == acd.rounds_h
        assert sum(c.message_bits for c in acd.children) == acd.message_bits
        # the buddy predicate's steps nest inside acd.buddy
        buddy = acd.children[0]
        assert [c.name for c in buddy.children] == [
            "acd.buddy.draw",
            "acd.buddy.maxima",
            "acd.buddy.planes",
            "acd.buddy.probes",
        ]
        assert sum(c.wall_time_s for c in buddy.children) <= buddy.wall_time_s

    def test_traced_stream_batches_match_ledger(self):
        workload = STREAMS["cluster_churn"](np.random.default_rng(2))
        tracer = Tracer()
        engine, _result, _metrics = run_stream(workload, seed=1, tracer=tracer)
        rows = stage_rows(tracer)
        bootstrap = [r for r in rows if r["stage"] == "stream.bootstrap"]
        assert len(bootstrap) == 1
        # bootstrap runs on the runtime's own ledger: wall time only
        assert bootstrap[0]["rounds_h"] == 0 and bootstrap[0]["bits"] == 0
        batch_rows = [r for r in rows if r["stage"].startswith("stream.batch")]
        assert len(batch_rows) == len(engine.reports)
        assert sum(r["rounds_h"] for r in batch_rows) == engine.ledger.rounds_h
        assert (
            sum(r["bits"] for r in batch_rows)
            == engine.ledger.total_message_bits
        )


class TestHetNetNeutrality:
    """The simulated clock a network model adds is attributed to spans.

    The model may only *add* ``makespan_ms`` / ``critical_link`` reporting
    (docs/NETWORK.md); the golden table pins that every coloring, per-op
    counter and RNG draw stays untouched.
    """

    def test_traced_spans_attribute_makespan(self):
        from repro.network import HetNetModel, HetNetSpec
        from repro.observe import aggregate_stage_rows

        graph = GENERATORS["congest"](np.random.default_rng(7)).graph
        model = HetNetModel.sample(
            graph, HetNetSpec(skew=10.0, fill=0.2), np.random.default_rng(5)
        )
        tracer = Tracer()
        result = color_cluster_graph(graph, seed=3, tracer=tracer, netmodel=model)
        rows = aggregate_stage_rows(stage_rows(tracer))
        total = sum(r["makespan_ms"] for r in rows)
        assert total == pytest.approx(
            result.ledger_summary["makespan_ms"], rel=1e-6
        )
        # homogeneous spans serialize without the field at all
        plain_tracer = Tracer()
        color_cluster_graph(graph, seed=3, tracer=plain_tracer)
        for span in plain_tracer.spans:
            assert "makespan_ms" not in span.to_dict()

