"""Tests for the always-on coloring service (repro.serve).

The load-bearing property mirrors the tracer's: serving a workload
through the open-loop driver -- tracer bound, arrivals attached --
must be *bitwise-invisible* relative to pushing the same stream through
``run_stream`` bare: same colors, same per-op ledger, same RNG end
state, same deterministic metrics.  The rest covers the virtual-clock
queueing model, arrival-schedule generation, the SLO algebra, and the
service fields' round trip through runner -> artifact -> compare.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic.harness import exact_percentiles, run_stream
from repro.observe import Tracer
from repro.serve import (
    ColoringService,
    DEFAULT_SLOS,
    SLOTarget,
    evaluate_slos,
    parse_slo,
    render_slo_report,
    run_service,
)
from repro.workloads.streams import (
    ARRIVAL_PROFILES,
    arrival_offsets,
    sliding_window_stream,
)


def small_workload(profile=None, rate=500.0, batches=6, seed=3):
    return sliding_window_stream(
        np.random.default_rng(seed),
        n_vertices=150,
        batches=batches,
        arrival_profile=profile,
        arrival_rate=rate,
    )


class TestArrivalOffsets:
    def test_offsets_nondecreasing_and_deterministic(self):
        updates = [40, 40, 40, 40]
        for profile in ARRIVAL_PROFILES:
            a = arrival_offsets(
                np.random.default_rng(1), updates, profile=profile
            )
            b = arrival_offsets(
                np.random.default_rng(1), updates, profile=profile
            )
            assert a == b
            assert all(x <= y for x, y in zip(a, a[1:]))
            assert len(a) == len(updates)

    def test_constant_profile_is_pure_rate(self):
        a = arrival_offsets(
            np.random.default_rng(0), [100, 50], profile="constant",
            updates_per_sec=100.0,
        )
        assert a == pytest.approx([1.0, 1.5])

    def test_diurnal_modulates_but_spends_no_rng(self):
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        a = arrival_offsets(
            rng, [10] * 8, profile="diurnal", updates_per_sec=100.0
        )
        assert rng.bit_generator.state == before  # only spiky draws
        gaps = np.diff([0.0] + a)
        assert gaps.min() < gaps.max()  # rate actually varies

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown arrival profile"):
            arrival_offsets(np.random.default_rng(0), [1], profile="square")
        with pytest.raises(ValueError, match="updates_per_sec"):
            arrival_offsets(
                np.random.default_rng(0), [1], updates_per_sec=0.0
            )

    def test_profile_none_leaves_workload_bitwise_unchanged(self):
        bare = small_workload(profile=None)
        shaped = small_workload(profile="diurnal")
        assert bare.arrivals is None
        assert shaped.arrivals is not None
        # batches must be identical event-for-event: arrivals are computed
        # after generation, from a rng the batch path never touched
        assert len(bare.batches) == len(shaped.batches)
        for b1, b2 in zip(bare.batches, shaped.batches):
            assert [
                (u.kind, u.u, u.v) for u in b1.in_application_order()
            ] == [(u.kind, u.u, u.v) for u in b2.in_application_order()]


class TestServiceLifecycle:
    def test_requires_stream_workload(self):
        class Fake:
            name = "static"

        with pytest.raises(ValueError, match="no update stream"):
            ColoringService(Fake())

    def test_step_before_start_and_double_start(self):
        service = ColoringService(small_workload())
        with pytest.raises(RuntimeError, match="not started"):
            service.step()
        service.start()
        with pytest.raises(RuntimeError, match="already started"):
            service.start()
        service.stop()
        with pytest.raises(RuntimeError, match="already consumed"):
            service.start()

    def test_run_serves_whole_trace(self):
        service = ColoringService(small_workload(profile="diurnal"))
        entries = service.run()
        assert len(entries) == 6
        assert service.remaining == 0
        assert not service.running
        with pytest.raises(RuntimeError, match="exhausted"):
            service._running = True
            service.step()

    def test_collect_before_start_raises(self):
        service = ColoringService(small_workload())
        with pytest.raises(RuntimeError, match="nothing to collect"):
            service.collect()


class TestVirtualClock:
    def test_backtoback_arrivals_queue_behind_service(self):
        # no arrival schedule: every batch arrives at t=0, so batch i
        # queues for exactly the total service time of batches 0..i-1
        service = ColoringService(small_workload(profile=None))
        service.run()
        elapsed = 0.0
        for entry in service.entries:
            assert entry.arrival_s == 0.0
            assert entry.start_s == pytest.approx(elapsed)
            assert entry.queue_s == pytest.approx(elapsed)
            assert entry.latency_s == pytest.approx(elapsed + entry.service_s)
            elapsed += entry.service_s

    def test_sparse_arrivals_never_queue(self):
        workload = small_workload(profile="constant", rate=0.5)  # minutes apart
        service = ColoringService(workload)
        service.run()
        for entry in service.entries:
            assert entry.queue_s == 0.0
            assert entry.start_s == entry.arrival_s
        metrics = service.collect()
        assert metrics["queue_ms_p99"] == 0.0
        # trace-clock throughput counts the idle gaps
        assert metrics["updates_per_sec"] == pytest.approx(
            metrics["stream_updates"] / service.entries[-1].completion_s,
            rel=0.05,
        )

    def test_arrival_length_mismatch_rejected(self):
        workload = small_workload(profile="diurnal")
        workload.arrivals = workload.arrivals[:-1]
        with pytest.raises(ValueError, match="arrival schedule covers"):
            ColoringService(workload)


class TestBitwiseInvisibility:
    def test_service_matches_bare_run_stream(self):
        seed = 11
        bare = small_workload(profile=None, seed=7)
        engine, result, metrics = run_stream(bare, seed=seed)

        shaped = small_workload(profile="spiky", seed=7)
        tracer = Tracer()
        service, service_metrics = run_service(
            shaped, seed=seed, tracer=tracer
        )

        assert (engine.colors == service.engine.colors).all()
        assert (
            engine.rng.bit_generator.state
            == service.engine.rng.bit_generator.state
        )
        assert engine.ledger.summary() == service.engine.ledger.summary()
        wall_like = (
            "wall",
            "_ms_",
            "per_sec",
            "duration",
            "batch_wall_times_s",
        )
        skip = ("slo", "slo_pass", "slo_failed", "arrival_profile",
                "arrival_rate")
        det = lambda d: {  # noqa: E731
            k: v
            for k, v in d.items()
            if not any(w in k for w in wall_like) and k not in skip
        }
        assert det(metrics) == det(service_metrics)

    def test_percentiles_share_one_source_of_truth(self):
        _, result, metrics = run_stream(small_workload(), seed=0)
        walls_ms = [t * 1000.0 for t in metrics["batch_wall_times_s"]]
        assert len(walls_ms) == metrics["batches"]
        pcts = exact_percentiles(walls_ms)
        assert metrics["repair_ms_p99"] == pytest.approx(
            pcts["p99"], abs=1e-3
        )
        assert metrics["repair_ms_p50"] == pytest.approx(
            pcts["p50"], abs=1e-3
        )


class TestExactPercentiles:
    @given(
        st.lists(
            st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=400,
        )
    )
    @settings(max_examples=100)
    def test_matches_numpy(self, values):
        pcts = exact_percentiles(values)
        for q in (50, 95, 99):
            assert pcts[f"p{q}"] == float(np.percentile(values, q))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            exact_percentiles([])

    def test_single_sample(self):
        assert exact_percentiles([7.0]) == {"p50": 7.0, "p95": 7.0, "p99": 7.0}


class TestSLO:
    def test_parse_slo(self):
        t = parse_slo("repair_ms_p99<=250")
        assert t == SLOTarget("repair_ms_p99", "max", 250.0)
        t = parse_slo("updates_per_sec >= 10")
        assert t.bound == "min" and t.threshold == 10.0
        for bad in ("nonsense", "<=5", "x<=y"):
            with pytest.raises(ValueError):
                parse_slo(bad)

    def test_evaluate_and_render(self):
        metrics = {"repair_ms_p99": 100.0, "violation_batches": 0}
        report = evaluate_slos(metrics, DEFAULT_SLOS)
        # updates_per_sec is absent from the metrics -> counted as a miss
        assert not report.passed
        missing = [r for r in report.results if r.observed is None]
        assert len(missing) == 1 and not missing[0].ok
        text = render_slo_report(report)
        assert "MISSED" in text and "repair_ms_p99" in text

    def test_bound_direction(self):
        assert SLOTarget("x", "max", 5.0).check(5.0)
        assert not SLOTarget("x", "max", 5.0).check(5.1)
        assert SLOTarget("x", "min", 5.0).check(5.0)
        assert not SLOTarget("x", "min", 5.0).check(4.9)
        with pytest.raises(ValueError, match="bound"):
            SLOTarget("x", "between", 5.0)

    def test_service_slo_round_trip(self):
        _, metrics = run_service(
            small_workload(profile="constant"),
            slos=(SLOTarget("violation_batches", "max", 0.0),),
        )
        assert metrics["slo_pass"] is True
        assert metrics["slo_failed"] == 0
        assert metrics["slo"]["targets"][0]["ok"] is True


class TestExperimentIntegration:
    @pytest.fixture(scope="class")
    def artifact(self, tmp_path_factory):
        from repro.experiments.runner import run_sweep
        from repro.experiments.spec import ScenarioSpec, WorkloadSpec
        from repro.experiments.artifacts import read_artifact

        spec = ScenarioSpec(
            name="service_test",
            workloads=(
                WorkloadSpec.of(
                    "sliding_window",
                    n_vertices=150,
                    batches=5,
                    arrival_profile="constant",
                    arrival_rate=400.0,
                ),
            ),
            algorithms=("service",),
        )
        path, records = run_sweep(
            spec, out_path=tmp_path_factory.mktemp("art") / "a.jsonl",
            trace=True,
        )
        return read_artifact(path)

    def test_service_cell_metrics(self, artifact):
        (record,) = artifact.ok_records()
        m = record["metrics"]
        assert m["proper"] is True
        assert m["violation_batches"] == 0
        for key in (
            "repair_ms_p50", "repair_ms_p95", "repair_ms_p99",
            "queue_ms_p99", "latency_ms_p99", "updates_per_sec",
            "slo_pass", "trace_duration_s",
        ):
            assert key in m, key
        span_names = {s["name"] for s in record["trace"]["spans"]}
        assert "service.batch" in span_names
        assert "service.collect" in span_names

    def test_compare_gates_violation_batches(self, artifact):
        import copy

        from repro.experiments.compare import compare_artifacts

        same = compare_artifacts(artifact, artifact)
        assert same.exit_code == 0
        broken = copy.deepcopy(artifact)
        broken.records[0]["metrics"]["violation_batches"] = 2
        report = compare_artifacts(artifact, broken)
        assert report.exit_code == 1
        assert any(
            d.metric == "violation_batches" for d in report.regressions
        )
