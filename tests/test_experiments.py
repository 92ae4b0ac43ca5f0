"""The experiment orchestration subsystem: specs, runner, artifacts, gating."""

import dataclasses
import json
import pathlib
import re
import signal
import time

import numpy as np
import pytest

from repro.experiments import (
    SUITES,
    Cell,
    Claim,
    ScenarioSpec,
    WorkloadSpec,
    compare_artifacts,
    parse_tolerance_overrides,
    read_artifact,
    render_report,
    run_cell,
    run_suite,
    run_sweep,
    summarize,
    to_csv,
)
from repro.experiments.artifacts import Artifact, make_header, write_artifact
from repro.experiments.pool import (
    WatchdogTimeout,
    alarm_available,
    arm_alarm,
    disarm_alarm,
    scatter,
)

TINY = ScenarioSpec(
    name="tiny",
    workloads=(
        WorkloadSpec.of("figure1"),
        WorkloadSpec.of("low_degree", n_vertices=60, target_degree=4, cluster_size=1),
    ),
    seeds=(0, 1),
)


class TestSpec:
    def test_grid_expansion_is_cross_product(self):
        spec = ScenarioSpec(
            name="x",
            workloads=(WorkloadSpec.of("figure1"), WorkloadSpec.of("congest", n=50)),
            presets=("scaled",),
            regimes=("auto", "low_degree"),
            seeds=(0, 1, 2),
            instance_seeds=(7,),
        )
        cells = spec.cells()
        assert len(cells) == 2 * 2 * 3
        assert len({c.key() for c in cells}) == len(cells)

    @pytest.mark.parametrize("algorithm", ["service", "dynamc"])
    def test_unknown_algorithm_rejected_at_build(self, algorithm):
        # a stale or typo'd name fails when the spec is built, not after
        # every cell's workload has already been generated
        with pytest.raises(ValueError, match="unknown algorithm"):
            ScenarioSpec(
                name="t",
                workloads=(
                    WorkloadSpec.of("sliding_window", n_vertices=60, batches=2),
                ),
                algorithms=(algorithm,),
            )

    def test_expansion_is_deterministic(self):
        assert [c.key() for c in TINY.cells()] == [c.key() for c in TINY.cells()]
        assert TINY.spec_hash() == TINY.spec_hash()

    def test_spec_hash_tracks_grid_changes(self):
        other = ScenarioSpec(
            name="tiny", workloads=TINY.workloads, seeds=(0, 1, 2)
        )
        assert other.spec_hash() != TINY.spec_hash()

    def test_cell_key_ignores_suite_name(self):
        a = TINY.cells()[0]
        b = Cell.from_dict({**a.to_dict(), "suite": "renamed"})
        assert a.key() == b.key()

    def test_cell_dict_round_trip(self):
        for cell in TINY.cells():
            assert Cell.from_dict(cell.to_dict()) == cell

    def test_builtin_suites_expand(self):
        assert "smoke" in SUITES
        for name, spec in SUITES.items():
            cells = spec.cells()
            assert cells, name
            assert len({c.key() for c in cells}) == len(cells), name

    def test_builtin_suites_cover_every_paper_experiment(self):
        # each of E1-E15 has a suite or a lemma-level test_e{i}_* claim
        claims = (pathlib.Path(__file__).parent / "test_paper_claims.py").read_text()
        for i in range(1, 16):
            assert any(s.startswith(f"e{i}_") for s in SUITES) or (
                f"def test_e{i}_" in claims
            ), f"e{i} uncovered"

    def test_baseline_suite_has_algorithm_axis(self):
        algos = {c.algorithm for c in SUITES["e13_baselines"].cells()}
        assert algos == {"paper", "luby", "palette_sparsification", "local_gather"}

    def test_workload_level_instance_seed_overrides_grid(self):
        spec = ScenarioSpec(
            name="x",
            workloads=(
                WorkloadSpec.of("figure1", instance_seed=82),
                WorkloadSpec.of("congest", n=50),
            ),
            instance_seeds=(0, 1),
        )
        seeds = {(c.workload, c.instance_seed) for c in spec.cells()}
        assert seeds == {("figure1", 82), ("congest", 0), ("congest", 1)}

    def test_e15_suite_pins_historical_instances(self):
        # E15 has always measured planted_acd drawn with seed 81 and cabal
        # drawn with seed 82; the suite must keep those exact instances
        seeds = {
            (c.workload, c.instance_seed)
            for c in SUITES["e15_cross_regime"].cells()
        }
        assert seeds == {("planted_acd", 81), ("cabal", 82)}


class TestRunner:
    def test_run_cell_collects_metrics(self):
        record = run_cell(TINY.cells()[0].to_dict())
        assert record["status"] == "ok"
        m = record["metrics"]
        assert m["proper"] is True
        assert m["rounds_h"] > 0
        assert m["colors_used"] <= m["num_colors"]
        assert record["wall_time_s"] is not None

    def test_run_cell_is_deterministic(self):
        cell = TINY.cells()[2].to_dict()
        assert run_cell(cell)["metrics"] == run_cell(cell)["metrics"]

    def test_traced_run_cell_adds_trace_without_changing_metrics(self):
        cell = TINY.cells()[0].to_dict()
        plain = run_cell(cell)
        traced = run_cell(cell, None, True)
        assert traced["metrics"] == plain["metrics"]  # tracing is invisible
        assert "trace" not in plain
        spans = traced["trace"]["spans"]
        assert spans, "traced paper cell must carry top-level spans"
        assert sum(s["rounds_h"] for s in spans) == traced["metrics"]["rounds_h"]
        assert (
            sum(s["message_bits"] for s in spans)
            == traced["metrics"]["total_message_bits"]
        )
        json.dumps(traced)  # artifact-serializable

    def test_traced_baseline_cell_has_no_trace(self):
        cell = Cell.from_dict({**TINY.cells()[0].to_dict(), "algorithm": "luby"})
        record = run_cell(cell.to_dict(), None, True)
        assert record["status"] == "ok"
        assert "trace" not in record

    def test_traced_stream_cell_has_batch_spans(self):
        stream_cell = Cell(
            suite="t",
            workload="hotspot_churn",
            workload_kwargs=(),
            params="scaled",
            regime="auto",
            algorithm="dynamic",
            seed=0,
            instance_seed=0,
        )
        plain = run_cell(stream_cell.to_dict())
        traced = run_cell(stream_cell.to_dict(), None, True)
        wall_keys = {
            "bootstrap_wall_time_s",
            "stream_wall_time_s",
            # per-batch latency fields are wall-derived too
            "batch_wall_times_s",
            "updates_per_sec",
            "repair_ms_p50",
            "repair_ms_p95",
            "repair_ms_p99",
        }
        assert {k: v for k, v in traced["metrics"].items() if k not in wall_keys} \
            == {k: v for k, v in plain["metrics"].items() if k not in wall_keys}
        names = [s["name"] for s in traced["trace"]["spans"]]
        assert names[0] == "stream.bootstrap"
        batch_spans = [s for s in traced["trace"]["spans"]
                       if s["name"] == "stream.batch"]
        assert batch_spans
        assert (
            sum(s["rounds_h"] for s in batch_spans)
            == traced["metrics"]["rounds_h"]
        )

    def test_run_cell_captures_failures(self):
        bad = Cell(
            suite="t",
            workload="low_degree",
            workload_kwargs=(("no_such_kwarg", 1),),
            params="scaled",
            regime="auto",
            algorithm="paper",
            seed=0,
            instance_seed=0,
        )
        record = run_cell(bad.to_dict())
        assert record["status"] == "error"
        assert "no_such_kwarg" in record["error"]

    def test_run_cell_unknown_algorithm(self):
        bad = Cell.from_dict({**TINY.cells()[0].to_dict(), "algorithm": "magic"})
        record = run_cell(bad.to_dict())
        assert record["status"] == "error"
        assert "magic" in record["error"]

    def test_run_cell_timeout(self):
        slow = Cell(
            suite="t",
            workload="planted_acd",
            workload_kwargs=(),
            params="scaled",
            regime="auto",
            algorithm="paper",
            seed=0,
            instance_seed=0,
        )
        record = run_cell(slow.to_dict(), timeout_s=0.01)
        assert record["status"] == "timeout"

    def test_run_cell_with_timeout_off_main_thread(self):
        """signal.signal raises ValueError off the main thread; the runner
        must fall back to running without a watchdog instead of recording a
        bogus error cell."""
        import threading
        import warnings

        results = {}

        def work():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                results["record"] = run_cell(
                    TINY.cells()[0].to_dict(), timeout_s=60.0
                )
                results["warnings"] = [str(w.message) for w in caught]

        t = threading.Thread(target=work)
        t.start()
        t.join()
        record = results["record"]
        assert record["status"] == "ok"
        assert record["metrics"]["proper"] is True
        assert any("SIGALRM" in w for w in results["warnings"])

    def test_run_cell_budget_overrun_off_main_thread(self):
        """With no watchdog available, a cell that overruns its budget is
        flagged post-hoc as timeout-unsupported (metrics kept)."""
        import threading
        import warnings

        results = {}

        def work():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                results["record"] = run_cell(
                    TINY.cells()[0].to_dict(), timeout_s=1e-9
                )

        t = threading.Thread(target=work)
        t.start()
        t.join()
        record = results["record"]
        assert record["status"] == "timeout-unsupported"
        assert "SIGALRM" in record["error"]
        assert record["metrics"]["proper"] is True  # the cell did complete

    def test_baseline_algorithm_cell(self):
        cell = Cell.from_dict({**TINY.cells()[0].to_dict(), "algorithm": "luby"})
        record = run_cell(cell.to_dict())
        assert record["status"] == "ok"
        assert record["metrics"]["regime_effective"] == "baseline"
        assert record["metrics"]["proper"] is True

    def test_serial_suite_preserves_grid_order(self):
        lines = []
        records = run_suite(TINY, jobs=1, timeout_s=0, progress=lines.append)
        assert [r["key"] for r in records] == [c.key() for c in TINY.cells()]
        assert len(lines) == len(records)
        assert lines[-1].startswith(f"[{len(records)}/{len(records)}]")

    def test_parallel_pool_matches_serial(self):
        serial = run_suite(TINY, jobs=1, timeout_s=0)
        parallel = run_suite(TINY, jobs=2, timeout_s=0)
        assert [r["key"] for r in parallel] == [r["key"] for r in serial]
        assert [r["metrics"] for r in parallel] == [r["metrics"] for r in serial]

    def test_cell_after_timeout_still_runs_clean(self):
        # a timed-out cell must not leak its timer or poison module state
        slow = Cell(
            suite="t", workload="planted_acd", workload_kwargs=(),
            params="scaled", regime="auto", algorithm="paper",
            seed=0, instance_seed=0,
        )
        assert run_cell(slow.to_dict(), timeout_s=0.01)["status"] == "timeout"
        record = run_cell(TINY.cells()[0].to_dict(), timeout_s=60)
        assert record["status"] == "ok"

    def test_progress_line_handles_worker_death_record(self):
        # the fallback record for a dead pool worker has wall_time_s=None
        from repro.experiments.runner import _progress_line, error_summary

        record = {
            "kind": "cell",
            "key": "k",
            "cell": TINY.cells()[0].to_dict(),
            "status": "error",
            "metrics": {},
            "wall_time_s": None,
            "error": None,
        }
        line = _progress_line(record, 1, 2)
        assert "ERROR" in line
        assert error_summary(record["error"]) == "?"
        assert error_summary("  \n ") == "?"
        assert error_summary("a\nlast line") == "last line"


class TestArtifacts:
    def _sweep(self, tmp_path, name="a.jsonl"):
        return run_sweep(TINY, jobs=1, timeout_s=0, out_path=tmp_path / name)

    def test_round_trip(self, tmp_path):
        path, records = self._sweep(tmp_path)
        artifact = read_artifact(path)
        assert artifact.suite == "tiny"
        assert artifact.spec_hash == TINY.spec_hash()
        assert artifact.header["schema_version"] == 1
        assert len(artifact.records) == len(records)
        assert artifact.by_key().keys() == {r["key"] for r in records}

    def test_rejects_wrong_schema_version(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        header = make_header("x", "h")
        header["schema_version"] = 999
        write_artifact(path, header, [])
        with pytest.raises(ValueError, match="schema_version 999"):
            read_artifact(path)

    def test_rejects_headerless_file(self, tmp_path):
        path = tmp_path / "no_header.jsonl"
        path.write_text('{"kind": "cell", "key": "k"}\n')
        with pytest.raises(ValueError, match="no header"):
            read_artifact(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("[1, 2]", ":2: not a JSON object"),
            ('{"kind": "cell"}', ":2: cell record needs"),
            ('{"kind": "cell", "key": "k", "cell": [], "status": "ok"}',
             ":2: cell record needs"),
            ('{"kind": "cell", "key": "k", "cell": {}}', ":2: cell record needs"),
        ],
        ids=["list", "bare_cell", "cell_not_object", "no_status"],
    )
    def test_rejects_malformed_line(self, tmp_path, line, message):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(make_header("x", "h")) + "\n" + line + "\n")
        with pytest.raises(ValueError, match=f"bad.jsonl{message}"):
            read_artifact(path)

    def test_csv_export(self, tmp_path):
        path, _ = self._sweep(tmp_path)
        out = to_csv(read_artifact(path), tmp_path / "cells.csv")
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + len(TINY.cells())
        assert lines[0].startswith("suite,workload,params,regime,algorithm")

    def test_summarize_groups_and_percentiles(self, tmp_path):
        path, _ = self._sweep(tmp_path)
        rows = summarize(read_artifact(path))
        assert len(rows) == 2  # two workloads, one preset/regime/algorithm
        for row in rows:
            assert row["n"] == 2
            assert row["failed"] == 0
            assert row["proper_rate"] == 1.0
            assert row["rounds_h_p50"] <= row["rounds_h_p95"]

    def test_summarize_separates_kwargs_variants(self):
        # size-sweep suites differ only in workload kwargs; grouping must
        # not average across problem sizes
        def rec(n_vertices, rounds):
            return {
                "kind": "cell",
                "key": f"k{n_vertices}",
                "cell": {"workload": "high_degree", "params": "scaled",
                         "regime": "auto", "algorithm": "paper",
                         "workload_kwargs": {"n_vertices": n_vertices}},
                "status": "ok",
                "metrics": {"rounds_h": rounds, "proper": True},
                "wall_time_s": 0.1,
            }

        artifact = Artifact(
            header=make_header("x", "h"),
            records=[rec(150, 10), rec(1200, 12)],
        )
        rows = summarize(artifact)
        assert len(rows) == 2
        assert [r["rounds_h_mean"] for r in rows] == [12, 10] or [
            r["rounds_h_mean"] for r in rows
        ] == [10, 12]

    def test_summarize_rows_are_homogeneous(self):
        # format_table takes headers from the first row; a group with no ok
        # cells must still carry every stat column (blank, not missing)
        failed = {
            "kind": "cell",
            "key": "k1",
            "cell": {"workload": "aaa", "params": "scaled", "regime": "auto",
                     "algorithm": "paper", "workload_kwargs": {}},
            "status": "error",
            "metrics": {},
            "wall_time_s": None,
        }
        ok = {
            "kind": "cell",
            "key": "k2",
            "cell": {"workload": "zzz", "params": "scaled", "regime": "auto",
                     "algorithm": "paper", "workload_kwargs": {}},
            "status": "ok",
            "metrics": {"rounds_h": 5, "proper": True},
            "wall_time_s": 0.1,
        }
        rows = summarize(Artifact(header=make_header("x", "h"), records=[failed, ok]))
        assert rows[0]["workload"] == "aaa"  # sorts first, all-failed
        assert set(rows[0]) == set(rows[1])
        assert rows[1]["rounds_h_mean"] == 5

    def test_summarize_counts_failed_cells(self):
        artifact = Artifact(
            header=make_header("x", "h"),
            records=[
                {
                    "kind": "cell",
                    "key": "k1",
                    "cell": {"workload": "w", "params": "scaled", "regime": "auto",
                             "algorithm": "paper"},
                    "status": "error",
                    "metrics": {},
                    "wall_time_s": None,
                }
            ],
        )
        rows = summarize(artifact)
        assert rows[0]["failed"] == 1
        assert rows[0]["n"] == 0


class TestCompare:
    def _artifact(self, tmp_path, name):
        path, _ = run_sweep(TINY, jobs=1, timeout_s=0, out_path=tmp_path / name)
        return read_artifact(path)

    def test_identical_artifacts_pass(self, tmp_path):
        artifact = self._artifact(tmp_path, "base.jsonl")
        report = compare_artifacts(artifact, artifact)
        assert report.exit_code == 0
        assert report.regressions == []
        assert report.compared_cells == len(TINY.cells())
        assert "OK" in render_report(report)

    def test_regression_detected_and_gated(self, tmp_path):
        base = self._artifact(tmp_path, "base.jsonl")
        cand = self._artifact(tmp_path, "cand.jsonl")
        cand.records[0]["metrics"]["rounds_h"] *= 10
        report = compare_artifacts(base, cand)
        assert report.exit_code == 1
        assert [d.metric for d in report.regressions] == ["rounds_h"]
        assert "REGRESSION" in render_report(report)

    def test_within_tolerance_passes(self, tmp_path):
        base = self._artifact(tmp_path, "base.jsonl")
        cand = self._artifact(tmp_path, "cand.jsonl")
        cand.records[0]["metrics"]["rounds_h"] *= 10
        report = compare_artifacts(base, cand, {"rounds_h": 100.0})
        assert report.exit_code == 0

    def test_properness_loss_is_a_regression(self, tmp_path):
        base = self._artifact(tmp_path, "base.jsonl")
        cand = self._artifact(tmp_path, "cand.jsonl")
        cand.records[0]["metrics"]["proper"] = False
        report = compare_artifacts(base, cand)
        assert report.exit_code == 1
        assert report.improperly_colored

    def test_newly_failed_cell_is_a_regression(self, tmp_path):
        base = self._artifact(tmp_path, "base.jsonl")
        cand = self._artifact(tmp_path, "cand.jsonl")
        cand.records[0]["status"] = "error"
        report = compare_artifacts(base, cand)
        assert report.exit_code == 1
        assert report.newly_failed

    def test_missing_cells_reported_not_gated(self, tmp_path):
        base = self._artifact(tmp_path, "base.jsonl")
        cand = self._artifact(tmp_path, "cand.jsonl")
        del cand.records[0]
        report = compare_artifacts(base, cand)
        assert len(report.missing_cells) == 1
        assert report.exit_code == 0

    def test_tolerance_override_parsing(self):
        tolerances = parse_tolerance_overrides(["rounds_h=0.5", "fallbacks=2"])
        assert tolerances["rounds_h"] == 0.5
        assert tolerances["fallbacks"] == 2.0
        assert tolerances["total_message_bits"] == 0.05  # default kept
        with pytest.raises(ValueError):
            parse_tolerance_overrides(["rounds_h"])

    def test_tolerance_override_rejects_unknown_metric(self):
        # a typo'd metric name must not silently disable a gate
        with pytest.raises(ValueError, match="unknown gateable metric"):
            parse_tolerance_overrides(["round_h=0.05"])
        with pytest.raises(ValueError, match="unknown gateable metric"):
            parse_tolerance_overrides(["wall_time_s=0.1"])  # record-level, ungated


class TestCliIntegration:
    def test_sweep_report_compare_loop(self, tmp_path, capsys):
        from repro.cli import main

        artifact = tmp_path / "smoke.jsonl"
        code = main(
            ["sweep", "--suite", "smoke", "--jobs", "1", "--quiet",
             "--out", str(artifact)]
        )
        assert code == 0
        assert "artifact:" in capsys.readouterr().out
        assert artifact.exists()

        code = main(["report", str(artifact), "--csv", str(tmp_path / "out.csv")])
        out = capsys.readouterr().out
        assert code == 0
        assert "suite=smoke" in out
        assert (tmp_path / "out.csv").exists()

        code = main(["compare", str(artifact), str(artifact)])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 metric regressions" in out

    def test_workloads_json(self, capsys):
        from repro.cli import main
        from repro.workloads import GENERATORS

        assert main(["workloads", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {r["name"] for r in rows} == set(GENERATORS)
        for row in rows:
            assert row["machines"] > 0

    def test_unknown_suite_rejected(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--suite", "nope"])


def _claim_spec(*claims, seeds=(0,)):
    return ScenarioSpec(
        name="tiny_claims",
        workloads=(WorkloadSpec.of("figure1"),),
        seeds=seeds,
        claims=claims,
    )


HELD = Claim("every cell proper", "Theorem 9.9", lambda rs: all(
    r["metrics"]["proper"] for r in rs
))
MISSED = Claim("rounds_h below one", "Lemma 0.1", lambda rs: all(
    r["metrics"]["rounds_h"] < 1 for r in rs
))


class TestClaims:
    def _sweep_and_report(self, monkeypatch, tmp_path, spec):
        from repro.cli import main

        monkeypatch.setitem(SUITES, spec.name, spec)
        artifact = tmp_path / "claims.jsonl"
        sweep_code = main(
            ["sweep", "--suite", spec.name, "--quiet", "--out", str(artifact)]
        )
        report_code = main(["report", str(artifact)])
        return sweep_code, report_code

    def test_missed_claim_fails_sweep_and_report(self, monkeypatch, tmp_path, capsys):
        codes = self._sweep_and_report(monkeypatch, tmp_path, _claim_spec(HELD, MISSED))
        assert codes == (1, 1)
        out = capsys.readouterr().out
        missed = "claim MISSED: rounds_h below one (Lemma 0.1)"
        held = "claim held: every cell proper (Theorem 9.9)"
        assert out.count(missed) == 2  # once from sweep, once from report
        assert out.count(held) == 2

    def test_held_claims_exit_zero(self, monkeypatch, tmp_path, capsys):
        codes = self._sweep_and_report(monkeypatch, tmp_path, _claim_spec(HELD))
        assert codes == (0, 0)
        assert "MISSED" not in capsys.readouterr().out

    def test_failed_cell_fails_sweep(self, monkeypatch, tmp_path, capsys):
        # a stream algorithm on a static workload errors in its cell
        spec = dataclasses.replace(
            _claim_spec(HELD),
            workloads=(WorkloadSpec.of("congest", n=30),),
            algorithms=("dynamic",),
        )
        assert self._sweep_and_report(monkeypatch, tmp_path, spec)[0] == 1
        assert "  error: congest -- " in capsys.readouterr().out

    def test_report_skips_claims_of_another_grid(self, monkeypatch, tmp_path, capsys):
        from repro.cli import main

        older = _claim_spec(seeds=(0, 1))
        path, _ = run_sweep(older, jobs=1, timeout_s=0, out_path=tmp_path / "old.jsonl")
        monkeypatch.setitem(SUITES, "tiny_claims", _claim_spec(MISSED))
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "claims not checked" in out
        assert "MISSED" not in out

    def test_raising_predicate_is_a_miss(self):
        held, line = SUITES["e1_rounds_high_degree"].claims[1].verdict([])
        assert not held
        assert "MISSED" in line and "ValueError" in line

    def test_e1_bound_is_strict(self):
        def records(small, large):
            return [
                {"cell": {"algorithm": "paper", "workload_kwargs": {"n_vertices": n}},
                 "metrics": {"rounds_h": r}}
                for n, r in ((150, small), (1200, large))
            ]

        claim = SUITES["e1_rounds_high_degree"].claims[1]
        assert claim.verdict(records(100, 139))[0]
        assert not claim.verdict(records(100, 140))[0]

    def test_claims_leave_the_spec_hash_alone(self):
        for spec in SUITES.values():
            assert dataclasses.replace(spec, claims=()).spec_hash() == spec.spec_hash()

    def test_every_claim_suite_runs_in_ci(self):
        ci = (pathlib.Path(__file__).parents[1] / ".github/workflows/ci.yml").read_text()
        swept = set(re.findall(r"--suite\s+(\w+)", ci))
        for names in re.findall(r"for suite in (.*?); do", ci, re.S):
            swept.update(names.replace("\\", " ").split())
        claimed = {name for name, spec in SUITES.items() if spec.claims}
        assert claimed
        assert claimed <= swept, f"claims but no CI sweep: {sorted(claimed - swept)}"

    # the hetnet suite's claims: net knobs never move the algorithm, and
    # a skewed fabric shows on the simulated clock

    def _hetnet_verdicts(self, records):
        return SUITES["hetnet"].check_claims(records)

    def test_hetnet_claims_hold_on_a_clean_grid(self):
        verdicts = self._hetnet_verdicts(_hetnet_grid())
        assert [held for held, _ in verdicts] == [True, True]

    def test_perturbed_digest_misses_invisibility(self):
        records = _hetnet_grid()
        records[-1]["metrics"]["coloring_digest"] = "different"
        (held, line), (sensitive, _) = self._hetnet_verdicts(records)
        assert not held and line.startswith("claim MISSED: coloring_digest")
        assert sensitive

    def test_net_knobs_do_not_split_a_group(self):
        # two instances may differ; cells that differ only in net knobs may not
        records = _hetnet_grid(n=40, digest="a") + _hetnet_grid(n=80, digest="b")
        assert self._hetnet_verdicts(records)[0][0]
        records[0]["metrics"]["rounds_h"] += 1
        held, line = self._hetnet_verdicts(records)[0]
        assert not held and "claim MISSED" in line

    def test_flat_makespan_misses_sensitivity(self):
        records = _hetnet_grid(makespan=lambda skew, fill: 42.0)
        (invisible, _), (held, line) = self._hetnet_verdicts(records)
        assert invisible
        assert not held and line.startswith("claim MISSED: makespan_ms")

    def test_grid_without_skew_one_is_a_miss(self):
        records = [r for r in _hetnet_grid()
                   if r["cell"]["workload_kwargs"]["net_skew"] != 1.0]
        held, line = self._hetnet_verdicts(records)[1]
        assert not held and "claim MISSED" in line and "KeyError" in line

    def test_missing_makespan_is_a_miss(self):
        records = _hetnet_grid()
        del records[0]["metrics"]["makespan_ms"]
        held, line = self._hetnet_verdicts(records)[1]
        assert not held and "claim MISSED" in line and "KeyError" in line

    def test_no_records_miss_both_hetnet_claims(self):
        verdicts = self._hetnet_verdicts([])
        assert [held for held, _ in verdicts] == [False, False]
        assert all("claim MISSED" in line for _, line in verdicts)


def _hetnet_grid(*, n=40, digest="d0", makespan=lambda skew, fill: skew * fill):
    """Ok records of one instance across the hetnet skew x fill grid."""
    from repro.experiments.spec import HETNET_FILLS, HETNET_SKEWS

    return [
        {
            "status": "ok",
            "cell": Cell(
                suite="hetnet", workload="congest",
                workload_kwargs=(("n", n), ("net_fill", fill), ("net_skew", skew)),
                params="scaled", regime="auto", algorithm="paper",
                seed=0, instance_seed=0,
            ).to_dict(),
            "metrics": {
                "coloring_digest": digest,
                "rounds_h": 10,
                "total_message_bits": 500,
                "makespan_ms": makespan(skew, fill),
            },
        }
        for skew in HETNET_SKEWS
        for fill in HETNET_FILLS
    ]


class TestWorkloadRegistry:
    def test_figure1_accepts_rng(self):
        from repro.workloads import GENERATORS, figure1_example

        with_rng = figure1_example(np.random.default_rng(0))
        without = figure1_example()
        assert with_rng.graph.n_machines == without.graph.n_machines
        assert GENERATORS["figure1"] is figure1_example

    def test_registry_signatures_uniform(self):
        from repro.workloads import GENERATORS

        for name, maker in GENERATORS.items():
            w = maker(np.random.default_rng(0))
            assert w.graph.n_vertices > 0, name


class TestStreamCells:
    """Stream algorithms flow through the same cell/artifact machinery."""

    def test_stream_suites_registered(self):
        assert "stream" in SUITES
        assert "stream_smoke" in SUITES
        for name in ("stream", "stream_smoke"):
            algos = {c.algorithm for c in SUITES[name].cells()}
            assert algos == {"dynamic", "recolor_scratch"}

    def test_dynamic_cell_executes(self):
        cell = Cell(
            suite="t", workload="sliding_window",
            workload_kwargs=(("batches", 3), ("n_vertices", 60)),
            params="scaled", regime="auto", algorithm="dynamic",
            seed=0, instance_seed=0,
        )
        record = run_cell(cell.to_dict(), timeout_s=60)
        assert record["status"] == "ok"
        m = record["metrics"]
        assert m["proper"] is True
        assert m["regime_effective"] == "stream"
        assert m["batches"] == 3
        assert 0.0 <= m["recolor_fraction_mean"] <= 1.0

    def test_scratch_cell_recolors_everything(self):
        cell = Cell(
            suite="t", workload="sliding_window",
            workload_kwargs=(("batches", 2), ("n_vertices", 60)),
            params="scaled", regime="auto", algorithm="recolor_scratch",
            seed=0, instance_seed=0,
        )
        record = run_cell(cell.to_dict(), timeout_s=60)
        assert record["status"] == "ok"
        assert record["metrics"]["recolor_fraction_mean"] == 1.0

    def test_stream_algorithm_on_static_workload_errors(self):
        cell = Cell(
            suite="t", workload="congest", workload_kwargs=(("n", 30),),
            params="scaled", regime="auto", algorithm="dynamic",
            seed=0, instance_seed=0,
        )
        record = run_cell(cell.to_dict(), timeout_s=60)
        assert record["status"] == "error"
        assert "no update stream" in record["error"]

    @pytest.fixture(scope="class")
    def stream_artifact(self, tmp_path_factory):
        cell = Cell(
            suite="t", workload="cluster_churn",
            workload_kwargs=(("batches", 2), ("n_vertices", 60)),
            params="scaled", regime="auto", algorithm="dynamic",
            seed=0, instance_seed=0,
        )
        record = run_cell(cell.to_dict(), timeout_s=60)
        path = tmp_path_factory.mktemp("stream") / "stream.jsonl"
        write_artifact(path, make_header("t", "abc"), [record])
        return read_artifact(path)

    def test_stream_metrics_survive_artifact_roundtrip(
        self, stream_artifact, tmp_path
    ):
        artifact = stream_artifact
        assert artifact.records[0]["metrics"]["batches"] == 2
        rows = summarize(artifact)
        assert rows[0]["recolor_fraction_mean_mean"] != ""
        csv_path = to_csv(artifact, tmp_path / "stream.csv")
        header = csv_path.read_text().splitlines()[0]
        assert "recolor_fraction_mean" in header
        assert "stream_wall_time_s" in header

    def test_compare_gates_violation_batches(self, stream_artifact):
        import copy

        same = compare_artifacts(stream_artifact, stream_artifact)
        assert same.exit_code == 0
        broken = copy.deepcopy(stream_artifact)
        broken.records[0]["metrics"]["violation_batches"] = 2
        report = compare_artifacts(stream_artifact, broken)
        assert report.exit_code == 1
        assert any(
            d.metric == "violation_batches" for d in report.regressions
        )


# ---- pool machinery (repro.experiments.pool) --------------------------------


def _square(x):
    return x * x


def _boom(x):
    raise RuntimeError(f"boom {x}")


class TestScatter:
    def test_results_cover_all_payloads(self):
        got = dict()
        for index, result, error in scatter(
            _square, [(i,) for i in range(6)], jobs=2
        ):
            assert error is None
            got[index] = result
        assert got == {i: i * i for i in range(6)}

    def test_errors_are_captured_not_raised(self):
        triples = list(scatter(_boom, [(1,)], jobs=1))
        assert len(triples) == 1
        index, result, error = triples[0]
        assert index == 0 and result is None
        assert "boom 1" in error


class TestWatchdog:
    def test_alarm_available_on_main_thread(self):
        assert alarm_available() == hasattr(signal, "SIGALRM")

    @pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="no SIGALRM")
    def test_arm_alarm_interrupts(self):
        previous = arm_alarm(0.05)
        try:
            with pytest.raises(WatchdogTimeout):
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    pass
        finally:
            disarm_alarm()
            signal.signal(signal.SIGALRM, previous)
