"""The command-line interface."""

import json

import pytest

from repro.cli import GENERATORS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_color_defaults(self):
        args = build_parser().parse_args(["color"])
        assert args.workload == "planted_acd"
        assert args.regime == "auto"

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["color", "--workload", "nope"])


class TestCommands:
    def test_color_runs(self, capsys):
        code = main(["color", "--workload", "figure1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "proper=True" in out
        assert "stage" in out

    def test_color_forced_regime(self, capsys):
        code = main(
            ["color", "--workload", "cabal", "--regime", "polylog", "--seed", "3"]
        )
        assert code == 0
        assert "regime=polylog" in capsys.readouterr().out

    def test_baselines_table(self, capsys):
        code = main(["baselines", "--workload", "figure1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "this paper" in out
        assert "luby" in out

    def test_sketch_demo(self, capsys):
        code = main(["sketch", "--d", "500", "--t", "1024"])
        out = capsys.readouterr().out
        assert code == 0
        assert "d_hat" in out
        assert "bits/trial" in out

    def test_workloads_listing(self, capsys):
        code = main(["workloads"])
        out = capsys.readouterr().out
        assert code == 0
        for name in GENERATORS:
            assert name in out


class TestStreamCommand:
    def test_stream_repair_mode(self, capsys):
        code = main(
            ["stream", "--workload", "cluster_churn", "--seed", "1", "--quiet"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "mode=repair" in out
        assert "proper=True" in out
        assert "recolor_fraction" in out

    def test_stream_both_reports_advantage(self, capsys):
        code = main(
            ["stream", "--workload", "sliding_window", "--mode", "both",
             "--quiet"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "mode=repair" in out
        assert "mode=scratch" in out
        assert "wall-time advantage" in out

    def test_stream_per_batch_table(self, capsys):
        code = main(["stream", "--workload", "hotspot_churn"])
        out = capsys.readouterr().out
        assert code == 0
        assert "recolor%" in out  # per-batch table present

    def test_stream_rejects_static_workloads(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stream", "--workload", "congest"])

    def test_workloads_listing_includes_streams(self, capsys):
        code = main(["workloads"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("sliding_window", "hotspot_churn", "cluster_churn"):
            assert name in out


class TestServeCommand:
    SMALL = ["serve", "--vertices", "200", "--batches", "4"]

    def test_met_slo_passes(self, capsys):
        code = main(self.SMALL + ["--slo", "violation_batches<=0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "SLO: all objectives met" in out

    def test_missed_slo_fails_only_when_strict(self, capsys):
        unreachable = ["--slo", "updates_per_sec>=1e12"]
        assert main(self.SMALL + unreachable + ["--strict"]) == 1
        assert main(self.SMALL + unreachable) == 0
        assert "MISSED" in capsys.readouterr().out

    def test_malformed_slo_exits(self):
        with pytest.raises(SystemExit) as exc:
            main(self.SMALL + ["--slo", "nonsense"])
        assert str(exc.value.code).startswith("repro: SLO spec")


class TestObservabilityCommands:
    def test_trace_static_workload(self, capsys):
        code = main(["trace", "figure1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "stage" in out and "rounds_h" in out
        assert "(match)" in out  # span sums reproduce the ledger totals

    def test_trace_stream_workload(self, capsys):
        code = main(["trace", "hotspot_churn"])
        out = capsys.readouterr().out
        assert code == 0
        assert "stream.batch" in out and "stream.bootstrap" in out
        assert "(match)" in out

    def test_trace_json_dumps_span_tree(self, capsys):
        import json

        code = main(["trace", "figure1", "--json"])
        tree = json.loads(capsys.readouterr().out)
        assert code == 0
        assert {s["name"] for s in tree["spans"]} == {"low_degree"}

    def test_trace_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "nope"])


class TestMalformedArtifacts:
    """``report`` and ``compare`` turn a malformed artifact into a
    ``repro: cannot read artifact`` exit, never a traceback."""

    @pytest.mark.parametrize(
        "line", ["[1, 2]", '{"kind": "cell"}'], ids=["list", "bare_cell"]
    )
    @pytest.mark.parametrize("command", ["report", "compare"])
    def test_clean_error(self, tmp_path, command, line):
        from repro.experiments.artifacts import make_header

        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(make_header("x", "h")) + "\n" + line + "\n")
        args = [command, str(path)] + ([str(path)] if command == "compare" else [])
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert str(exc.value).startswith(f"repro: cannot read artifact {path}")
