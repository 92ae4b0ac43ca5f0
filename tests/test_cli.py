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

    def test_baselines_exit_one_on_an_improper_baseline(self, capsys, monkeypatch):
        import dataclasses

        import repro.baselines

        real = repro.baselines.luby_coloring

        def improper(graph, seed=0):
            return dataclasses.replace(real(graph, seed=seed), proper=False)

        monkeypatch.setattr(repro.baselines, "luby_coloring", improper)
        code = main(["baselines", "--workload", "figure1"])
        assert code == 1
        assert "False" in capsys.readouterr().out

    def test_sketch_empty_set_skips_relative_error(self, capsys):
        code = main(["sketch", "--d", "0", "--t", "64"])
        out = capsys.readouterr().out
        assert code == 0
        assert "d_hat" in out
        assert "error" not in out

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


class TestObservabilityCommands:
    def test_trace_static_workload(self, capsys):
        code = main(["trace", "figure1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "stage" in out and "rounds_h" in out and "peak_rss_mb" in out
        assert "(match)" in out  # span sums reproduce the ledger totals

    def test_trace_stream_workload(self, capsys):
        code = main(["trace", "hotspot_churn"])
        out = capsys.readouterr().out
        assert code == 0
        assert "stream.batch" in out and "stream.bootstrap" in out
        for step in ("ingest", "repair", "compact", "verify"):
            assert f"  stream.{step}" in out  # nested under stream.batch
        assert "(match)" in out

    def test_trace_table_nests_sub_spans(self, capsys):
        """The table indents ``acd.*`` under ``acd`` and ``acd.buddy.*``
        under ``acd.buddy``; the totals line still sums the top-level rows
        alone and matches the ledger."""
        code = main(["trace", "high_degree"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        rule = next(i for i, x in enumerate(lines) if x.startswith("---"))
        body = lines[rule + 1 : -1]
        depth = {x.split()[0]: (len(x) - len(x.lstrip())) // 2 for x in body}
        assert depth["acd"] == 0
        assert depth["acd.buddy"] == 1
        assert depth["acd.buddy.maxima"] == 2
        top_rounds = sum(int(x.split()[3]) for x in body if not x.startswith(" "))
        assert f"stage sums: rounds_h={top_rounds} " in lines[-1]
        assert lines[-1].endswith("(match)")

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


class TestBadArguments:
    """Out-of-range arguments exit with one ``repro: ...`` line, never a
    traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["netsim", "figure1", "--skew", "0.5"], "net_skew"),
            (["netsim", "figure1", "--fill", "1.5"], "net_fill"),
            (["sketch", "--t", "0"], "empty fingerprint"),
            (["sketch", "--d", "-3"], "d must be non-negative"),
            (["netsim", "figure1", "--skew", "nan"], "net_skew"),
            (["netsim", "figure1", "--fill", "nan"], "net_fill"),
        ],
        ids=["skew", "fill", "trials", "count", "skew_nan", "fill_nan"],
    )
    def test_clean_error(self, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        text = str(exc.value)
        assert text.startswith("repro: ") and message in text
        assert "\n" not in text

    @pytest.mark.parametrize(
        "argv",
        [
            ["color", "--workload", "figure1", "--seed", "-1"],
            ["color", "--workload", "figure1", "--instance-seed", "-1"],
            ["baselines", "--workload", "figure1", "--seed", "-2"],
            ["sketch", "--seed", "-1"],
            ["stream", "--instance-seed", "-1"],
            ["stream", "--seed", "-1"],
            ["trace", "figure1", "--instance-seed", "-1"],
            ["trace", "figure1", "--seed", "-1"],
            ["netsim", "figure1", "--instance-seed", "-1"],
            ["netsim", "figure1", "--seed", "-1"],
            ["fuzz", "run", "--seed", "-1"],
            ["color", "--workload", "figure1", "--seed", "x"],
        ],
    )
    def test_bad_seed_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].endswith(
            f"must be a non-negative integer, got {argv[-1]!r}"
        )
        assert "Traceback" not in "\n".join(err)
