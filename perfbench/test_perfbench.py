"""Self-tests of the benchmark: ``python3 -m pytest perfbench``.

They run every workload at miniature size, so they take seconds, and they
check what the benchmark promises: the printed names and units are the ones
``BENCHMARK.json`` declares, a wrong coloring is counted as a failure, the
traced run puts the program's functions back, and the command refuses to
run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run as bench_run  # noqa: E402
from perfbench.calib import Calibrator  # noqa: E402
from perfbench.checks import check_coloring  # noqa: E402
from perfbench.harness import END_TO_END, PER_LAYER, WORKLOADS, run_workload  # noqa: E402
from perfbench.tracing import Recorder, installed, wrapped_attributes  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: A row each traced miniature must show non-zero: proof that the wrapper
#: or span feeding it fired.
LIVE_ROW = {
    "hd_gnp": "decomposition.buddy_s",
    "hd_cliques": "coloring.noncabals_s",
    "ld_regular": "coloring.low_degree_s",
    "sw_churn": "dynamic.ingest_calls",
}


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _run(argv: list[str], capsys) -> tuple[int, dict]:
    code = bench_run.main(argv)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


def test_spec_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert _units("end_to_end") == END_TO_END
    assert _units("per_layer") == PER_LAYER
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_every_per_layer_row_has_a_documented_target():
    readme = (ROOT / "perfbench" / "README.md").read_text()
    missing = [name for name in PER_LAYER if f"`{name}`" not in readme]
    assert not missing


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_miniature_workload_passes_and_prints_the_spec(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "2", "--seconds", "0.2",
            "--trace", str(trace), "--mini"]
    code, result = _run(argv, capsys)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units(section)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert values[LIVE_ROW[workload]] > 0
        assert values["fail_frac"] == 0
    else:
        assert all(v > 0 for v in values.values())


def test_checker_rejects_a_monochromatic_edge():
    from repro import color_cluster_graph
    from repro.workloads.generators import GENERATORS

    graph = GENERATORS["low_degree"](np.random.default_rng(0), n_vertices=60).graph
    result = color_cluster_graph(graph, seed=0)
    bandwidth = 10**6
    assert check_coloring(graph, result.colors, result.ledger_summary, bandwidth) == []
    edge_u, edge_v = graph.h_edge_arrays()
    colors = result.colors.copy()
    colors[edge_v[0]] = colors[edge_u[0]]
    assert check_coloring(graph, colors, result.ledger_summary, bandwidth)


def test_a_wrong_coloring_makes_fail_frac_positive(monkeypatch, capsys):
    import repro.coloring.pipeline as pipeline

    real = pipeline.color_cluster_graph

    def one_monochromatic_edge(graph, **kwargs):
        result = real(graph, **kwargs)
        edge_u, edge_v = graph.h_edge_arrays()
        result.colors[edge_v[0]] = result.colors[edge_u[0]]
        return result

    monkeypatch.setattr(pipeline, "color_cluster_graph", one_monochromatic_edge)
    argv = ["--workload", "ld_regular", "--seed", "2", "--seconds", "0.2",
            "--trace", "1", "--mini"]
    code, result = _run(argv, capsys)
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0
    assert result["metrics"]["fail_frac"]["value"] > 0


@pytest.mark.parametrize("workload", ["hd_cliques", "sw_churn"])
def test_traced_run_restores_the_wrapped_functions(workload):
    before = wrapped_attributes()
    out = run_workload(workload, 2, 0.2, traced=True, mini=True)
    assert out.correct
    after = wrapped_attributes()
    assert [(o, a) for o, a, _ in before] == [(o, a) for o, a, _ in after]
    assert all(x is y for (_, _, x), (_, _, y) in zip(before, after))


def test_wrappers_are_restored_when_the_block_raises():
    before = wrapped_attributes()
    with pytest.raises(KeyError):
        with installed(Recorder()):
            assert wrapped_attributes()[0][2] is not before[0][2]
            raise KeyError("boom")
    assert all(x is y for (_, _, x), (_, _, y) in zip(before, wrapped_attributes()))


def test_self_times_partition_the_outer_span():
    rec = Recorder(phase="op")

    def inner():
        return sum(range(20_000))

    def outer():
        return rec.call("inner", inner) + rec.call("inner", inner)

    rec.call("outer", outer)
    total = rec.total_s[("op", "outer")]
    parts = rec.self_s[("op", "outer")] + rec.self_s[("op", "inner")]
    assert parts == pytest.approx(total)
    assert rec.calls[("op", "inner")] == 2


def test_calibration_kernel_is_fixed():
    calib = Calibrator()
    calib.sample()
    assert len(calib.samples_ms) == 2 and calib.median_ms() > 0
    assert calib.factor() > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hd_gnp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 2
    assert '"correct"' not in proc.stdout
