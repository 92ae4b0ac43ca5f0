"""The bitwise contract as one table: ``tests/golden_runs.json``.

Each row names a seeded run and pins what it decides: the coloring (a
sha256 of the int64 colors), the ledger ``summary()``, the per-op rounds
and bits, the stage rounds (static runs) or every ``BatchReport`` field
but ``wall_time_s`` (stream runs), and the rng's end state.

* pipeline rows: every non-stream generator under every regime, on the
  seed-0 instance with run rng 3, plus Algorithm 11's Phase I (the
  non-cabal ``planted_acd`` instance) and the historical pins (seed-0 runs
  of three generators, the rng-1234 runs on seed-7 instances);
* baseline rows: ``luby`` and ``palette_sparsification`` on the seed-0
  ``planted_acd`` instance with seed 3;
* stream rows: every ``STREAMS`` entry in both modes on instance seeds 0
  and 1 with engine seed 7, a compacting ``sliding_window`` and two
  engine-seed-4 runs on seed-11 instances.

Pipeline and stream rows run four times: plain, under a
:class:`~repro.observe.Tracer`, under a heterogeneous network model, and
under both.  Observers may only add: a network model adds ``makespan_ms``
(and, on streams, ``critical_link``) and nothing else.

A mismatch prints the run's actual row as JSON.  A change that is meant to
alter the contract replaces the row by hand and says why.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import repro.coloring.pipeline
from repro.baselines import luby_coloring, palette_sparsification_coloring
from repro.dynamic import run_stream
from repro.network import HetNetModel, HetNetSpec
from repro.observe import Tracer
from repro.workloads import GENERATORS, STREAMS

ROWS = json.loads((Path(__file__).with_name("golden_runs.json")).read_text())
REGIMES = ("auto", "high_degree", "low_degree", "polylog")
OBSERVERS = ("plain", "tracer", "netmodel", "both")
BASELINES = {
    "luby": luby_coloring,
    "palette_sparsification": palette_sparsification_coloring,
}
#: The fabric of every modeled run: static runs sample it with rng 5,
#: stream workloads draw it from their generator's knobs.
NET_SPEC = HetNetSpec(skew=100.0, fill=0.1)
NET_KNOBS = {"net_skew": 100.0, "net_fill": 0.1}


def _json(value):
    """``value`` as it reads back from the table (numpy scalars unwrapped)."""
    return json.loads(json.dumps(value, sort_keys=True, default=lambda o: o.item()))


@contextmanager
def _runtimes(module):
    """Collect every ``ClusterRuntime`` that ``module`` builds."""
    made = []
    real = module.ClusterRuntime

    def build(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "ClusterRuntime", build)
        yield made


def _decided(colors, ledger, rng) -> dict:
    """The fields every row pins."""
    return {
        "colors": hashlib.sha256(
            np.ascontiguousarray(colors, dtype=np.int64).tobytes()
        ).hexdigest(),
        "ledger": ledger.summary(),
        "per_op_rounds": dict(ledger.per_op_rounds),
        "per_op_bits": dict(ledger.per_op_bits),
        "rng": rng.bit_generator.state,
    }


def _pipeline(row: dict, tracer, modeled: bool) -> dict:
    graph = GENERATORS[row["workload"]](
        np.random.default_rng(row["instance_seed"]), **row["kwargs"]
    ).graph
    netmodel = (
        HetNetModel.sample(graph, NET_SPEC, np.random.default_rng(5))
        if modeled
        else None
    )
    rng = np.random.default_rng(row["run_seed"])
    with _runtimes(repro.coloring.pipeline) as made:
        result = repro.coloring.pipeline.color_cluster_graph(
            graph, rng=rng, regime=row["regime"], tracer=tracer, netmodel=netmodel
        )
    assert result.proper
    return {
        **_decided(result.colors, made[0].ledger, rng),
        "stage_rounds": dict(result.stats.stage_rounds),
    }


def _baseline(row: dict) -> dict:
    graph = GENERATORS[row["workload"]](
        np.random.default_rng(row["instance_seed"]), **row["kwargs"]
    ).graph
    baseline = BASELINES[row["runner"]]
    with _runtimes(importlib.import_module(baseline.__module__)) as made:
        result = baseline(graph, seed=row["run_seed"])
    assert result.proper
    (runtime,) = made
    return {
        **_decided(result.colors, runtime.ledger, runtime.rng),
        "fallback_vertices": result.fallback_vertices,
    }


def _stream(row: dict, tracer, modeled: bool) -> dict:
    workload = STREAMS[row["workload"]](
        np.random.default_rng(row["instance_seed"]),
        **row["kwargs"],
        **(NET_KNOBS if modeled else {}),
    )
    engine, result, _metrics = run_stream(
        workload, seed=row["run_seed"], mode=row["mode"], tracer=tracer
    )
    decided = _decided(engine.colors, engine.ledger, engine.rng)
    decided["reports"] = [
        {k: v for k, v in dataclasses.asdict(r).items() if k != "wall_time_s"}
        for r in result.reports
    ]
    if modeled:
        decided["critical_link"] = engine.netmodel.critical_element()[0]
    return decided


def run_row(row: dict, observer: str = "plain") -> dict:
    """What the run ``row`` names decides under ``observer``, in the
    table's form.  Under a network model, ``makespan_ms`` moves out of the
    ledger summary to the top level, beside the additive keys."""
    tracer = Tracer() if observer in ("tracer", "both") else None
    modeled = observer in ("netmodel", "both")
    if row["runner"] == "pipeline":
        decided = _pipeline(row, tracer, modeled)
    elif row["runner"] == "stream":
        decided = _stream(row, tracer, modeled)
    else:
        assert observer == "plain", "baseline rows run without observers"
        decided = _baseline(row)
    decided = _json(decided)
    if "makespan_ms" in decided["ledger"]:
        decided["makespan_ms"] = decided["ledger"].pop("makespan_ms")
    return decided


def _check(row: dict, observer: str) -> None:
    actual = run_row(row, observer)
    extra = {k: actual.pop(k) for k in ("makespan_ms", "critical_link") if k in actual}
    assert actual == row["pinned"], "actual row:\n" + json.dumps(
        {**row, "pinned": actual}, sort_keys=True
    )
    if observer in ("netmodel", "both"):
        additive = {"makespan_ms"} | (
            {"critical_link"} if row["runner"] == "stream" else set()
        )
        assert set(extra) == additive
        assert extra["makespan_ms"] > 0
    else:
        assert not extra


OBSERVED = [r for r in ROWS if r["runner"] in ("pipeline", "stream")]
PLAIN_ONLY = [r for r in ROWS if r["runner"] in BASELINES]


@pytest.mark.parametrize("observer", OBSERVERS)
@pytest.mark.parametrize("row", OBSERVED, ids=[r["id"] for r in OBSERVED])
def test_observed_run_matches_row(row, observer):
    _check(row, observer)


@pytest.mark.parametrize("row", PLAIN_ONLY, ids=[r["id"] for r in PLAIN_ONLY])
def test_baseline_run_matches_row(row):
    _check(row, "plain")


def test_rows_cover_every_generator_regime_and_stream():
    static = {
        (r["workload"], r["regime"]) for r in ROWS if r["runner"] == "pipeline"
    }
    for name in set(GENERATORS) - set(STREAMS):
        for regime in REGIMES:
            assert (name, regime) in static, f"no row runs {name} under {regime}"
    streamed = {(r["workload"], r["mode"]) for r in ROWS if r["runner"] == "stream"}
    for name in STREAMS:
        for mode in ("repair", "scratch"):
            assert (name, mode) in streamed, f"no row streams {name} in {mode}"
    assert len({r["id"] for r in ROWS}) == len(ROWS)


def test_the_compacting_stream_row_compacts():
    (row,) = [r for r in ROWS if r["runner"] == "stream" and r["kwargs"]]
    assert sum(r["compacted"] for r in row["pinned"]["reports"]) >= 3
