"""Fuzz subsystem: mutator safety, determinism, minimization, promotion.

The load-bearing properties:

- every mutator output stays inside registered fuzz boxes and builds a
  valid workload (hypothesis, over generators x seeds);
- replaying a corpus entry reproduces the identical score and coloring
  digest (the bitwise-determinism contract extended to fuzz finds);
- the minimizer converges, never increases instance weight, and keeps
  the find above the margin;
- a promoted entry round-trips: corpus entry -> pathology cell -> sweep
  -> compare against itself at zero deltas.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzz import (
    DEFAULT_BASES,
    FuzzConfig,
    get_objective,
    load_entries,
    load_entry,
    make_entry,
    minimize_find,
    mutate,
    normalized,
    param_weight,
    promote_entry,
    replay_entry,
    resolve_entry,
    run_fuzz,
    save_entry,
    score_record,
    splice,
)
from repro.fuzz.loop import base_cell
from repro.workloads import GENERATORS, STREAMS
from repro.workloads.specs import fuzzable_params, validate_params

FUZZABLE = sorted(DEFAULT_BASES)


def assert_in_boxes(generator: str, params: dict) -> None:
    specs = fuzzable_params(generator)
    for name, value in params.items():
        spec = specs.get(name)
        if spec is None or not spec.fuzz or value is None:
            continue
        if spec.kind == "choice":
            assert value in spec.choices
        else:
            lo, hi = spec.box
            assert lo <= float(value) <= hi, f"{generator}.{name}={value}"


class TestMutators:
    @settings(max_examples=60)
    @given(
        generator=st.sampled_from(FUZZABLE),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_mutant_stays_in_boxes_and_validates(self, generator, seed):
        rng = np.random.default_rng(seed)
        params = mutate(rng, generator, DEFAULT_BASES[generator])
        validate_params(generator, params)
        assert_in_boxes(generator, params)

    @settings(max_examples=30)
    @given(
        generator=st.sampled_from(FUZZABLE),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_chained_mutations_stay_valid(self, generator, seed):
        rng = np.random.default_rng(seed)
        params = DEFAULT_BASES[generator]
        pool = [params]
        for _ in range(5):
            params = mutate(rng, generator, params, pool)
            validate_params(generator, params)
            assert_in_boxes(generator, params)
            pool.append(params)

    @settings(max_examples=20)
    @given(
        generator=st.sampled_from(FUZZABLE),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_splice_output_valid(self, generator, seed):
        rng = np.random.default_rng(seed)
        a = mutate(rng, generator, DEFAULT_BASES[generator])
        b = mutate(rng, generator, DEFAULT_BASES[generator])
        child = splice(rng, generator, a, b)
        validate_params(generator, child)
        assert_in_boxes(generator, child)

    @pytest.mark.parametrize("generator", ["cabal", "hotspot_churn"])
    def test_mutant_builds_a_workload(self, generator):
        rng = np.random.default_rng(99)
        params = mutate(rng, generator, DEFAULT_BASES[generator])
        w = GENERATORS[generator](np.random.default_rng(0), **params)
        assert w.graph.n_vertices > 0

    def test_mutation_is_deterministic(self):
        for generator in ("planted_acd", "cluster_churn"):
            a = mutate(np.random.default_rng(5), generator, DEFAULT_BASES[generator])
            b = mutate(np.random.default_rng(5), generator, DEFAULT_BASES[generator])
            assert a == b


class TestObjectives:
    def test_metric_and_trace_spellings(self):
        assert get_objective("rounds").deterministic
        assert get_objective("bits").deterministic
        assert not get_objective("wall").deterministic
        tr = get_objective("trace:acd.buddy")
        assert tr.section == "acd.buddy" and tr.column == "bits"
        assert tr.deterministic
        assert not get_objective("trace:acd.buddy:wall").deterministic

    @pytest.mark.parametrize(
        "bad", ["nope", "trace:", "trace:a:b:c", "trace:a:colours"]
    )
    def test_bad_spellings_raise(self, bad):
        with pytest.raises(ValueError):
            get_objective(bad)

    def test_score_skips_failed_and_unscorable_records(self):
        obj = get_objective("rounds")
        assert score_record(obj, {"status": "error", "metrics": {}}) is None
        rec = {"status": "ok", "metrics": {"rounds_h": 7}}
        assert score_record(obj, rec) == 7.0
        assert score_record(get_objective("recolor"), rec) is None
        assert score_record(get_objective("trace:x"), rec) is None

    def test_trace_section_sums_nested_spans(self):
        obj = get_objective("trace:stage.a:bits")
        rec = {
            "status": "ok",
            "metrics": {},
            "trace": {
                "spans": [
                    {"name": "stage.a", "message_bits": 5},
                    {
                        "name": "outer",
                        "children": [{"name": "stage.a", "message_bits": 3}],
                    },
                ]
            },
        }
        assert score_record(obj, rec) == 8.0

    def test_normalization_edge_cases(self):
        assert normalized(10.0, 5.0) == 2.0
        assert normalized(10.0, 0.0) == float("inf")
        assert normalized(0.0, 0.0) == 1.0
        assert normalized(None, 5.0) is None
        assert normalized(3.0, None) is None


SMOKE_CONFIG = FuzzConfig(
    objective="bits",
    generators=("cabal",),
    root_seed=1,
    iters=20,
    budget_s=None,
    margin=1.15,
    cell_timeout_s=60.0,
)


@pytest.fixture(scope="module")
def smoke_report():
    """One shared small fuzz run (module-scoped: real cells are not free)."""
    return run_fuzz(SMOKE_CONFIG)


class TestFuzzLoop:
    def test_smoke_run_finds_something(self, smoke_report):
        assert smoke_report.iterations == 20
        assert smoke_report.baselines["cabal"] > 0
        assert len(smoke_report.finds) >= 1
        for find in smoke_report.finds:
            assert find["norm"] >= SMOKE_CONFIG.margin
            assert find["record"]["status"] == "ok"
            assert "coloring_digest" in find["record"]["metrics"]

    def test_rerun_is_deterministic(self, smoke_report):
        again = run_fuzz(SMOKE_CONFIG)
        assert again.iterations == smoke_report.iterations
        assert again.baselines == smoke_report.baselines
        assert [f["cell"] for f in again.finds] == [
            f["cell"] for f in smoke_report.finds
        ]
        assert [f["score"] for f in again.finds] == [
            f["score"] for f in smoke_report.finds
        ]

    def test_unscorable_generators_are_skipped_not_fatal(self):
        config = FuzzConfig(
            objective="recolor",  # stream-only metric
            generators=("cabal",),
            iters=1,
            budget_s=None,
        )
        report = run_fuzz(config)
        assert report.skipped_generators == ["cabal"]
        assert report.finds == []

    def test_unknown_generator_raises(self):
        with pytest.raises(ValueError, match="no fuzz base"):
            run_fuzz(FuzzConfig(generators=("nope",), iters=1, budget_s=None))

    def test_stream_generators_use_the_stream_engine(self):
        cell = base_cell("hotspot_churn", DEFAULT_BASES["hotspot_churn"])
        assert cell["algorithm"] == "dynamic"
        assert "hotspot_churn" in STREAMS
        assert base_cell("cabal", {})["algorithm"] == "paper"


class TestMinimizer:
    def test_converges_and_never_increases_weight(self):
        objective = get_objective("bits")
        # a deliberately bloated cabal find
        cell = base_cell(
            "cabal",
            {"n_cabals": 4, "clique_size": 80, "anti_degree": 4,
             "inter_cabal_links": 12, "cluster_size": 2},
        )
        from repro.experiments.runner import run_cell

        baseline = score_record(
            objective, run_cell(base_cell("cabal", DEFAULT_BASES["cabal"]), 60.0)
        )
        start_weight = param_weight("cabal", cell["workload_kwargs"])
        min_cell, min_record, min_raw, evals = minimize_find(
            "cabal", cell, objective, baseline, margin=1.3, timeout_s=60.0,
            max_evals=20,
        )
        assert evals <= 20  # converged within budget
        end_weight = param_weight("cabal", min_cell["workload_kwargs"])
        assert end_weight <= start_weight
        if min_record is not None:  # something was accepted
            assert end_weight < start_weight
            assert normalized(min_raw, baseline) >= 1.3
            assert min_record["status"] == "ok"

    def test_no_shrink_possible_returns_input(self):
        objective = get_objective("bits")
        floor_params = {
            name: spec.clamp(spec.box[0])
            for name, spec in fuzzable_params("bridge").items()
            if spec.kind in ("int", "float")
        }
        cell = base_cell("bridge", floor_params)
        min_cell, min_record, _raw, evals = minimize_find(
            "bridge", cell, objective, baseline_raw=1.0, margin=1.0,
            timeout_s=60.0,
        )
        assert evals == 0
        assert min_record is None
        assert min_cell["workload_kwargs"] == floor_params


@pytest.fixture(scope="module")
def corpus_entry(smoke_report, tmp_path_factory):
    """The smoke run's top find, saved as a corpus entry."""
    find = smoke_report.finds[0]
    entry = make_entry(find, smoke_report.objective, smoke_report.root_seed)
    directory = tmp_path_factory.mktemp("corpus")
    path = save_entry(entry, directory)
    return path, entry


class TestCorpus:
    def test_entry_schema_and_roundtrip(self, corpus_entry):
        path, entry = corpus_entry
        loaded = load_entry(path)
        assert loaded == entry
        assert loaded["schema"] == {"name": "repro.fuzz", "version": 1}
        assert loaded["deterministic"] is True
        assert loaded["cell"]["workload"] == loaded["generator"] == "cabal"
        assert loaded["metrics"]["coloring_digest"]
        assert isinstance(loaded["trace_stages"], list)

    def test_replay_reproduces_score_and_digest(self, corpus_entry):
        _path, entry = corpus_entry
        verdict = replay_entry(entry, timeout_s=60.0)
        assert verdict["ok"]
        assert verdict["score_ok"] and verdict["digest_ok"]
        assert verdict["score"] == entry["score"]
        assert verdict["digest"] == entry["metrics"]["coloring_digest"]

    def test_replay_detects_tampering(self, corpus_entry):
        _path, entry = corpus_entry
        tampered = json.loads(json.dumps(entry))
        tampered["score"] = entry["score"] + 1
        assert not replay_entry(tampered, timeout_s=60.0)["ok"]
        tampered = json.loads(json.dumps(entry))
        tampered["metrics"]["coloring_digest"] = "0" * 16
        assert not replay_entry(tampered, timeout_s=60.0)["ok"]

    def test_resolve_by_prefix_and_ambiguity(self, corpus_entry):
        path, entry = corpus_entry
        found_path, found = resolve_entry(entry["id"][:8], path.parent)
        assert found["id"] == entry["id"]
        with pytest.raises(ValueError, match="no corpus entry"):
            resolve_entry("zzz-doesnotexist", path.parent)

    def test_load_entries_empty_dir(self, tmp_path):
        assert load_entries(tmp_path / "nope") == []

    def test_bad_schema_rejected(self, tmp_path):
        bad = tmp_path / "x.json"
        bad.write_text(json.dumps({"schema": {"name": "other", "version": 1}}))
        with pytest.raises(ValueError, match="not a repro.fuzz entry"):
            load_entry(bad)


class TestCorruptEntries:
    """A corrupt corpus file is a ``ValueError`` naming it, and
    ``fuzz list``/``fuzz replay --all`` exit with a ``repro:`` message."""

    CORRUPT = pytest.mark.parametrize(
        "text", ["{not json", "[1]"], ids=["bad_json", "not_object"]
    )

    @CORRUPT
    def test_load_entry_names_the_file(self, tmp_path, text):
        bad = tmp_path / "x.json"
        bad.write_text(text)
        with pytest.raises(ValueError, match="x.json"):
            load_entry(bad)

    @CORRUPT
    @pytest.mark.parametrize(
        "command", [["list"], ["replay", "--all"]], ids=["list", "replay_all"]
    )
    def test_cli_exits_cleanly(self, tmp_path, text, command):
        from repro.cli import main

        (tmp_path / "x.json").write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", *command, "--corpus", str(tmp_path)])
        message = str(exc.value)
        assert message.startswith("repro: ") and "x.json" in message


class TestPromotion:
    def test_promote_sweep_compare_roundtrip(self, corpus_entry, tmp_path):
        """Corpus entry -> pathology cell -> sweep twice -> compare at
        zero deltas: the full promotion contract."""
        from repro.experiments.compare import compare_artifacts
        from repro.experiments.runner import run_sweep
        from repro.experiments.spec import pathology_suite
        from repro.experiments.artifacts import read_artifact

        _path, entry = corpus_entry
        dest = tmp_path / "pathologies"
        promoted_path = promote_entry(entry, dest)
        assert promoted_path.parent == dest
        assert load_entry(promoted_path)["cell"]["suite"] == "pathology"

        suite = pathology_suite(dest)
        assert suite is not None and suite.name == "pathology"
        cells = suite.cells()
        assert len(cells) == 1
        assert cells[0].workload == entry["generator"]
        # suite-independent key: fuzz-time and suite runs align
        assert cells[0].key() == json.dumps(
            {
                "workload": entry["cell"]["workload"],
                "kwargs": entry["cell"]["workload_kwargs"],
                "params": entry["cell"]["params"],
                "regime": entry["cell"]["regime"],
                "algorithm": entry["cell"]["algorithm"],
                "seed": entry["cell"]["seed"],
                "instance_seed": entry["cell"]["instance_seed"],
            },
            sort_keys=True,
            separators=(",", ":"),
        )

        path_a, records_a = run_sweep(suite, out_path=tmp_path / "a.jsonl")
        path_b, records_b = run_sweep(suite, out_path=tmp_path / "b.jsonl")
        assert all(r["status"] == "ok" for r in records_a)
        digest = records_a[0]["metrics"]["coloring_digest"]
        assert digest == entry["metrics"]["coloring_digest"]
        report = compare_artifacts(read_artifact(path_a), read_artifact(path_b))
        assert report.exit_code == 0

    def test_empty_pathology_dir_registers_no_suite(self, tmp_path):
        from repro.experiments.spec import pathology_suite

        assert pathology_suite(tmp_path) is None
        assert pathology_suite(tmp_path / "missing") is None


class TestEscalationRegression:
    """The ``escalations`` objective has signal inside the fuzz boxes.

    ROADMAP once claimed scratch escalations could never fire inside the
    registered hotspot_churn boxes, leaving the objective dead.  The box
    was widened (``hotspot_fraction`` up to 0.9); this pins an in-box
    cell whose repair-mode run escalates, so the fuzzer can climb the
    objective -- and so future box edits cannot silently kill it again.
    """

    PINNED = {
        "n_vertices": 60,
        "avg_degree": 3.0,
        "batches": 8,
        "hotspot_fraction": 0.9,
        "churn_edges": 400,
        "arrivals": 12,
        "departures": 12,
    }

    def test_pinned_cell_is_inside_the_boxes(self):
        validate_params("hotspot_churn", self.PINNED)
        assert_in_boxes("hotspot_churn", self.PINNED)

    def test_pinned_cell_escalates(self):
        from repro.dynamic.harness import run_stream

        workload = STREAMS["hotspot_churn"](
            np.random.default_rng(0), **self.PINNED
        )
        _engine, _result, metrics = run_stream(workload, seed=0, mode="repair")
        assert metrics["proper"]
        assert metrics["escalations"] >= 1
        objective = get_objective("escalations")
        record = {"status": "ok", "metrics": metrics}
        assert score_record(objective, record) >= 1.0
