"""The repo's small CI tools keep working (docs lint, hetnet makespan gate)."""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import check_hetnet_makespan  # noqa: E402
import lint_docstrings  # noqa: E402


class TestLintDocstrings:
    def test_default_targets_are_clean(self):
        """The packages the architecture contract covers stay fully
        docstringed (CI's docs job gates on this)."""
        assert lint_docstrings.main([]) == 0

    def test_detects_missing_docstring(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text('"""mod."""\n\ndef public():\n    pass\n')
        assert lint_docstrings.main([str(bad)]) == 1

    def test_covers_sketch_and_decomposition(self):
        assert _linted("src/repro/sketch")
        assert _linted("src/repro/decomposition")

    def test_covers_observe_and_experiments(self):
        assert _linted("src/repro/observe")
        assert _linted("src/repro/experiments")

    def test_covers_cluster_builders(self):
        assert _linted("src/repro/cluster/builders.py")


def _linted(path: str) -> bool:
    """Whether the lint's default run reads ``path``."""
    return any(
        Path(path).is_relative_to(target)
        for target in lint_docstrings.DEFAULT_TARGETS
    )


class TestCheckHetnetMakespan:
    """The hetnet CI gate: invisibility + sensitivity on sweep records."""

    def _record(self, skew, fill, *, digest="d0", rounds=10, bits=500,
                makespan=None, status="ok", workload="congest"):
        metrics = {
            "coloring_digest": digest,
            "rounds_h": rounds,
            "total_message_bits": bits,
        }
        if makespan is not None:
            metrics["makespan_ms"] = makespan
        return {
            "kind": "cell",
            "status": status,
            "cell": {
                "workload": workload,
                "workload_kwargs": {"n": 40, "net_skew": skew, "net_fill": fill},
                "params": "scaled",
                "regime": "auto",
                "algorithm": "paper",
                "seed": 0,
                "instance_seed": 0,
            },
            "metrics": metrics,
        }

    def _grid(self, makespan_of):
        return [
            self._record(skew, fill, makespan=makespan_of(skew, fill))
            for skew in (1.0, 10.0, 100.0)
            for fill in (0.01, 0.1)
        ]

    def test_clean_grid_passes(self):
        records = self._grid(lambda skew, fill: skew * fill * 100.0)
        assert check_hetnet_makespan.check(records) == []

    def test_net_knobs_are_stripped_from_the_group_key(self):
        records = self._grid(lambda skew, fill: skew)
        keys = {check_hetnet_makespan.group_key(r) for r in records}
        assert len(keys) == 1
        assert "net_skew" not in next(iter(keys))

    def test_varying_digest_is_an_invisibility_violation(self):
        records = self._grid(lambda skew, fill: skew)
        records[-1]["metrics"]["coloring_digest"] = "different"
        errors = check_hetnet_makespan.check(records)
        assert any("coloring_digest varies" in e for e in errors)

    def test_flat_makespan_is_a_sensitivity_violation(self):
        records = self._grid(lambda skew, fill: 42.0)
        errors = check_hetnet_makespan.check(records)
        assert any("not strictly above" in e for e in errors)

    def test_failed_cell_is_reported(self):
        records = self._grid(lambda skew, fill: skew)
        records.append(self._record(1.0, 0.1, status="timeout"))
        errors = check_hetnet_makespan.check(records)
        assert any("cell not ok" in e for e in errors)

    def test_missing_skewed_cell_is_reported(self):
        records = [self._record(1.0, 0.1, makespan=1.0)]
        errors = check_hetnet_makespan.check(records)
        assert any("no skewed cell" in e for e in errors)

    def test_main_gates_via_exit_code(self, tmp_path, capsys):
        good = tmp_path / "good.jsonl"
        good.write_text(
            "\n".join(
                json.dumps(r) for r in self._grid(lambda s, f: s * (1 + f))
            )
            + "\n"
        )
        assert check_hetnet_makespan.main([str(good)]) == 0
        assert "hetnet contract holds" in capsys.readouterr().out
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            "\n".join(json.dumps(r) for r in self._grid(lambda s, f: 1.0))
            + "\n"
        )
        assert check_hetnet_makespan.main([str(bad)]) == 1
        assert "HETNET VIOLATION" in capsys.readouterr().out
