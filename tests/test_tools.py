"""The repo's docstring lint keeps working (CI's docs job gates on it)."""

from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

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
