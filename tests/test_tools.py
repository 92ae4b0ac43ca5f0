"""The repo's docstring lint keeps working (CI's docs job gates on it),
and the docs name only code that exists."""

from __future__ import annotations

import importlib
import re
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


DOCS = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]


def _resolve(dotted: str):
    """Import the longest module prefix of ``dotted`` and read the rest
    as attributes; raises if any part is missing."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            target = getattr(target, attr)
        return target
    raise ModuleNotFoundError(dotted)


class TestDocsDrift:
    def test_backticked_repro_names_resolve(self):
        """Every backticked ``repro.*`` dotted name in the README and
        ``docs/`` imports and resolves."""
        named = {
            (doc.name, dotted)
            for doc in DOCS
            for dotted in re.findall(r"`(repro(?:\.\w+)+)`", doc.read_text())
        }
        assert named
        missing = []
        for doc, dotted in sorted(named):
            try:
                _resolve(dotted)
            except (ImportError, AttributeError):
                missing.append(f"{doc}: {dotted}")
        assert not missing, missing

    def test_cli_suite_row_lists_every_suite(self):
        """CLI.md's ``--suite`` row names exactly the registered suites."""
        from repro.experiments.spec import SUITES

        rows = [
            line
            for line in (REPO / "docs" / "CLI.md").read_text().splitlines()
            if line.startswith("| `--suite` |")
        ]
        assert len(rows) == 1
        description = rows[0].split("|")[3]
        assert sorted(re.findall(r"`(\w+)`", description)) == sorted(SUITES)
