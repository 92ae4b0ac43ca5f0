"""Experiment orchestration: declarative sweeps, parallel runners,
schema-versioned JSONL artifacts, and regression gating.

The paper's claims are sweep-shaped (rounds and bandwidth vs. Delta,
dilation, regime, seed); this package turns each claim into a named
:class:`~repro.experiments.spec.ScenarioSpec` whose
:class:`~repro.experiments.spec.Claim` s ``repro sweep`` and
``repro report`` check, executes the grid in parallel, and persists
machine-readable artifacts that ``repro compare`` gates future commits
against.
"""

from repro.experiments.artifacts import (
    Artifact,
    read_artifact,
    summarize,
    to_csv,
    write_artifact,
)
from repro.experiments.compare import (
    ComparisonReport,
    compare_artifacts,
    parse_tolerance_overrides,
    render_report,
)
from repro.experiments.runner import run_cell, run_suite, run_sweep
from repro.experiments.spec import (
    ALGORITHMS,
    SUITES,
    Cell,
    Claim,
    ScenarioSpec,
    WorkloadSpec,
)

__all__ = [
    "ALGORITHMS",
    "Artifact",
    "Cell",
    "Claim",
    "ComparisonReport",
    "SUITES",
    "ScenarioSpec",
    "WorkloadSpec",
    "compare_artifacts",
    "parse_tolerance_overrides",
    "read_artifact",
    "render_report",
    "run_cell",
    "run_suite",
    "run_sweep",
    "summarize",
    "to_csv",
    "write_artifact",
]
