"""Corpus management: persistent, replayable records of fuzzer finds.

Each find becomes one JSON file (schema ``repro.fuzz`` v1) carrying
everything needed to reproduce it from nothing: the full cell dict
(generator, params, seeds, algorithm), the objective and both raw and
normalized scores, the metrics snapshot (including the coloring digest),
and the aggregated per-stage trace rows at discovery time.  Two
directories share the format:

- ``benchmarks/fuzz_corpus/`` (:data:`CORPUS_DIR`) -- the working corpus
  ``repro fuzz run`` appends to; git-ignored, local to a machine.
- ``benchmarks/pathologies/`` (:data:`repro.experiments.spec.PATHOLOGY_DIR`)
  -- promoted entries, committed to the repo; the ``pathology`` suite
  loads its cells from here, so every promotion is a permanent
  regression test runnable through sweep/compare.

Replay reruns an entry's cell and gates the coloring digest always, and
the recorded score bitwise for deterministic objectives (wall-clock
objectives legitimately drift)."""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Any

from repro.experiments.runner import run_cell
from repro.experiments.spec import PATHOLOGY_DIR
from repro.fuzz.minimize import normalized
from repro.fuzz.objectives import get_objective, score_record
from repro.observe import aggregate_stage_rows, stage_rows

__all__ = [
    "CORPUS_DIR",
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "load_entries",
    "load_entry",
    "make_entry",
    "promote_entry",
    "replay_entry",
    "save_entry",
]

SCHEMA_NAME = "repro.fuzz"
SCHEMA_VERSION = 1

#: The working (git-ignored) corpus directory.
CORPUS_DIR = (
    pathlib.Path(__file__).resolve().parents[3] / "benchmarks" / "fuzz_corpus"
)


def _entry_id(generator: str, cell: dict[str, Any], objective: str) -> str:
    payload = json.dumps(
        {"cell": {k: v for k, v in cell.items() if k != "suite"},
         "objective": objective},
        sort_keys=True,
        separators=(",", ":"),
    )
    return f"{generator}-{hashlib.sha256(payload.encode()).hexdigest()[:10]}"


def make_entry(
    find: dict[str, Any], objective_name: str, root_seed: int
) -> dict[str, Any]:
    """Convert one :func:`repro.fuzz.loop.run_fuzz` find into a corpus
    entry (drops the bulky raw record, keeps metrics + aggregated trace
    stages as the reproducibility snapshot)."""
    record = find["record"]
    objective = get_objective(objective_name)
    cell = dict(find["cell"])
    return {
        "schema": {"name": SCHEMA_NAME, "version": SCHEMA_VERSION},
        "id": _entry_id(find["generator"], cell, objective.name),
        "generator": find["generator"],
        "objective": objective.name,
        "deterministic": objective.deterministic,
        "root_seed": root_seed,
        "iteration": find["iteration"],
        "score": find["score"],
        "baseline_score": find["baseline_score"],
        "norm": find["norm"],
        "minimized": find["minimized"],
        "cell": cell,
        "metrics": record.get("metrics", {}),
        "trace_stages": aggregate_stage_rows(stage_rows(record.get("trace"))),
    }


def save_entry(
    entry: dict[str, Any], directory: str | pathlib.Path | None = None
) -> pathlib.Path:
    """Write ``entry`` as ``<dir>/<id>.json`` (dir created on demand)."""
    directory = pathlib.Path(directory) if directory else CORPUS_DIR
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{entry['id']}.json"
    path.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n")
    return path


def load_entry(path: str | pathlib.Path) -> dict[str, Any]:
    """Read one corpus entry, validating its schema stamp."""
    try:
        entry = json.loads(pathlib.Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not JSON ({exc})") from exc
    if not isinstance(entry, dict):
        raise ValueError(f"{path}: not a JSON object")
    schema = entry.get("schema")
    if not isinstance(schema, dict) or schema.get("name") != SCHEMA_NAME:
        raise ValueError(f"{path}: not a {SCHEMA_NAME} entry")
    if schema.get("version") != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema version {schema.get('version')!r}, "
            f"expected {SCHEMA_VERSION}"
        )
    return entry


def load_entries(
    directory: str | pathlib.Path | None = None,
) -> list[tuple[pathlib.Path, dict[str, Any]]]:
    """Every entry under ``directory`` (default: the working corpus), in
    filename order; empty list when the directory does not exist."""
    directory = pathlib.Path(directory) if directory else CORPUS_DIR
    if not directory.is_dir():
        return []
    return [(p, load_entry(p)) for p in sorted(directory.glob("*.json"))]


def resolve_entry(
    ref: str, directory: str | pathlib.Path | None = None
) -> tuple[pathlib.Path, dict[str, Any]]:
    """Find an entry by id, id prefix, or path (corpus dir by default)."""
    as_path = pathlib.Path(ref)
    if as_path.is_file():
        return as_path, load_entry(as_path)
    matches = [
        (p, e) for p, e in load_entries(directory) if e["id"].startswith(ref)
    ]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise ValueError(f"no corpus entry matches {ref!r}")
    ids = ", ".join(e["id"] for _, e in matches)
    raise ValueError(f"ambiguous entry ref {ref!r}: {ids}")


def replay_entry(
    entry: dict[str, Any], timeout_s: float | None = None
) -> dict[str, Any]:
    """Re-run an entry's cell and check it still reproduces.

    Returns a verdict dict: ``ok`` (overall), ``status`` (the rerun's
    cell status), ``score`` / ``norm`` (fresh values), ``score_ok``
    (bitwise score match; vacuously true for non-deterministic
    objectives), and ``digest_ok`` (coloring digest match, always
    gated)."""
    objective = get_objective(entry["objective"])
    record = run_cell(entry["cell"], timeout_s, trace=True)
    raw = score_record(objective, record)
    norm = normalized(raw, entry.get("baseline_score"))
    want_digest = entry.get("metrics", {}).get("coloring_digest")
    got_digest = record.get("metrics", {}).get("coloring_digest")
    digest_ok = want_digest is not None and got_digest == want_digest
    score_ok = (not objective.deterministic) or (
        raw is not None and float(raw) == float(entry["score"])
    )
    return {
        "ok": record["status"] == "ok" and score_ok and digest_ok,
        "status": record["status"],
        "score": None if raw is None else float(raw),
        "norm": norm,
        "score_ok": score_ok,
        "digest_ok": digest_ok,
        "digest": got_digest,
        "record": record,
    }


def promote_entry(
    entry: dict[str, Any],
    pathology_dir: str | pathlib.Path | None = None,
) -> pathlib.Path:
    """Copy ``entry`` into the pinned pathology directory.

    The cell is re-labelled into the ``pathology`` suite (its key is
    suite-independent, so artifacts still align with fuzz-time runs) and
    the file lands under ``benchmarks/pathologies/`` where
    :func:`repro.experiments.spec.pathology_suite` picks it up on next
    import -- promotion is literally "this find is now a suite cell"."""
    promoted = {
        **entry,
        "cell": {**entry["cell"], "suite": "pathology"},
    }
    return save_entry(promoted, pathology_dir or PATHOLOGY_DIR)
