"""Declarative scenario specifications for experiment sweeps.

A :class:`ScenarioSpec` names a grid of cells -- workload x params-preset x
regime x algorithm x seed -- and expands it deterministically.  The paper's
claims are sweep-shaped (rounds and bandwidth vs. Delta, dilation, regime,
and seed), so each experiment E1-E15 has a named built-in suite here,
next to cross-regime and dilation-stress suites.  A suite may
carry :class:`Claim` s: named predicates over its ``ok`` records, each
citing the theorem or lemma it checks.  ``repro sweep`` and
``repro report`` print one verdict per claim and exit 1 on a miss.  The
lemma-level claims, which call one estimator or one stage rather than a
whole cell, are tests in ``tests/test_paper_claims.py``.

Cells carry everything a worker process needs to reproduce one run, and a
stable string key so artifact files from different commits can be aligned
cell-by-cell (see :mod:`repro.experiments.compare`).
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator

from repro.workloads.specs import NET_PARAM_NAMES

#: Algorithms a cell may dispatch to.  ``paper`` is the full pipeline of
#: Algorithm 3; ``luby``/``palette_sparsification``/``local_gather`` are the
#: Experiment E13 comparators; ``dynamic`` and ``recolor_scratch`` consume a
#: stream workload's update batches through the streaming engine
#: (incremental repair vs. full recolor every batch).
ALGORITHMS = (
    "paper",
    "luby",
    "palette_sparsification",
    "local_gather",
    "dynamic",
    "recolor_scratch",
)

#: The one-shot comparators of Experiment E13 (static workloads only).
ONE_SHOT_ALGORITHMS = ("paper", "luby", "palette_sparsification", "local_gather")

#: The streaming-engine pair every stream suite sweeps.
STREAM_ALGORITHMS = ("dynamic", "recolor_scratch")


def _canonical(obj: Any) -> str:
    """Deterministic JSON rendering used for hashes and cell keys."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload generator invocation: registry name plus kwargs.

    ``instance_seed`` pins this workload to one specific instance draw,
    overriding the spec-level ``instance_seeds`` axis -- needed when a
    historical experiment measured a particular instance (e.g. E15's
    cabal graph was always drawn with seed 82).
    """

    name: str
    kwargs: tuple[tuple[str, Any], ...] = ()
    instance_seed: int | None = None

    @staticmethod
    def of(name: str, *, instance_seed: int | None = None, **kwargs: Any) -> "WorkloadSpec":
        """Build a spec from keyword arguments (stored sorted, hashable)."""
        return WorkloadSpec(name, tuple(sorted(kwargs.items())), instance_seed)


@dataclass(frozen=True)
class Cell:
    """One executable point of a sweep grid."""

    suite: str
    workload: str
    workload_kwargs: tuple[tuple[str, Any], ...]
    params: str  # "scaled" | "paper"
    regime: str  # "auto" | "high_degree" | "polylog" | "low_degree"
    algorithm: str  # one of ALGORITHMS
    seed: int
    instance_seed: int

    def key(self) -> str:
        """Stable identity used to align cells across artifact files.

        Deliberately excludes the suite name: the same cell reached through
        two different suites is the same measurement.
        """
        return _canonical(
            {
                "workload": self.workload,
                "kwargs": dict(self.workload_kwargs),
                "params": self.params,
                "regime": self.regime,
                "algorithm": self.algorithm,
                "seed": self.seed,
                "instance_seed": self.instance_seed,
            }
        )

    def label(self) -> str:
        """Short human-readable cell name for progress lines."""
        kw = ",".join(f"{k}={v}" for k, v in self.workload_kwargs)
        base = f"{self.workload}({kw})" if kw else self.workload
        algo = "" if self.algorithm == "paper" else f" algo={self.algorithm}"
        return (
            f"{base} params={self.params} regime={self.regime}{algo} "
            f"seed={self.seed}/{self.instance_seed}"
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (the artifact's ``cell`` field; picklable)."""
        return {
            "suite": self.suite,
            "workload": self.workload,
            "workload_kwargs": dict(self.workload_kwargs),
            "params": self.params,
            "regime": self.regime,
            "algorithm": self.algorithm,
            "seed": self.seed,
            "instance_seed": self.instance_seed,
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "Cell":
        """Inverse of :meth:`to_dict` (tolerates missing optional fields)."""
        return Cell(
            suite=data["suite"],
            workload=data["workload"],
            workload_kwargs=tuple(sorted(data.get("workload_kwargs", {}).items())),
            params=data["params"],
            regime=data["regime"],
            algorithm=data.get("algorithm", "paper"),
            seed=int(data["seed"]),
            instance_seed=int(data["instance_seed"]),
        )


@dataclass(frozen=True)
class Claim:
    """One paper claim a suite's records must satisfy.

    ``holds`` receives the suite's ``status == "ok"`` cell records (each
    with its ``cell`` and ``metrics`` dicts) and returns whether the claim
    holds on them.
    """

    name: str
    cites: str
    holds: Callable[[list[dict[str, Any]]], bool]

    def verdict(self, records: list[dict[str, Any]]) -> tuple[bool, str]:
        """``(held, line)`` for the ok records; a predicate that raises
        (say, on a missing cell) is a miss, with the error in the line."""
        try:
            held, why = bool(self.holds(records)), ""
        except (KeyError, ValueError, ZeroDivisionError) as exc:
            held, why = False, f" [{type(exc).__name__}: {exc}]"
        word = "held" if held else "MISSED"
        return held, f"claim {word}: {self.name} ({self.cites}){why}"


@dataclass(frozen=True)
class ScenarioSpec:
    """A named grid of cells: the cross product of every axis below."""

    name: str
    description: str = ""
    workloads: tuple[WorkloadSpec, ...] = ()
    presets: tuple[str, ...] = ("scaled",)
    regimes: tuple[str, ...] = ("auto",)
    algorithms: tuple[str, ...] = ("paper",)
    seeds: tuple[int, ...] = (0,)
    instance_seeds: tuple[int, ...] = (0,)
    #: Suggested per-cell wall-clock budget (the runner's default timeout).
    cell_timeout_s: float = 120.0
    #: Explicit cell list escape hatch for suites that are not grids --
    #: the ``pathology`` suite's cells come from individually promoted
    #: fuzzer finds, each with its own seeds and kwargs, so no cross
    #: product describes them.  When non-empty, the grid axes above are
    #: ignored and :meth:`cells` returns exactly these.
    fixed_cells: tuple[Cell, ...] = ()
    #: Paper claims checked over the ok records (not part of the grid, so
    #: they leave :meth:`spec_hash` alone).
    claims: tuple[Claim, ...] = ()

    def __post_init__(self) -> None:
        names = set(self.algorithms) | {c.algorithm for c in self.fixed_cells}
        unknown = sorted(names - set(ALGORITHMS))
        if unknown:
            raise ValueError(
                f"scenario {self.name!r}: unknown algorithm(s) "
                f"{', '.join(map(repr, unknown))}; choose from "
                f"{', '.join(ALGORITHMS)}"
            )

    def cells(self) -> list[Cell]:
        """Expand the grid, in deterministic order."""
        if self.fixed_cells:
            return list(self.fixed_cells)
        return list(self._iter_cells())

    def _iter_cells(self) -> Iterator[Cell]:
        for w in self.workloads:
            instance_seeds = (
                (w.instance_seed,) if w.instance_seed is not None
                else self.instance_seeds
            )
            for preset in self.presets:
                for regime in self.regimes:
                    for algorithm in self.algorithms:
                        for instance_seed in instance_seeds:
                            for seed in self.seeds:
                                yield Cell(
                                    suite=self.name,
                                    workload=w.name,
                                    workload_kwargs=w.kwargs,
                                    params=preset,
                                    regime=regime,
                                    algorithm=algorithm,
                                    seed=seed,
                                    instance_seed=instance_seed,
                                )

    def spec_hash(self) -> str:
        """Short content hash of the grid: two artifacts are comparable
        cell-for-cell when their spec hashes match."""
        payload = _canonical([c.key() for c in self.cells()])
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    def to_dict(self) -> dict[str, Any]:
        """Summary form for headers/logs (name, size, spec hash)."""
        return {
            "name": self.name,
            "description": self.description,
            "n_cells": len(self.cells()),
            "spec_hash": self.spec_hash(),
        }

    def check_claims(self, records: list[dict[str, Any]]) -> list[tuple[bool, str]]:
        """Each claim's ``(held, line)`` over the ``status == "ok"`` records."""
        ok = [r for r in records if r.get("status") == "ok"]
        return [claim.verdict(ok) for claim in self.claims]


def _sizes(name: str, sizes: tuple[int, ...], **common: Any) -> tuple[WorkloadSpec, ...]:
    return tuple(WorkloadSpec.of(name, n_vertices=s, **common) for s in sizes)


# ---------------------------------------------------------------------------
# Claim predicates over a suite's ok records.
# ---------------------------------------------------------------------------


def _all_proper(records: list[dict[str, Any]]) -> bool:
    return bool(records) and all(r["metrics"]["proper"] for r in records)


def _ends(
    records: list[dict[str, Any]], metric: str, algorithm: str = "paper"
) -> tuple[Any, Any]:
    """``metric`` of ``algorithm``'s cells at the smallest and the largest
    ``n_vertices``."""
    by_n = {
        r["cell"]["workload_kwargs"]["n_vertices"]: r["metrics"][metric]
        for r in records
        if r["cell"]["algorithm"] == algorithm
    }
    return by_n[min(by_n)], by_n[max(by_n)]


def _proper_claim(cites: str) -> Claim:
    return Claim("every cell proper", cites, _all_proper)


def _rounds_flat_in_n(records: list[dict[str, Any]]) -> bool:
    # 8x growth in n (and Delta) moves a log* round count by well under 40%
    smallest, largest = _ends(records, "rounds_h")
    return largest < 1.4 * smallest


def _proper_on_low_degree_path(records: list[dict[str, Any]]) -> bool:
    return _all_proper(records) and all(
        r["metrics"]["regime_effective"] == "low_degree" for r in records
    )


def _rounds_polyloglog_in_n(records: list[dict[str, Any]]) -> bool:
    # 16x growth in n barely moves a polyloglog round count
    smallest, largest = _ends(records, "rounds_h")
    return largest <= smallest + 12


def _messages_fit_cap(records: list[dict[str, Any]]) -> bool:
    return bool(records) and all(
        r["metrics"]["max_message_bits"] <= r["metrics"]["bandwidth_cap_bits"]
        for r in records
    )


def _g_over_h_tracks_dilation(records: list[dict[str, Any]]) -> bool:
    # rounds_g / rounds_h grows like d: from the smallest to the largest
    # dilation it grows within [0.5, 1.5]x the dilation's own growth
    ratio = {
        r["metrics"]["dilation"]: r["metrics"]["rounds_g"] / max(1, r["metrics"]["rounds_h"])
        for r in records
    }
    lo, hi = min(ratio), max(ratio)
    growth, expected = ratio[hi] / ratio[lo], hi / lo
    return 0.5 * expected <= growth <= 1.5 * expected


def _paper_flat_in_delta(records: list[dict[str, Any]]) -> bool:
    smallest, largest = _ends(records, "rounds_h")
    return largest < 1.3 * smallest


def _luby_grows_with_delta(records: list[dict[str, Any]]) -> bool:
    smallest, largest = _ends(records, "rounds_h", algorithm="luby")
    return largest > 2.0 * smallest


# ---------------------------------------------------------------------------
# Built-in suites.
#
# One suite per experiment whose claim is sweep-shaped (E1, E2, E11, E12,
# E13, E15); the lemma-level experiments E3-E10 and E14 are tier-1 tests
# (``tests/test_paper_claims.py``).  Plus cross-cutting suites: ``smoke``
# (CI-fast), ``cross_regime``, ``scale``, ``stream``, ``hetnet``,
# ``pathology`` and ``full``.
# ---------------------------------------------------------------------------

SUITES: dict[str, ScenarioSpec] = {}


def _register(spec: ScenarioSpec) -> ScenarioSpec:
    if spec.name in SUITES:
        raise ValueError(f"duplicate suite {spec.name!r}")
    SUITES[spec.name] = spec
    return spec


_register(
    ScenarioSpec(
        name="smoke",
        description="CI-fast end-to-end sweep: one small instance per family",
        workloads=(
            WorkloadSpec.of("figure1"),
            WorkloadSpec.of("congest", n=80),
            WorkloadSpec.of(
                "low_degree", n_vertices=150, target_degree=6, cluster_size=2
            ),
            WorkloadSpec.of("cabal", n_cabals=2, clique_size=24),
        ),
        seeds=(0, 1),
        cell_timeout_s=60.0,
    )
)

_register(
    ScenarioSpec(
        name="e1_rounds_high_degree",
        description="Theorem 1.2: H-rounds stay log*-flat while n and Delta grow",
        workloads=_sizes(
            "high_degree", (150, 300, 600, 1200), degree_fraction=0.5, cluster_size=2
        ),
        seeds=(9,),
        instance_seeds=(5,),
        cell_timeout_s=300.0,
        claims=(
            _proper_claim("Theorem 1.2"),
            Claim(
                "rounds_h at the largest n < 1.4x the smallest",
                "Theorem 1.2",
                _rounds_flat_in_n,
            ),
        ),
    )
)

_register(
    ScenarioSpec(
        name="e2_rounds_low_degree",
        description="Theorem 1.1: shattering path, rounds ~ polyloglog n",
        workloads=_sizes(
            "low_degree",
            (250, 500, 1000, 2000, 4000),
            target_degree=8,
            cluster_size=2,
            topology="star",
        ),
        seeds=(4,),
        instance_seeds=(6,),
        cell_timeout_s=300.0,
        claims=(
            Claim(
                "every cell proper, on the low-degree path",
                "Theorem 1.1",
                _proper_on_low_degree_path,
            ),
            Claim(
                "rounds_h at the largest n <= the smallest's + 12",
                "Theorem 1.1",
                _rounds_polyloglog_in_n,
            ),
        ),
    )
)

_register(
    ScenarioSpec(
        name="e11_bandwidth_compliance",
        description="Model compliance across every workload family",
        workloads=(
            WorkloadSpec.of("planted_acd"),
            WorkloadSpec.of("cabal"),
            WorkloadSpec.of("congest"),
            WorkloadSpec.of("contraction", n=300),
            WorkloadSpec.of("bridge"),
            WorkloadSpec.of("low_degree", n_vertices=300),
        ),
        seeds=(6,),
        instance_seeds=(53,),
        claims=(
            _proper_claim("Section 3.2"),
            Claim(
                "max_message_bits <= bandwidth_cap_bits in every cell",
                "Section 3.2",
                _messages_fit_cap,
            ),
        ),
    )
)

_register(
    ScenarioSpec(
        name="e12_dilation",
        description="Thm 1.1/1.2 d-dependency: same conflict graph, longer support paths",
        workloads=tuple(
            WorkloadSpec.of(
                "high_degree",
                n_vertices=150,
                degree_fraction=0.4,
                cluster_size=cs,
                topology=topo,
            )
            for cs, topo in ((2, "star"), (4, "path"), (8, "path"), (16, "path"))
        ),
        seeds=(12,),
        instance_seeds=(3,),
        cell_timeout_s=300.0,
        claims=(
            _proper_claim("Theorems 1.1/1.2"),
            Claim(
                "rounds_g / rounds_h grows within [0.5, 1.5]x the dilation",
                "Theorems 1.1/1.2, the d factor",
                _g_over_h_tracks_dilation,
            ),
        ),
    )
)

_register(
    ScenarioSpec(
        name="e13_baselines",
        description="Positioning vs. [FGH+24]/[Joh99]: all comparators on a Delta sweep",
        workloads=_sizes(
            "high_degree", (200, 500, 1000, 1600), degree_fraction=0.55, cluster_size=1
        ),
        algorithms=ONE_SHOT_ALGORITHMS,
        seeds=(3,),
        instance_seeds=(61,),
        cell_timeout_s=300.0,
        claims=(
            _proper_claim("Section 1.3"),
            Claim(
                "paper rounds_h at the largest n < 1.3x the smallest",
                "Section 1.3, Theorem 1.2",
                _paper_flat_in_delta,
            ),
            Claim(
                "luby rounds_h at the largest n > 2.0x the smallest",
                "Section 1.3, [Joh99]",
                _luby_grows_with_delta,
            ),
        ),
    )
)

_register(
    ScenarioSpec(
        name="e15_cross_regime",
        description="All three pipelines forced on the same instances",
        workloads=(
            # E15 has always measured these two specific instances
            WorkloadSpec.of("planted_acd", instance_seed=81),
            WorkloadSpec.of("cabal", instance_seed=82),
        ),
        regimes=("low_degree", "polylog", "high_degree"),
        seeds=(7,),
        claims=(_proper_claim("Sections 4, 9.1 and 9.2"),),
    )
)

_register(
    ScenarioSpec(
        name="cross_regime",
        description="Regime dispatch audit: every family under every forced regime",
        workloads=(
            WorkloadSpec.of("planted_acd"),
            WorkloadSpec.of("cabal"),
            WorkloadSpec.of("congest", n=200),
            WorkloadSpec.of("low_degree", n_vertices=300),
            WorkloadSpec.of("bridge"),
        ),
        regimes=("auto", "low_degree", "polylog", "high_degree"),
        seeds=(0, 1),
        cell_timeout_s=300.0,
    )
)

_register(
    ScenarioSpec(
        name="scale",
        description=(
            "Vectorized-core scaling: n up to 50k vertices across high-degree, "
            "low-degree, and Voronoi regimes (wall-time is the headline metric)"
        ),
        workloads=(
            WorkloadSpec.of(
                "low_degree",
                n_vertices=50_000,
                target_degree=8,
                cluster_size=1,
                topology="star",
            ),
            WorkloadSpec.of(
                "low_degree",
                n_vertices=20_000,
                target_degree=12,
                cluster_size=2,
                topology="star",
            ),
            WorkloadSpec.of("voronoi", n=50_000, avg_degree=10.0, n_clusters=12_500),
            WorkloadSpec.of("congest", n=20_000, avg_degree=24.0),
            WorkloadSpec.of(
                "high_degree", n_vertices=8_000, avg_degree=400.0, cluster_size=1
            ),
        ),
        seeds=(0,),
        instance_seeds=(0,),
        cell_timeout_s=1800.0,
    )
)

_register(
    ScenarioSpec(
        name="scale_smoke",
        description="CI-fast miniature of the scale suite (same families, small n)",
        workloads=(
            WorkloadSpec.of(
                "low_degree",
                n_vertices=2_000,
                target_degree=8,
                cluster_size=1,
                topology="star",
            ),
            WorkloadSpec.of("voronoi", n=2_000, avg_degree=10.0, n_clusters=500),
            WorkloadSpec.of(
                "high_degree", n_vertices=600, avg_degree=150.0, cluster_size=1
            ),
        ),
        seeds=(0,),
        cell_timeout_s=300.0,
    )
)

_register(
    ScenarioSpec(
        name="stream",
        description=(
            "Streaming update engine vs. recolor-from-scratch: 20k-vertex "
            "sliding-window turnover, hotspot skew, and cluster merge/split "
            "traces (headline metrics: recolor fraction and wall time)"
        ),
        workloads=(
            WorkloadSpec.of(
                "sliding_window",
                n_vertices=20_000,
                avg_degree=8.0,
                cluster_size=1,
                batches=10,
                churn_fraction=0.02,
            ),
            WorkloadSpec.of(
                "hotspot_churn",
                n_vertices=5_000,
                avg_degree=10.0,
                cluster_size=1,
                batches=10,
            ),
            WorkloadSpec.of(
                "cluster_churn",
                n_vertices=2_000,
                avg_degree=8.0,
                cluster_size=4,
                batches=8,
            ),
        ),
        algorithms=STREAM_ALGORITHMS,
        seeds=(0,),
        instance_seeds=(0,),
        cell_timeout_s=1800.0,
    )
)

_register(
    ScenarioSpec(
        name="stream_smoke",
        description="CI-fast miniature of the stream suite (same churn families)",
        workloads=(
            WorkloadSpec.of(
                "sliding_window", n_vertices=500, avg_degree=8.0, batches=6
            ),
            WorkloadSpec.of(
                "hotspot_churn", n_vertices=300, avg_degree=10.0, batches=5
            ),
            WorkloadSpec.of(
                "cluster_churn",
                n_vertices=150,
                avg_degree=8.0,
                cluster_size=4,
                batches=4,
            ),
        ),
        algorithms=STREAM_ALGORITHMS,
        seeds=(0,),
        cell_timeout_s=300.0,
    )
)

# ---------------------------------------------------------------------------
# The hetnet suite: simulated-time makespan on heterogeneous fabrics.
#
# Each workload is swept across the bandwidth-skew x slow-fill grid of
# docs/NETWORK.md via the generator-level ``net_*`` knobs.  The suite's
# two claims are the fabric model's contract: the knobs are invisible to
# the algorithm (same colorings, rounds, and bits in every grid column)
# and only ``makespan_ms`` moves, upward with the skew.  It is a
# fixed-cell suite because it mixes one-shot and stream algorithms per
# workload -- no single grid cross-product describes it.
# ---------------------------------------------------------------------------

#: The hetnet sweep grid: slow/standard bandwidth ratio x slow-machine fill.
HETNET_SKEWS = (1.0, 10.0, 100.0)
HETNET_FILLS = (0.01, 0.1)


def _hetnet_cells(
    suite: str,
    members: tuple[tuple[str, dict[str, Any], str], ...],
) -> tuple[Cell, ...]:
    """Expand ``(workload, kwargs, algorithm)`` triples across the
    skew x fill grid as pinned single-seed cells."""
    cells: list[Cell] = []
    for workload, kwargs, algorithm in members:
        for skew in HETNET_SKEWS:
            for fill in HETNET_FILLS:
                full = {**kwargs, "net_skew": skew, "net_fill": fill}
                cells.append(
                    Cell(
                        suite=suite,
                        workload=workload,
                        workload_kwargs=tuple(sorted(full.items())),
                        params="scaled",
                        regime="auto",
                        algorithm=algorithm,
                        seed=0,
                        instance_seed=0,
                    )
                )
    return tuple(cells)


def _net_groups(records: list[dict[str, Any]]) -> list[list[dict[str, Any]]]:
    """The records grouped by cell with the net knobs stripped: every
    member of a group ran the same algorithm on the same instance."""
    groups: dict[str, list[dict[str, Any]]] = {}
    for r in records:
        cell = Cell.from_dict(r["cell"])
        knobs = tuple(
            kv for kv in cell.workload_kwargs if kv[0] not in NET_PARAM_NAMES
        )
        key = replace(cell, workload_kwargs=knobs).key()
        groups.setdefault(key, []).append(r)
    return list(groups.values())


def _net_invisible(records: list[dict[str, Any]]) -> bool:
    pinned = ("coloring_digest", "rounds_h", "total_message_bits")
    groups = _net_groups(records)
    return bool(groups) and all(
        len({tuple(r["metrics"][m] for m in pinned) for r in group}) == 1
        for group in groups
    )


def _makespan_sees_skew(records: list[dict[str, Any]]) -> bool:
    # at the top fill of each group, the top-skew cell outlasts skew 1
    def rises(group: list[dict[str, Any]]) -> bool:
        makespan = {
            (r["cell"]["workload_kwargs"]["net_skew"],
             r["cell"]["workload_kwargs"]["net_fill"]): r["metrics"]["makespan_ms"]
            for r in group
        }
        top_skew = max(skew for skew, _ in makespan)
        top_fill = max(fill for _, fill in makespan)
        return makespan[top_skew, top_fill] > makespan[1.0, top_fill]

    groups = _net_groups(records)
    return bool(groups) and all(rises(group) for group in groups)


_register(
    ScenarioSpec(
        name="hetnet",
        description=(
            "Heterogeneous-fabric makespan sweep: bandwidth skew "
            "{1,10,100} x slow fill {1%,10%} across static and stream "
            "workloads (docs/NETWORK.md)"
        ),
        fixed_cells=_hetnet_cells(
            "hetnet",
            (
                ("congest", {"n": 300}, "paper"),
                ("low_degree", {"n_vertices": 500, "target_degree": 8}, "paper"),
                (
                    "sliding_window",
                    {"n_vertices": 1000, "avg_degree": 8.0, "batches": 8},
                    "dynamic",
                ),
                (
                    "hotspot_churn",
                    {"n_vertices": 800, "avg_degree": 10.0, "batches": 6},
                    "dynamic",
                ),
            ),
        ),
        cell_timeout_s=600.0,
        claims=(
            Claim(
                "coloring_digest, rounds_h and total_message_bits equal "
                "across net knobs",
                "Section 3.2, docs/NETWORK.md",
                _net_invisible,
            ),
            Claim(
                "makespan_ms at the top skew > at skew 1, at the top fill",
                "Section 3.2, docs/NETWORK.md",
                _makespan_sees_skew,
            ),
        ),
    )
)


# ---------------------------------------------------------------------------
# The pathology suite: pinned fuzzer finds (benchmarks/pathologies/).
#
# Each JSON file under PATHOLOGY_DIR is one promoted corpus entry from
# ``repro fuzz promote`` (schema "repro.fuzz", see docs/FUZZING.md) whose
# ``cell`` field is a ready-to-run cell dict.  Loading here -- rather than
# in repro.fuzz -- keeps the dependency one-way (fuzz imports experiments)
# while making every promoted blow-up a first-class suite runnable through
# sweep/compare like any grid suite.
# ---------------------------------------------------------------------------

#: Where promoted pathology entries live (committed, unlike the corpus).
PATHOLOGY_DIR = (
    pathlib.Path(__file__).resolve().parents[3] / "benchmarks" / "pathologies"
)


def pathology_suite(
    directory: str | pathlib.Path | None = None,
) -> ScenarioSpec | None:
    """Build the ``pathology`` suite from promoted fuzzer finds.

    Reads every ``*.json`` entry under ``directory`` (default:
    :data:`PATHOLOGY_DIR`) in filename order and pins its recorded cell,
    re-labelled into the ``pathology`` suite.  Returns ``None`` when the
    directory holds no entries (fresh checkouts without promoted finds),
    so callers can skip registration instead of exposing an empty suite.
    """
    directory = pathlib.Path(directory) if directory else PATHOLOGY_DIR
    if not directory.is_dir():
        return None
    cells: list[Cell] = []
    for path in sorted(directory.glob("*.json")):
        try:
            entry = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not JSON ({exc})") from exc
        cell = entry.get("cell") if isinstance(entry, dict) else None
        if not isinstance(cell, dict):
            raise ValueError(f"{path}: no 'cell' object")
        cells.append(Cell.from_dict({**cell, "suite": "pathology"}))
    if not cells:
        return None
    return ScenarioSpec(
        name="pathology",
        description=(
            "Pinned fuzzer-discovered pathological instances "
            "(promoted via `repro fuzz promote`; see docs/FUZZING.md)"
        ),
        fixed_cells=tuple(cells),
        cell_timeout_s=300.0,
    )


_pathology_spec = pathology_suite()
if _pathology_spec is not None:
    _register(_pathology_spec)


_register(
    ScenarioSpec(
        name="full",
        description="Every workload family, auto regime, three seeds",
        workloads=(
            WorkloadSpec.of("planted_acd"),
            WorkloadSpec.of("cabal"),
            WorkloadSpec.of("congest"),
            WorkloadSpec.of("contraction"),
            WorkloadSpec.of("voronoi"),
            WorkloadSpec.of("bridge"),
            WorkloadSpec.of("high_degree"),
            WorkloadSpec.of("low_degree"),
            WorkloadSpec.of("figure1"),
        ),
        seeds=(0, 1, 2),
        instance_seeds=(0,),
        cell_timeout_s=600.0,
    )
)
