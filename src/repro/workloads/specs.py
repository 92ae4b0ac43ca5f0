"""Machine-readable parameter specifications for the workload generators.

Every generator in :data:`~repro.workloads.generators.GENERATORS` takes a
keyword-only parameter set; this module is the single registry describing
those parameters -- name, type, hard validity bounds, and (for the fuzzer)
the *mutation box*: the smaller range inside which automated perturbation
is allowed to roam.  Two consumers:

- :func:`validate_params` runs at generator call time (wired in through
  the :func:`validated` decorator), so a bad parameter fails immediately
  with a message naming the parameter and its bounds instead of deep
  inside graph construction;
- :mod:`repro.fuzz.mutators` reads the same specs to jitter, redraw, and
  splice parameters while guaranteeing every candidate stays buildable.

Hard bounds are deliberately generous (they encode "the generator can
build this at all", e.g. the 50k-vertex scale suite); the fuzz box is
deliberately tight (it encodes "a smoke-budget fuzz run can afford to
evaluate this").
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Any

__all__ = [
    "NET_PARAM_NAMES",
    "PARAM_SPECS",
    "ParamSpec",
    "clamp_params",
    "fuzzable_params",
    "validate_params",
    "validated",
]

#: Cluster topologies the blowup builder understands (mirrors
#: ``repro.cluster.builders.ClusterTopology``; kept as data so the specs
#: module stays import-light).
TOPOLOGIES = ("path", "star", "clique", "tree", "bridge")

@dataclass(frozen=True)
class ParamSpec:
    """One generator parameter: type, validity bounds, and mutation box.

    ``low``/``high`` are the *hard* inclusive bounds a caller-supplied
    value must satisfy (``None`` = unbounded on that side).  ``fuzz``
    marks the parameter as mutable by the fuzzer; ``fuzz_low`` /
    ``fuzz_high`` bound the mutation box (defaulting to the hard bounds).
    ``role`` tags what the parameter controls -- ``"size"`` (instance
    scale, what the minimizer shrinks first), ``"structure"`` (planted
    shape: densities, cabal counts, hotspot rates -- what the structural
    mutator exaggerates), or ``"shape"`` (everything else).
    ``allow_none`` admits ``None`` (generator-computed default).
    """

    kind: str  # "int" | "float" | "choice"
    default: Any = None
    low: float | None = None
    high: float | None = None
    choices: tuple[Any, ...] | None = None
    fuzz: bool = False
    fuzz_low: float | None = None
    fuzz_high: float | None = None
    role: str = "shape"
    allow_none: bool = False

    @property
    def box(self) -> tuple[float, float]:
        """The mutation box ``(lo, hi)`` (falls back to the hard bounds)."""
        lo = self.fuzz_low if self.fuzz_low is not None else self.low
        hi = self.fuzz_high if self.fuzz_high is not None else self.high
        return (float(lo), float(hi))

    def check(self, name: str, value: Any) -> None:
        """Raise ``ValueError`` unless ``value`` is valid for this spec."""
        if value is None:
            if self.allow_none:
                return
            raise ValueError(f"parameter {name!r} does not accept None")
        if self.kind == "choice":
            if value not in (self.choices or ()):
                raise ValueError(
                    f"parameter {name!r} must be one of "
                    f"{', '.join(map(repr, self.choices or ()))}; got {value!r}"
                )
            return
        if self.kind == "int":
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(
                    f"parameter {name!r} must be an integer, got {value!r}"
                )
        elif self.kind == "float":
            if (
                isinstance(value, bool)
                or not isinstance(value, numbers.Real)
                or not math.isfinite(value)
            ):
                raise ValueError(
                    f"parameter {name!r} must be a finite number, got {value!r}"
                )
        else:  # pragma: no cover - registry construction error
            raise ValueError(f"parameter {name!r} has unknown kind {self.kind!r}")
        if self.low is not None and value < self.low:
            raise ValueError(
                f"parameter {name!r} must be >= {self.low:g}, got {value!r}"
            )
        if self.high is not None and value > self.high:
            raise ValueError(
                f"parameter {name!r} must be <= {self.high:g}, got {value!r}"
            )

    def clamp(self, value: Any) -> Any:
        """Coerce ``value`` into the mutation box (type-correctly)."""
        if value is None or self.kind == "choice":
            return value
        lo, hi = self.box
        clamped = min(max(float(value), lo), hi)
        return int(round(clamped)) if self.kind == "int" else float(clamped)


def _topology(default: str = "star") -> ParamSpec:
    return ParamSpec(
        kind="choice", default=default, choices=TOPOLOGIES, fuzz=True
    )


#: The heterogeneous-fabric knobs shared by *every* generator (handled
#: centrally in :func:`validated`, never passed to the generator body).
NET_PARAM_NAMES = ("net_skew", "net_fill")


def _net_specs() -> dict[str, ParamSpec]:
    """The heterogeneous network knobs (:mod:`repro.network.hetnet`).

    Both default to ``None`` (no model sampled: the homogeneous fabric,
    bitwise-identical to the pre-hetnet behavior), so they stay absent
    from ``full_params`` until a caller -- or a fuzzer ``redraw`` -- sets
    one.  ``net_skew`` is the slow/standard bandwidth ratio, ``net_fill``
    the fraction of machines drawn slow; fuzz boxes keep smoke-budget
    searches inside the sweep range the ``hetnet`` suites pin.
    """
    return {
        "net_skew": ParamSpec(
            kind="float", default=None, low=1.0, high=1e6, allow_none=True,
            fuzz=True, fuzz_low=1.0, fuzz_high=100.0, role="structure",
        ),
        "net_fill": ParamSpec(
            kind="float", default=None, low=0.0, high=1.0, allow_none=True,
            fuzz=True, fuzz_low=0.0, fuzz_high=0.2, role="structure",
        ),
    }


#: Per-generator parameter specifications, keyed exactly like
#: ``GENERATORS``.  Every keyword parameter of every registered generator
#: appears here; :func:`validate_params` rejects anything else.
PARAM_SPECS: dict[str, dict[str, ParamSpec]] = {
    "planted_acd": {
        "n_cliques": ParamSpec(
            kind="int", default=4, low=1, high=256,
            fuzz=True, fuzz_low=1, fuzz_high=8, role="structure",
        ),
        "clique_size": ParamSpec(
            kind="int", default=50, low=2, high=5000,
            fuzz=True, fuzz_low=8, fuzz_high=96, role="size",
        ),
        "anti_degree": ParamSpec(
            kind="int", default=1, low=0, high=256,
            fuzz=True, fuzz_low=0, fuzz_high=10, role="structure",
        ),
        "external_degree": ParamSpec(
            kind="int", default=2, low=0, high=1024,
            fuzz=True, fuzz_low=0, fuzz_high=16, role="structure",
        ),
        "n_sparse": ParamSpec(
            kind="int", default=60, low=0, high=100_000,
            fuzz=True, fuzz_low=0, fuzz_high=160, role="size",
        ),
        "sparse_degree_fraction": ParamSpec(
            kind="float", default=0.5, low=0.0, high=16.0,
            fuzz=True, fuzz_low=0.0, fuzz_high=2.0, role="structure",
        ),
        "cluster_size": ParamSpec(
            kind="int", default=3, low=1, high=128,
            fuzz=True, fuzz_low=1, fuzz_high=6, role="size",
        ),
        "topology": _topology(),
        "link_multiplicity": ParamSpec(
            kind="int", default=2, low=1, high=64,
            fuzz=True, fuzz_low=1, fuzz_high=4,
        ),
        **_net_specs(),
    },
    "cabal": {
        "n_cabals": ParamSpec(
            kind="int", default=3, low=1, high=128,
            fuzz=True, fuzz_low=1, fuzz_high=6, role="structure",
        ),
        "clique_size": ParamSpec(
            kind="int", default=60, low=2, high=5000,
            fuzz=True, fuzz_low=10, fuzz_high=96, role="size",
        ),
        "anti_degree": ParamSpec(
            kind="int", default=2, low=0, high=256,
            fuzz=True, fuzz_low=0, fuzz_high=12, role="structure",
        ),
        "inter_cabal_links": ParamSpec(
            kind="int", default=2, low=0, high=1024,
            fuzz=True, fuzz_low=0, fuzz_high=24, role="structure",
        ),
        "cluster_size": ParamSpec(
            kind="int", default=2, low=1, high=128,
            fuzz=True, fuzz_low=1, fuzz_high=4, role="size",
        ),
        "topology": _topology(),
        **_net_specs(),
    },
    "congest": {
        "n": ParamSpec(
            kind="int", default=300, low=2, high=500_000,
            fuzz=True, fuzz_low=40, fuzz_high=500, role="size",
        ),
        "p": ParamSpec(
            kind="float", default=None, low=0.0, high=1.0, allow_none=True,
            fuzz=True, fuzz_low=0.01, fuzz_high=0.6, role="structure",
        ),
        "avg_degree": ParamSpec(
            kind="float", default=None, low=0.0, high=4096.0, allow_none=True,
        ),
        **_net_specs(),
    },
    "contraction": {
        "n": ParamSpec(
            kind="int", default=600, low=2, high=500_000,
            fuzz=True, fuzz_low=60, fuzz_high=700, role="size",
        ),
        "p": ParamSpec(
            kind="float", default=0.02, low=0.0, high=1.0,
            fuzz=True, fuzz_low=0.005, fuzz_high=0.2, role="structure",
        ),
        "fraction": ParamSpec(
            kind="float", default=0.5, low=0.0, high=1.0,
            fuzz=True, fuzz_low=0.05, fuzz_high=0.95, role="structure",
        ),
        "avg_degree": ParamSpec(
            kind="float", default=None, low=0.0, high=4096.0, allow_none=True,
        ),
        **_net_specs(),
    },
    "voronoi": {
        "n": ParamSpec(
            kind="int", default=600, low=2, high=500_000,
            fuzz=True, fuzz_low=80, fuzz_high=800, role="size",
        ),
        "p": ParamSpec(
            kind="float", default=0.02, low=0.0, high=1.0,
            fuzz=True, fuzz_low=0.005, fuzz_high=0.15, role="structure",
        ),
        "n_clusters": ParamSpec(
            kind="int", default=150, low=1, high=500_000,
            fuzz=True, fuzz_low=10, fuzz_high=300, role="structure",
        ),
        "avg_degree": ParamSpec(
            kind="float", default=None, low=0.0, high=4096.0, allow_none=True,
        ),
        **_net_specs(),
    },
    "bridge": {
        "half_size": ParamSpec(
            kind="int", default=20, low=2, high=2000,
            fuzz=True, fuzz_low=2, fuzz_high=40, role="size",
        ),
        "external_per_side": ParamSpec(
            kind="int", default=10, low=1, high=2000,
            fuzz=True, fuzz_low=2, fuzz_high=40, role="structure",
        ),
        **_net_specs(),
    },
    "high_degree": {
        "n_vertices": ParamSpec(
            kind="int", default=400, low=2, high=500_000,
            fuzz=True, fuzz_low=60, fuzz_high=500, role="size",
        ),
        "degree_fraction": ParamSpec(
            kind="float", default=0.5, low=0.0, high=1.0,
            fuzz=True, fuzz_low=0.05, fuzz_high=0.9, role="structure",
        ),
        "cluster_size": ParamSpec(
            kind="int", default=2, low=1, high=128,
            fuzz=True, fuzz_low=1, fuzz_high=4, role="size",
        ),
        "topology": _topology(),
        "avg_degree": ParamSpec(
            kind="float", default=None, low=0.0, high=4096.0, allow_none=True,
        ),
        **_net_specs(),
    },
    "low_degree": {
        "n_vertices": ParamSpec(
            kind="int", default=500, low=4, high=500_000,
            fuzz=True, fuzz_low=60, fuzz_high=900, role="size",
        ),
        "target_degree": ParamSpec(
            kind="int", default=8, low=2, high=1024,
            fuzz=True, fuzz_low=3, fuzz_high=24, role="structure",
        ),
        "cluster_size": ParamSpec(
            kind="int", default=3, low=1, high=128,
            fuzz=True, fuzz_low=1, fuzz_high=6, role="size",
        ),
        "topology": _topology(default="path"),
        **_net_specs(),
    },
    "figure1": {**_net_specs()},
    "sliding_window": {
        "n_vertices": ParamSpec(
            kind="int", default=300, low=4, high=500_000,
            fuzz=True, fuzz_low=60, fuzz_high=500, role="size",
        ),
        "avg_degree": ParamSpec(
            kind="float", default=8.0, low=0.0, high=1024.0,
            fuzz=True, fuzz_low=3.0, fuzz_high=24.0, role="structure",
        ),
        "cluster_size": ParamSpec(
            kind="int", default=1, low=1, high=128,
            fuzz=True, fuzz_low=1, fuzz_high=3, role="size",
        ),
        "topology": _topology(),
        "batches": ParamSpec(
            kind="int", default=8, low=1, high=100_000,
            fuzz=True, fuzz_low=3, fuzz_high=12, role="size",
        ),
        "churn_fraction": ParamSpec(
            kind="float", default=0.05, low=0.0, high=1.0,
            fuzz=True, fuzz_low=0.01, fuzz_high=0.5, role="structure",
        ),
        **_net_specs(),
    },
    "hotspot_churn": {
        "n_vertices": ParamSpec(
            kind="int", default=300, low=4, high=500_000,
            fuzz=True, fuzz_low=60, fuzz_high=500, role="size",
        ),
        "avg_degree": ParamSpec(
            kind="float", default=10.0, low=0.0, high=1024.0,
            fuzz=True, fuzz_low=3.0, fuzz_high=24.0, role="structure",
        ),
        "cluster_size": ParamSpec(
            kind="int", default=1, low=1, high=128,
            fuzz=True, fuzz_low=1, fuzz_high=3, role="size",
        ),
        "topology": _topology(),
        "batches": ParamSpec(
            kind="int", default=8, low=1, high=100_000,
            fuzz=True, fuzz_low=3, fuzz_high=12, role="size",
        ),
        "hotspot_fraction": ParamSpec(
            # fuzz box reaches 0.9: with the old 0.3 ceiling no in-box
            # parameter set could dirty more than the engine's
            # _ESCALATE_FRACTION of the graph, so the "escalations" fuzz
            # objective could never fire (tests/test_fuzz.py pins an
            # in-box escalating cell)
            kind="float", default=0.05, low=0.0, high=1.0,
            fuzz=True, fuzz_low=0.01, fuzz_high=0.9, role="structure",
        ),
        "churn_edges": ParamSpec(
            kind="int", default=None, low=0, high=1_000_000, allow_none=True,
            fuzz=True, fuzz_low=4, fuzz_high=400, role="structure",
        ),
        "arrivals": ParamSpec(
            kind="int", default=4, low=0, high=1024,
            fuzz=True, fuzz_low=0, fuzz_high=12, role="structure",
        ),
        "departures": ParamSpec(
            kind="int", default=2, low=0, high=1024,
            fuzz=True, fuzz_low=0, fuzz_high=12, role="structure",
        ),
        **_net_specs(),
    },
    "cluster_churn": {
        "n_vertices": ParamSpec(
            kind="int", default=150, low=4, high=500_000,
            fuzz=True, fuzz_low=40, fuzz_high=400, role="size",
        ),
        "avg_degree": ParamSpec(
            kind="float", default=8.0, low=0.0, high=1024.0,
            fuzz=True, fuzz_low=3.0, fuzz_high=20.0, role="structure",
        ),
        "cluster_size": ParamSpec(
            # the generator needs >= 2 to have anything to split
            kind="int", default=4, low=2, high=128,
            fuzz=True, fuzz_low=2, fuzz_high=8, role="size",
        ),
        "topology": _topology(),
        "batches": ParamSpec(
            kind="int", default=6, low=1, high=100_000,
            fuzz=True, fuzz_low=2, fuzz_high=10, role="size",
        ),
        "merges_per_batch": ParamSpec(
            kind="int", default=3, low=0, high=1024,
            fuzz=True, fuzz_low=0, fuzz_high=8, role="structure",
        ),
        "splits_per_batch": ParamSpec(
            kind="int", default=3, low=0, high=1024,
            fuzz=True, fuzz_low=0, fuzz_high=8, role="structure",
        ),
        "churn_edges": ParamSpec(
            kind="int", default=None, low=0, high=1_000_000, allow_none=True,
            fuzz=True, fuzz_low=2, fuzz_high=200, role="structure",
        ),
        **_net_specs(),
    },
}


def validate_params(name: str, kwargs: dict[str, Any]) -> None:
    """Validate generator kwargs against :data:`PARAM_SPECS`.

    Raises ``ValueError`` naming the offending parameter (unknown name,
    wrong type, out of hard bounds) -- the error a caller sees *before*
    any graph construction starts.  Unknown generator names raise too, so
    a registry/spec drift cannot silently skip validation.
    """
    try:
        specs = PARAM_SPECS[name]
    except KeyError:
        raise ValueError(
            f"no parameter specs registered for generator {name!r}"
        ) from None
    for key, value in kwargs.items():
        spec = specs.get(key)
        if spec is None:
            raise ValueError(
                f"generator {name!r} has no parameter {key!r}; valid "
                f"parameters: {', '.join(sorted(specs)) or '(none)'}"
            )
        spec.check(key, value)


def clamp_params(name: str, params: dict[str, Any]) -> dict[str, Any]:
    """Coerce every fuzz-mutable value into its mutation box.

    The post-condition every mutator relies on: the returned dict passes
    :func:`validate_params` and the generator can build it.  Non-mutable
    keys pass through unchanged (they were never mutated); a couple of
    cross-parameter constraints that per-parameter boxes cannot express
    are clamped here.
    """
    specs = PARAM_SPECS[name]
    out = dict(params)
    for key, value in out.items():
        spec = specs.get(key)
        if spec is not None and spec.fuzz:
            out[key] = spec.clamp(value)
    # cross-parameter constraints
    if name == "voronoi" and "n_clusters" in out:
        n = out.get("n", specs["n"].default)
        out["n_clusters"] = max(1, min(int(out["n_clusters"]), int(n)))
    if name == "low_degree" and "target_degree" in out:
        n = out.get("n_vertices", specs["n_vertices"].default)
        out["target_degree"] = max(2, min(int(out["target_degree"]), int(n) - 1))
    return out


def fuzzable_params(name: str) -> dict[str, ParamSpec]:
    """The subset of ``PARAM_SPECS[name]`` the fuzzer may mutate."""
    return {k: s for k, s in PARAM_SPECS[name].items() if s.fuzz}


def validated(name: str):
    """Decorator wiring :func:`validate_params` into a generator.

    Applied at definition time in :mod:`repro.workloads.generators` and
    :mod:`repro.workloads.streams`, so both registry dispatch *and* direct
    imports get call-time validation.

    The decorator is also where the heterogeneous-fabric knobs
    (:data:`NET_PARAM_NAMES`) are handled: they are validated like any
    other parameter, then *popped* before the generator body runs -- no
    generator knows about them.  When any is set, a
    :class:`~repro.network.hetnet.HetNetModel` is sampled over the built
    workload's communication graph from a ``SeedSequence`` child spawned
    off the workload RNG (spawning consumes no bit-stream draws, so the
    graph itself is bit-identical with the knobs on or off) and attached
    as ``workload.netmodel`` (its ``spec`` is the requested
    :class:`~repro.network.hetnet.HetNetSpec`).
    """
    import functools

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(rng=None, **kwargs):
            validate_params(name, kwargs)
            net = {k: kwargs.pop(k) for k in NET_PARAM_NAMES if k in kwargs}
            workload = fn(rng, **kwargs)
            if any(v is not None for v in net.values()):
                import numpy as np

                from repro.network.hetnet import HetNetModel, HetNetSpec

                spec = HetNetSpec(
                    skew=net.get("net_skew") or 1.0,
                    fill=net["net_fill"] if net.get("net_fill") is not None
                    else 0.1,
                )
                source = rng if rng is not None else np.random.default_rng(0)
                workload.netmodel = HetNetModel.sample(
                    workload.graph, spec, source.spawn(1)[0]
                )
            return workload

        return wrapper

    return decorate
