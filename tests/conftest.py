"""Shared fixtures: deterministic rngs and session-cached workloads.

Also registers the shared hypothesis profile: the deadline is disabled
suite-wide (per-example wall clocks flake under CI load and parallel
sweeps; our properties assert values, not latency) and ``print_blob`` is
on so a failing example prints its reproduction blob for an exact
``@reproduce_failure`` re-run.  Per-file ``@settings`` now only override
``max_examples`` and health checks, never the deadline.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings as hypothesis_settings

hypothesis_settings.register_profile(
    "repro", deadline=None, print_blob=True
)
hypothesis_settings.load_profile("repro")

from repro.aggregation import ClusterRuntime
from repro.params import scaled
from repro.workloads import (
    cabal_instance,
    congest_instance,
    figure1_example,
    planted_acd_instance,
)


@pytest.fixture
def rng() -> np.random.Generator:
    """Fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def planted_workload():
    """A planted-ACD instance shared across the session (read-only)."""
    return planted_acd_instance(np.random.default_rng(777))


@pytest.fixture(scope="session")
def cabal_workload():
    """A cabal-heavy instance shared across the session (read-only)."""
    return cabal_instance(np.random.default_rng(778))


@pytest.fixture(scope="session")
def congest_workload():
    """An identity-cluster instance shared across the session (read-only)."""
    return congest_instance(np.random.default_rng(779))


@pytest.fixture(scope="session")
def figure1_workload():
    """The hand-built Figure 1 example."""
    return figure1_example()


def make_runtime(graph, seed: int = 5) -> ClusterRuntime:
    """Fresh runtime bound to a graph (helper, not a fixture, so tests can
    spawn several against one session-scoped graph)."""
    return ClusterRuntime(
        graph=graph, params=scaled(), rng=np.random.default_rng(seed)
    )


def neighborhood_maxima(
    rows: np.ndarray, edges_src: np.ndarray, edges_dst: np.ndarray, n_vertices: int
) -> np.ndarray:
    """Oracle for the buddy predicate's neighborhood maxima: one
    ``np.maximum.at`` scatter over every directed edge, so ``Y[v] = max
    over u in N(v) of rows[u]`` (``EMPTY_MAX`` where ``N(v)`` is empty)."""
    from repro.sketch.geometric import EMPTY_MAX

    out = np.full((n_vertices, rows.shape[1]), EMPTY_MAX, dtype=rows.dtype)
    np.maximum.at(out, edges_dst, rows[edges_src])
    return out


def packed_planes(maxima: np.ndarray, first: int, last: int) -> np.ndarray:
    """Oracle threshold planes: the bits ``maxima < k`` for every ``k`` in
    ``[first, last]``, packed 64 trials per word (padding bits clear) into
    the ``(rows, levels, words)`` uint64 layout ``UnionPlanes`` reads."""
    n, t = maxima.shape
    words = (t + 63) // 64
    bits = np.zeros((n, last - first + 1, words * 64), dtype=bool)
    levels = np.arange(first, last + 1)
    bits[:, :, :t] = maxima[:, None, :] < levels[None, :, None]
    return np.packbits(bits, axis=2).view(np.uint64)


def union_planes(maxima: np.ndarray):
    """``UnionPlanes`` of a maxima matrix, through :func:`packed_planes`
    over every level from the smallest value (no row holds a bit there)
    to the largest plus one (every row holds ``t``)."""
    from repro.sketch import EMPTY_MAX, UnionPlanes

    first = max(int(maxima.min()), 0)
    last = int(maxima.max()) + 1
    return UnionPlanes(
        packed_planes(maxima, first, last),
        first,
        maxima.shape[1],
        np.all(maxima == EMPTY_MAX, axis=1),
    )
