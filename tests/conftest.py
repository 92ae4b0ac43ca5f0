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


def h_edges(graph) -> list[tuple[int, int]]:
    """Every H-edge ``(u, v)`` with ``u < v``, in lexicographic order."""
    edge_u, edge_v = graph.h_edge_arrays()
    return list(zip(edge_u.tolist(), edge_v.tolist()))


def csr_from_adj_lists(adj):
    """Oracle CSR laid out row by row from per-vertex neighbor lists."""
    from repro.graphcore import CSRAdjacency

    indptr = np.zeros(len(adj) + 1, dtype=np.int64)
    np.cumsum(np.array([len(a) for a in adj], dtype=np.int64), out=indptr[1:])
    indices = np.array([u for a in adj for u in a], dtype=np.int64)
    return CSRAdjacency(indptr=indptr, indices=indices)


def is_total(coloring) -> bool:
    """Whether every vertex of a ``PartialColoring`` is colored."""
    from repro.coloring import UNCOLORED

    return bool((coloring.colors != UNCOLORED).all())


def slack(coloring, graph, v: int) -> int:
    """Oracle ``s_φ(v) = |L_φ(v)| - deg_φ(v)`` (Section 3.1): free colors
    minus uncolored neighbors."""
    from repro.coloring import UNCOLORED

    nbrs = graph.neighbor_array(v)
    uncolored = int(np.count_nonzero(coloring.colors[nbrs] == UNCOLORED))
    return coloring.palette_array(graph, v).size - uncolored


def external_degree(acd, graph, v: int) -> int:
    """Exact ``e_v``: neighbors outside ``v``'s almost-clique (all of them
    for a sparse vertex)."""
    idx = int(acd.clique_of[v])
    if idx < 0:
        return graph.degree(v)
    members = set(acd.cliques[idx])
    return sum(1 for u in graph.neighbors(v) if u not in members)


def anti_degree(acd, graph, v: int) -> int:
    """Exact ``a_v = |K_v \\ N(v)| - 1`` (self excluded; 0 if sparse)."""
    idx = int(acd.clique_of[v])
    if idx < 0:
        return 0
    nbrs = set(graph.neighbors(v))
    return sum(1 for u in acd.cliques[idx] if u != v and u not in nbrs)


def set_fingerprint(table, vertices):
    """The ``Fingerprint`` of a vertex set: the max over its rows of a
    ``FingerprintTable`` (the merge identity for an empty set)."""
    from repro.sketch import Fingerprint

    idx = np.fromiter(vertices, dtype=np.int64)
    if idx.size == 0:
        return Fingerprint.empty(table.trials)
    return Fingerprint(table.rows[idx].max(axis=0).astype(np.int64))
