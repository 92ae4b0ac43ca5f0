"""Churn workload generators: streams of update batches with known shape.

A :class:`StreamWorkload` is a :class:`~repro.workloads.generators.Workload`
plus a pre-generated list of :class:`~repro.dynamic.updates.UpdateBatch`
objects, deterministic given the rng.  Three churn families mirror how
production cluster graphs actually move:

* :func:`sliding_window_stream` -- an edge stream with a fixed-size window:
  every batch retires the oldest links and admits fresh ones (steady-state
  turnover, the classic dynamic-graph benchmark shape);
* :func:`hotspot_churn_stream` -- churn concentrated on a small hot subset,
  plus machine arrivals wired into the hotspot and departures elsewhere
  (skewed traffic, the "heavy traffic" shape of the ROADMAP north star);
* :func:`cluster_churn_stream` -- cluster merge/split traces with background
  edge churn (the contraction/decomposition shape: clusters are transient).

Generators validate their own events against a *shadow* of the engine's
structural state (``_Shadow``, a base CSR plus per-vertex edit sets), so
every emitted batch is applicable by construction; the engine re-validates
on application and raises on any drift.

Each generator writes a batch as columns, one run per update kind in
:data:`~repro.dynamic.updates.KINDS` order
(:meth:`~repro.dynamic.updates.UpdateBatch.from_runs`): slices of numpy
edge arrays where it has them, short per-batch lists otherwise.  No
per-update Python object outlives the batch it belongs to, so a stream of
hundreds of thousands of updates costs a few dozen bytes per update.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.builders import ClusterTopology, blowup
from repro.dynamic.updates import UpdateBatch
from repro.workloads.generators import GENERATORS, Workload, _random_network
from repro.workloads.specs import validated


@dataclass
class StreamWorkload(Workload):
    """A churn instance: initial graph + the update batches to absorb."""

    batches: list[UpdateBatch] = field(default_factory=list)

    @property
    def total_updates(self) -> int:
        """Number of structural events across every batch."""
        return sum(len(b) for b in self.batches)


class _Shadow:
    """Generator-side mirror of the engine's structural state.

    Tracks just enough (adjacency + cluster sizes + liveness) to emit only
    applicable events; the engine's own application is the authority and
    raises if a generator ever drifts from these semantics.

    The adjacency is the immutable base CSR plus per-vertex *sets* of
    inserted (non-base) and deleted (base) edges, never compacted.  That is
    deliberately not :class:`~repro.dynamic.delta.DeltaCSR`: the generators
    draw edges by index into :meth:`edge_arrays`, so its order is part of
    every generated stream.  It is the surviving base edges in base order,
    then the overlay in Python set iteration order -- which depends on the
    exact sequence of set operations below.  Changing this class changes
    the pinned streams; it runs only while a stream is generated.
    """

    def __init__(self, graph):
        self.base = graph.csr
        self.alive_mask = np.ones(graph.n_vertices, dtype=bool)
        self.sizes = np.diff(graph.forest.offsets).tolist()
        # _deleted only holds base edges, _inserted only non-base edges
        self._inserted: dict[int, set[int]] = {}
        self._deleted: dict[int, set[int]] = {}

    def alive_vertices(self) -> np.ndarray:
        return np.flatnonzero(self.alive_mask)

    def _base_has(self, u: int, v: int) -> bool:
        return u < self.base.n_vertices and self.base.has_edge(u, v)

    def has_edge(self, u: int, v: int) -> bool:
        if v in self._inserted.get(u, ()):
            return True
        if v in self._deleted.get(u, ()):
            return False
        return self._base_has(u, v)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted current neighbors of ``v`` (dead vertices: empty)."""
        if not self.alive_mask[v]:
            return np.empty(0, dtype=np.int64)
        nbrs = (
            self.base.neighbors(v)
            if v < self.base.n_vertices
            else np.empty(0, dtype=np.int64)
        )
        dels = self._deleted.get(v)
        if dels:
            nbrs = nbrs[~np.isin(nbrs, np.fromiter(dels, dtype=np.int64))]
        ins = self._inserted.get(v)
        if ins:
            extra = np.fromiter(ins, dtype=np.int64, count=len(ins))
            nbrs = np.sort(np.concatenate([nbrs, extra]))
        return nbrs

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Current edges as ``(u, v)`` arrays with ``u < v``, in the order
        the generators index into (see the class docstring)."""
        n = self.alive_mask.size
        base_u, base_v = self.base.edge_arrays()
        if any(self._deleted.values()):
            dead = np.fromiter(
                (u * n + w for u, ws in self._deleted.items() for w in ws if u < w),
                dtype=np.int64,
            )
            keep = ~np.isin(base_u * n + base_v, dead)
            base_u, base_v = base_u[keep], base_v[keep]
        ins = [(u, w) for u, ws in self._inserted.items() for w in ws if u < w]
        if not ins:
            return base_u, base_v
        pairs = np.asarray(ins, dtype=np.int64)
        return (
            np.concatenate([base_u, pairs[:, 0]]),
            np.concatenate([base_v, pairs[:, 1]]),
        )

    def insert(self, u: int, v: int) -> None:
        if self._base_has(u, v):  # resurrect a base edge: undo its deletion
            self._deleted[u].discard(v)
            self._deleted[v].discard(u)
        else:
            self._inserted.setdefault(u, set()).add(v)
            self._inserted.setdefault(v, set()).add(u)

    def delete(self, u: int, v: int) -> None:
        ins_u = self._inserted.get(u)
        if ins_u is not None and v in ins_u:  # overlay-only edge: cancel it
            ins_u.discard(v)
            self._inserted[v].discard(u)
        else:
            self._deleted.setdefault(u, set()).add(v)
            self._deleted.setdefault(v, set()).add(u)

    def _add_vertex(self, size: int) -> int:
        self.alive_mask = np.append(self.alive_mask, True)
        self.sizes.append(size)
        return self.alive_mask.size - 1

    def _remove_vertex(self, v: int) -> list[int]:
        detached = [int(u) for u in self.neighbors(v)]
        for u in detached:
            self.delete(v, u)
        self.alive_mask[v] = False
        return detached

    def add(self, edges, size: int) -> int:
        w = self._add_vertex(size)
        for x in edges:
            self.insert(w, int(x))
        return w

    def remove(self, v: int) -> None:
        self._remove_vertex(v)
        self.sizes[v] = 0

    def merge(self, u: int, v: int) -> None:
        for x in self._remove_vertex(v):
            if x != u and not self.has_edge(u, x):
                self.insert(u, x)
        self.sizes[u] += self.sizes[v]
        self.sizes[v] = 0

    def split(self, u: int, moved, size: int) -> int:
        size = max(1, min(int(size), self.sizes[u] - 1))
        w = self._add_vertex(size)
        self.sizes[u] -= size
        for x in moved:
            self.delete(u, int(x))
            self.insert(w, int(x))
        self.insert(u, w)
        return w


def _initial_graph(
    rng: np.random.Generator,
    n_vertices: int,
    avg_degree: float,
    cluster_size: int,
    topology: ClusterTopology,
):
    """A connected random conflict graph blown up into clusters."""
    h = _random_network(rng, n_vertices, 0.0, avg_degree)
    return blowup(h, rng, cluster_size=cluster_size, topology=topology)


def _sample_new_edge(
    rng: np.random.Generator,
    shadow: _Shadow,
    pool_u: np.ndarray,
    pool_v: np.ndarray,
    max_tries: int = 64,
) -> tuple[int, int] | None:
    """A uniformly drawn currently-absent pair (endpoint pools may differ)."""
    for _ in range(max_tries):
        u = int(pool_u[rng.integers(0, pool_u.size)])
        v = int(pool_v[rng.integers(0, pool_v.size)])
        if u != v and not shadow.has_edge(u, v):
            return (u, v)
    return None


@validated("sliding_window")
def sliding_window_stream(
    rng: np.random.Generator,
    *,
    n_vertices: int = 300,
    avg_degree: float = 8.0,
    cluster_size: int = 1,
    topology: ClusterTopology = "star",
    batches: int = 8,
    churn_fraction: float = 0.05,
) -> StreamWorkload:
    """Sliding-window edge turnover: each batch retires the
    ``churn_fraction`` oldest edges and admits as many fresh random ones.

    The live edge count (and hence the degree profile) stays roughly
    stationary, so this isolates pure *turnover* cost -- the acceptance
    scenario of the dynamic subsystem.
    """
    graph = _initial_graph(rng, n_vertices, avg_degree, cluster_size, topology)
    shadow = _Shadow(graph)
    edge_u, edge_v = graph.h_edge_arrays()
    churn = max(1, int(churn_fraction * edge_u.size))
    # the window is a FIFO over one edge table: the initial edges, then
    # every admitted edge in admission order; it holds rows head:tail
    window_u = np.empty(edge_u.size + batches * churn, dtype=np.int64)
    window_v = np.empty_like(window_u)
    window_u[: edge_u.size], window_v[: edge_u.size] = edge_u, edge_v
    head, tail = 0, edge_u.size
    verts = shadow.alive_vertices()
    out: list[UpdateBatch] = []
    for _ in range(batches):
        retired = slice(head, min(head + churn, tail))
        head = retired.stop
        for u, v in zip(window_u[retired].tolist(), window_v[retired].tolist()):
            shadow.delete(u, v)
        start = tail
        for _ in range(churn):
            pair = _sample_new_edge(rng, shadow, verts, verts)
            if pair is None:
                continue
            shadow.insert(*pair)
            window_u[tail], window_v[tail] = pair
            tail += 1
        admitted = slice(start, tail)
        out.append(
            UpdateBatch.from_runs(
                edge_delete={"u": window_u[retired], "v": window_v[retired]},
                edge_insert={"u": window_u[admitted], "v": window_v[admitted]},
            )
        )
    return StreamWorkload(
        name="sliding_window",
        graph=graph,
        notes=(
            f"{batches} batches x {churn} edge turnover on "
            f"G(n={n_vertices}, d~{avg_degree:g})"
        ),
        batches=out,
    )


@validated("hotspot_churn")
def hotspot_churn_stream(
    rng: np.random.Generator,
    *,
    n_vertices: int = 300,
    avg_degree: float = 10.0,
    cluster_size: int = 1,
    topology: ClusterTopology = "star",
    batches: int = 8,
    hotspot_fraction: float = 0.05,
    churn_edges: int | None = None,
    arrivals: int = 4,
    departures: int = 2,
) -> StreamWorkload:
    """Skewed churn: edge turnover concentrated on a small hotspot, new
    clusters arriving wired into the hotspot, old ones departing elsewhere.

    Hotspot degrees drift upward, exercising palette *growth*; departures
    exercise shrinkage and the palette-retightening path.
    """
    graph = _initial_graph(rng, n_vertices, avg_degree, cluster_size, topology)
    shadow = _Shadow(graph)
    hot_count = max(2, int(hotspot_fraction * n_vertices))
    hotspot = np.arange(hot_count, dtype=np.int64)
    churn = (
        churn_edges
        if churn_edges is not None
        else max(1, int(0.02 * graph.n_h_edges))
    )
    out: list[UpdateBatch] = []
    for _ in range(batches):
        # retire random hotspot-incident edges (any edge when none left)
        edge_u, edge_v = shadow.edge_arrays()
        touches_hot = (edge_u < hot_count) | (edge_v < hot_count)
        pool = np.flatnonzero(touches_hot)
        if pool.size == 0:
            pool = np.arange(edge_u.size)
        take = min(churn, pool.size)
        picked = rng.choice(pool, size=take, replace=False)
        deleted = {"u": edge_u[picked], "v": edge_v[picked]}
        for u, v in zip(deleted["u"].tolist(), deleted["v"].tolist()):
            shadow.delete(u, v)
        # departures: non-hotspot veterans leave wholesale
        departed: dict[str, list] = {"u": []}
        candidates = shadow.alive_vertices()
        candidates = candidates[candidates >= hot_count]
        for _ in range(min(departures, max(0, candidates.size - 1))):
            v = int(candidates[rng.integers(0, candidates.size)])
            departed["u"].append(v)
            shadow.remove(v)
            candidates = candidates[candidates != v]
        # arrivals: new clusters wired into the hotspot
        arrived: dict[str, list] = {"size": [], "edges": []}
        for _ in range(arrivals):
            alive_hot = hotspot[shadow.alive_mask[hotspot]]
            if alive_hot.size == 0:
                break
            k = min(3, alive_hot.size)
            targets = [int(t) for t in rng.choice(alive_hot, size=k, replace=False)]
            size = int(rng.integers(1, 4))
            arrived["size"].append(size)
            arrived["edges"].append(targets)
            shadow.add(targets, size=size)
        # fresh hotspot-incident edges
        inserted: dict[str, list] = {"u": [], "v": []}
        verts = shadow.alive_vertices()
        alive_hot = hotspot[shadow.alive_mask[hotspot]]
        if alive_hot.size:
            for _ in range(churn):
                pair = _sample_new_edge(rng, shadow, alive_hot, verts)
                if pair is None:
                    continue
                inserted["u"].append(pair[0])
                inserted["v"].append(pair[1])
                shadow.insert(*pair)
        out.append(
            UpdateBatch.from_runs(
                edge_delete=deleted,
                vertex_remove=departed,
                vertex_add=arrived,
                edge_insert=inserted,
            )
        )
    return StreamWorkload(
        name="hotspot_churn",
        graph=graph,
        notes=(
            f"{batches} batches, {hot_count}-vertex hotspot, "
            f"{churn} edge churn + {arrivals} arrivals/{departures} departures"
        ),
        batches=out,
    )


@validated("cluster_churn")
def cluster_churn_stream(
    rng: np.random.Generator,
    *,
    n_vertices: int = 150,
    avg_degree: float = 8.0,
    cluster_size: int = 4,
    topology: ClusterTopology = "star",
    batches: int = 6,
    merges_per_batch: int = 3,
    splits_per_batch: int = 3,
    churn_edges: int | None = None,
) -> StreamWorkload:
    """Merge/split traces: clusters coalesce and fission while background
    edge churn keeps the conflict frontier moving -- the shape contraction
    and decomposition algorithms impose on their cluster graphs."""
    if cluster_size < 2:
        raise ValueError("cluster_churn_stream needs cluster_size >= 2 to split")
    graph = _initial_graph(rng, n_vertices, avg_degree, cluster_size, topology)
    shadow = _Shadow(graph)
    churn = (
        churn_edges
        if churn_edges is not None
        else max(1, int(0.02 * graph.n_h_edges))
    )
    out: list[UpdateBatch] = []
    for _ in range(batches):
        # background edge churn first (matches the batch application order)
        edge_u, edge_v = shadow.edge_arrays()
        take = min(churn, edge_u.size)
        picked = rng.choice(edge_u.size, size=take, replace=False)
        deleted = {"u": edge_u[picked], "v": edge_v[picked]}
        for u, v in zip(deleted["u"].tolist(), deleted["v"].tolist()):
            shadow.delete(u, v)
        inserted: dict[str, list] = {"u": [], "v": []}
        verts = shadow.alive_vertices()
        for _ in range(churn):
            pair = _sample_new_edge(rng, shadow, verts, verts)
            if pair is None:
                continue
            inserted["u"].append(pair[0])
            inserted["v"].append(pair[1])
            shadow.insert(*pair)
        # merges: adjacent alive pairs coalesce
        merged: dict[str, list] = {"u": [], "v": []}
        for _ in range(merges_per_batch):
            edge_u, edge_v = shadow.edge_arrays()
            if edge_u.size == 0:
                break
            i = int(rng.integers(0, edge_u.size))
            u, v = int(edge_u[i]), int(edge_v[i])
            merged["u"].append(u)
            merged["v"].append(v)
            shadow.merge(u, v)
        # splits: big-enough clusters shed half their neighbors
        split: dict[str, list] = {"u": [], "size": [], "edges": []}
        for _ in range(splits_per_batch):
            candidates = [
                int(v)
                for v in shadow.alive_vertices()
                if shadow.sizes[v] >= 2 and shadow.neighbors(int(v)).size >= 1
            ]
            if not candidates:
                break
            u = candidates[int(rng.integers(0, len(candidates)))]
            nbrs = shadow.neighbors(u)
            k = int(nbrs.size) // 2
            moved = (
                [int(x) for x in rng.choice(nbrs, size=k, replace=False)]
                if k
                else []
            )
            size = max(1, shadow.sizes[u] // 2)
            split["u"].append(u)
            split["size"].append(size)
            split["edges"].append(moved)
            shadow.split(u, moved, size)
        out.append(
            UpdateBatch.from_runs(
                edge_delete=deleted,
                edge_insert=inserted,
                cluster_merge=merged,
                cluster_split=split,
            )
        )
    return StreamWorkload(
        name="cluster_churn",
        graph=graph,
        notes=(
            f"{batches} batches, {merges_per_batch} merges + "
            f"{splits_per_batch} splits each, {churn} edge churn"
        ),
        batches=out,
    )


#: Stream-capable generators (every entry also lives in ``GENERATORS``, so
#: listings, sweeps, and the CLI resolve them uniformly; this sub-registry
#: is what stream-only surfaces -- ``repro stream``, the stream suites --
#: iterate).
STREAMS = {
    "sliding_window": sliding_window_stream,
    "hotspot_churn": hotspot_churn_stream,
    "cluster_churn": cluster_churn_stream,
}

GENERATORS.update(STREAMS)
