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
    """A churn instance: initial graph + the update batches to absorb.

    ``arrivals`` (optional) turns the batch list into an *open-loop trace*:
    ``arrivals[i]`` is the offset in seconds, from trace start, at which
    batch ``i`` arrives at the service -- generated by
    :func:`arrival_offsets` when the generator was asked for an
    ``arrival_profile``.  Workloads without arrivals replay back-to-back
    (every batch arrives at t=0, so queueing delay is not meaningful).
    """

    batches: list[UpdateBatch] = field(default_factory=list)
    arrivals: list[float] | None = None
    arrival_profile: str | None = None
    arrival_rate: float | None = None

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
        self.sizes = [graph.cluster_size(v) for v in range(graph.n_vertices)]
        # _deleted only holds base edges, _inserted only non-base edges
        self._inserted: dict[int, set[int]] = {}
        self._deleted: dict[int, set[int]] = {}

    def alive_vertices(self) -> np.ndarray:
        return np.flatnonzero(self.alive_mask)

    def _base_has(self, u: int, v: int) -> bool:
        if u >= self.base.n_vertices:
            return False
        nbrs = self.base.neighbors(u)
        i = int(np.searchsorted(nbrs, v))
        return i < nbrs.size and int(nbrs[i]) == v

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


#: Arrival-rate shapes :func:`arrival_offsets` understands.  ``constant``
#: offers a flat rate; ``diurnal`` modulates it sinusoidally over the trace
#: (one full day of traffic compressed into the batch sequence); ``spiky``
#: overlays random short bursts at a multiple of the base rate.
ARRIVAL_PROFILES = ("constant", "diurnal", "spiky")


def arrival_offsets(
    rng: np.random.Generator,
    batch_updates: list[int],
    *,
    profile: str = "constant",
    updates_per_sec: float = 1000.0,
    diurnal_amplitude: float = 0.6,
    spike_fraction: float = 0.1,
    spike_factor: float = 8.0,
) -> list[float]:
    """Open-loop arrival timestamps for a batch sequence.

    Batch ``i`` (carrying ``batch_updates[i]`` structural events) arrives
    once its events have accumulated at the momentary offered rate: the
    inter-arrival gap is ``batch_updates[i] / rate_i``, where ``rate_i`` is
    the base ``updates_per_sec`` shaped by ``profile``.  Offsets are
    nondecreasing by construction and deterministic given the rng (only
    the ``spiky`` profile draws -- burst placement).
    """
    if profile not in ARRIVAL_PROFILES:
        raise ValueError(
            f"unknown arrival profile {profile!r}; choose from "
            f"{', '.join(ARRIVAL_PROFILES)}"
        )
    if updates_per_sec <= 0:
        raise ValueError(f"updates_per_sec must be > 0, got {updates_per_sec}")
    n = len(batch_updates)
    rates = np.full(n, float(updates_per_sec))
    if n and profile == "diurnal":
        phase = 2.0 * np.pi * np.arange(n) / n
        rates *= 1.0 + diurnal_amplitude * np.sin(phase)
        rates = np.maximum(rates, 1e-9)
    elif n and profile == "spiky":
        bursts = rng.random(n) < spike_fraction
        rates[bursts] *= spike_factor
    gaps = np.asarray(batch_updates, dtype=np.float64) / rates
    return np.cumsum(gaps).tolist()


def _with_arrivals(
    workload: StreamWorkload,
    rng: np.random.Generator,
    arrival_profile: str | None,
    arrival_rate: float,
) -> StreamWorkload:
    """Attach an arrival schedule when a profile was requested.

    Runs *after* batch generation, so workloads generated without a
    profile are bit-for-bit what they were before arrivals existed (no
    extra rng draws on that path).
    """
    if arrival_profile is None:
        return workload
    workload.arrivals = arrival_offsets(
        rng,
        [len(b) for b in workload.batches],
        profile=arrival_profile,
        updates_per_sec=arrival_rate,
    )
    workload.arrival_profile = arrival_profile
    workload.arrival_rate = float(arrival_rate)
    return workload


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
    arrival_profile: str | None = None,
    arrival_rate: float = 1000.0,
) -> StreamWorkload:
    """Sliding-window edge turnover: each batch retires the
    ``churn_fraction`` oldest edges and admits as many fresh random ones.

    The live edge count (and hence the degree profile) stays roughly
    stationary, so this isolates pure *turnover* cost -- the acceptance
    scenario of the dynamic subsystem.  ``arrival_profile`` /
    ``arrival_rate`` (optional) attach an open-loop arrival schedule for
    the service driver (see :func:`arrival_offsets`).
    """
    graph = _initial_graph(rng, n_vertices, avg_degree, cluster_size, topology)
    shadow = _Shadow(graph)
    edge_u, edge_v = graph.h_edge_arrays()
    window: list[tuple[int, int]] = list(
        zip(edge_u.tolist(), edge_v.tolist())
    )
    churn = max(1, int(churn_fraction * len(window)))
    verts = shadow.alive_vertices()
    out: list[UpdateBatch] = []
    for _ in range(batches):
        batch = UpdateBatch()
        retired, window = window[:churn], window[churn:]
        for u, v in retired:
            batch.edge_delete(u, v)
            shadow.delete(u, v)
        for _ in range(churn):
            pair = _sample_new_edge(rng, shadow, verts, verts)
            if pair is None:
                continue
            batch.edge_insert(*pair)
            shadow.insert(*pair)
            window.append(pair)
        out.append(batch)
    return _with_arrivals(
        StreamWorkload(
            name="sliding_window",
            graph=graph,
            notes=(
                f"{batches} batches x {churn} edge turnover on "
                f"G(n={n_vertices}, d~{avg_degree:g})"
            ),
            batches=out,
        ),
        rng,
        arrival_profile,
        arrival_rate,
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
    arrival_profile: str | None = None,
    arrival_rate: float = 1000.0,
) -> StreamWorkload:
    """Skewed churn: edge turnover concentrated on a small hotspot, new
    clusters arriving wired into the hotspot, old ones departing elsewhere.

    Hotspot degrees drift upward, exercising palette *growth*; departures
    exercise shrinkage and the palette-retightening path.
    ``arrival_profile`` / ``arrival_rate`` (optional) attach an open-loop
    arrival schedule for the service driver.
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
        batch = UpdateBatch()
        # retire random hotspot-incident edges (any edge when none left)
        edge_u, edge_v = shadow.edge_arrays()
        touches_hot = (edge_u < hot_count) | (edge_v < hot_count)
        pool = np.flatnonzero(touches_hot)
        if pool.size == 0:
            pool = np.arange(edge_u.size)
        take = min(churn, pool.size)
        picked = rng.choice(pool, size=take, replace=False)
        for i in picked:
            u, v = int(edge_u[i]), int(edge_v[i])
            batch.edge_delete(u, v)
            shadow.delete(u, v)
        # departures: non-hotspot veterans leave wholesale
        candidates = shadow.alive_vertices()
        candidates = candidates[candidates >= hot_count]
        for _ in range(min(departures, max(0, candidates.size - 1))):
            v = int(candidates[rng.integers(0, candidates.size)])
            batch.vertex_remove(v)
            shadow.remove(v)
            candidates = candidates[candidates != v]
        # arrivals: new clusters wired into the hotspot
        for _ in range(arrivals):
            alive_hot = hotspot[shadow.alive_mask[hotspot]]
            if alive_hot.size == 0:
                break
            k = min(3, alive_hot.size)
            targets = [int(t) for t in rng.choice(alive_hot, size=k, replace=False)]
            size = int(rng.integers(1, 4))
            batch.vertex_add(edges=targets, size=size)
            shadow.add(targets, size=size)
        # fresh hotspot-incident edges
        verts = shadow.alive_vertices()
        alive_hot = hotspot[shadow.alive_mask[hotspot]]
        if alive_hot.size:
            for _ in range(churn):
                pair = _sample_new_edge(rng, shadow, alive_hot, verts)
                if pair is None:
                    continue
                batch.edge_insert(*pair)
                shadow.insert(*pair)
        out.append(batch)
    return _with_arrivals(
        StreamWorkload(
            name="hotspot_churn",
            graph=graph,
            notes=(
                f"{batches} batches, {hot_count}-vertex hotspot, "
                f"{churn} edge churn + {arrivals} arrivals/{departures} departures"
            ),
            batches=out,
        ),
        rng,
        arrival_profile,
        arrival_rate,
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
    arrival_profile: str | None = None,
    arrival_rate: float = 1000.0,
) -> StreamWorkload:
    """Merge/split traces: clusters coalesce and fission while background
    edge churn keeps the conflict frontier moving -- the shape contraction
    and decomposition algorithms impose on their cluster graphs.
    ``arrival_profile`` / ``arrival_rate`` (optional) attach an open-loop
    arrival schedule for the service driver."""
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
        batch = UpdateBatch()
        # background edge churn first (matches the batch application order)
        edge_u, edge_v = shadow.edge_arrays()
        take = min(churn, edge_u.size)
        picked = rng.choice(edge_u.size, size=take, replace=False)
        for i in picked:
            u, v = int(edge_u[i]), int(edge_v[i])
            batch.edge_delete(u, v)
            shadow.delete(u, v)
        verts = shadow.alive_vertices()
        for _ in range(churn):
            pair = _sample_new_edge(rng, shadow, verts, verts)
            if pair is None:
                continue
            batch.edge_insert(*pair)
            shadow.insert(*pair)
        # merges: adjacent alive pairs coalesce
        for _ in range(merges_per_batch):
            edge_u, edge_v = shadow.edge_arrays()
            if edge_u.size == 0:
                break
            i = int(rng.integers(0, edge_u.size))
            u, v = int(edge_u[i]), int(edge_v[i])
            batch.cluster_merge(u, v)
            shadow.merge(u, v)
        # splits: big-enough clusters shed half their neighbors
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
            batch.cluster_split(u, moved, size=size)
            shadow.split(u, moved, size)
        out.append(batch)
    return _with_arrivals(
        StreamWorkload(
            name="cluster_churn",
            graph=graph,
            notes=(
                f"{batches} batches, {merges_per_batch} merges + "
                f"{splits_per_batch} splits each, {churn} edge churn"
            ),
            batches=out,
        ),
        rng,
        arrival_profile,
        arrival_rate,
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
