"""Workload generators with planted ground truth.

Each generator returns a :class:`Workload`: a cluster graph plus whatever
ground truth the corresponding experiment needs (planted clique membership,
anti-degrees, expected regime).  Generators are deterministic given the rng.

The families mirror the paper's narrative:

* planted ACD instances (dense almost-cliques + genuinely sparse vertices)
  for Experiment E6 and the non-cabal pipeline;
* cabal instances (near-cliques with tiny external degree and controlled
  anti-degree) for the colorful-matching and put-aside experiments;
* CONGEST identity instances (``H = G``), the model the paper generalizes;
* contraction/Voronoi instances, how cluster graphs arise in practice;
* the Figure 1 example and Figure 2/3 bridge pathology.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.cluster.builders import ClusterTopology, blowup, contraction_clusters, voronoi_clusters
from repro.cluster.cluster_graph import ClusterGraph
from repro.network.commgraph import CommGraph
from repro.workloads.gnp import connect_components, fast_gnp_edges, gnp_edges
from repro.workloads.specs import PARAM_SPECS, validated  # noqa: F401  (re-exported)


@dataclass
class Workload:
    """A test instance: the graph, its provenance, and planted truth.

    ``netmodel`` is only populated when the generator was called with the
    ``net_*`` knobs (see :func:`repro.workloads.specs.validated`): the
    :class:`~repro.network.hetnet.HetNetModel` sampled over this
    workload's communication graph, whose ``spec`` is the requested
    :class:`~repro.network.hetnet.HetNetSpec`.  It stays ``None`` on the
    default homogeneous fabric.
    """

    name: str
    graph: ClusterGraph
    planted_cliques: list[list[int]] = field(default_factory=list)
    planted_sparse: list[int] = field(default_factory=list)
    expected_regime: str = "auto"  # "high_degree" | "low_degree" | "auto"
    notes: str = ""
    netmodel: object = None

    @property
    def delta(self) -> int:
        """Maximum degree of the conflict graph."""
        return self.graph.max_degree


def _conflict_edges(n: int, chunks: list) -> tuple[int, np.ndarray]:
    """``(n, edges)`` of a graph on nodes ``0..n-1`` whose edges were
    inserted as ``chunks`` (int64 ``(k, 2)`` arrays or pair lists, in
    insertion order), in the order networkx's ``edges()`` lists them.

    ``edges()`` walks the nodes in order and, per node, its later
    neighbors in the order each edge was first inserted.  So: normalize
    to codes ``lo * n + hi``, keep each pair's first insertion, then sort
    stably by ``lo`` (ARCHITECTURE.md "Block draws").

    ``chunks`` is consumed: each chunk leaves the list once its codes
    exist, and every later temporary is dropped once it is spent, so the
    peak stays near the inserted pairs themselves.
    """
    parts = [np.empty(0, dtype=np.int64)]
    while chunks:
        pairs = np.asarray(chunks.pop(0), dtype=np.int64).reshape(-1, 2)
        codes = np.minimum(pairs[:, 0], pairs[:, 1])
        codes *= n
        codes += np.maximum(pairs[:, 0], pairs[:, 1])
        parts.append(codes)
        del pairs, codes
    codes = np.concatenate(parts)
    del parts
    # a stable sort ranks each pair's first insertion first among equals
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    first = np.ones(codes.size, dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    codes, order = codes[first], order[first]
    del first
    codes = codes[np.argsort(order)]  # distinct codes, insertion order
    del order
    codes = codes[np.argsort(codes // n, kind="stable")]
    edges = np.empty((codes.size, 2), dtype=np.int64)
    np.floor_divide(codes, n, out=edges[:, 0])
    np.remainder(codes, n, out=edges[:, 1])
    return n, edges


def _planted_almost_clique(
    start: int,
    size: int,
    rng: np.random.Generator,
    anti_degree: int,
) -> np.ndarray:
    """Edges of a clique on ``start..start+size-1`` minus a random
    sprinkling of anti-edges giving each vertex anti-degree about
    ``anti_degree``, in insertion order.

    Each attempt draws one pair ``rng.integers(0, size, size=2)``; the
    whole attempt cap is drawn as one block, then the rng is rewound and
    exactly the pairs the budget loop used are redrawn, so its end state
    is the per-attempt loop's (ARCHITECTURE.md "Block draws").
    """
    i, j = np.triu_indices(size, 1)
    target_anti_edges = (anti_degree * size) // 2
    removed: set[int] = set()
    if target_anti_edges > 0:
        cap = 20 * target_anti_edges
        state = rng.bit_generator.state
        draws = rng.integers(0, size, size=2 * cap).tolist()
        budget = [anti_degree] * size
        attempts = 0
        while len(removed) < target_anti_edges and attempts < cap:
            a, b = draws[2 * attempts], draws[2 * attempts + 1]
            attempts += 1
            code = a * size + b if a < b else b * size + a
            if a == b or code in removed:
                continue
            if budget[a] <= 0 or budget[b] <= 0:
                continue
            removed.add(code)
            budget[a] -= 1
            budget[b] -= 1
        if attempts < cap:
            rng.bit_generator.state = state
            rng.integers(0, size, size=2 * attempts)
    if removed:
        keep = ~np.isin(i * size + j, np.fromiter(removed, dtype=np.int64))
        i, j = i[keep], j[keep]
    return start + np.stack([i, j], axis=1)


@validated("planted_acd")
def planted_acd_instance(
    rng: np.random.Generator,
    *,
    n_cliques: int = 4,
    clique_size: int = 50,
    anti_degree: int = 1,
    external_degree: int = 2,
    n_sparse: int = 60,
    sparse_degree_fraction: float = 0.5,
    cluster_size: int = 3,
    topology: ClusterTopology = "star",
    link_multiplicity: int = 2,
) -> Workload:
    """Dense almost-cliques plus a sparse fringe (Experiment E6, Alg. 4).

    Clique vertices get ``external_degree`` edges to the sparse part (making
    the cliques non-cabals when ``external_degree`` exceeds the cabal
    threshold, cabals otherwise).  Sparse vertices form an Erdos-Renyi graph
    with expected degree ``sparse_degree_fraction * clique_size`` -- high
    enough to be interesting, sparse enough to have Omega(eps^2 Delta)
    sparsity.
    """
    chunks: list = []
    cliques: list[list[int]] = []
    next_id = 0
    for _ in range(n_cliques):
        chunks.append(_planted_almost_clique(next_id, clique_size, rng, anti_degree))
        cliques.append(list(range(next_id, next_id + clique_size)))
        next_id += clique_size
    sparse = list(range(next_id, next_id + n_sparse))
    if n_sparse > 1:
        p = min(1.0, sparse_degree_fraction * clique_size / max(1, n_sparse - 1))
        # one draw per pair in (i, j) order: a block draw, bitwise the
        # scalar loop (ARCHITECTURE.md "Block draws")
        i, j = np.triu_indices(n_sparse, 1)
        keep = rng.random(i.size) < p
        chunks.append(next_id + np.stack([i[keep], j[keep]], axis=1))
        del i, j, keep  # O(n_sparse^2) pair arrays
    if sparse:
        k = min(external_degree, n_sparse)
        targets = [rng.choice(n_sparse, size=k, replace=False) for _ in range(next_id)]
        chunks.append(np.stack([
            np.repeat(np.arange(next_id), k),
            next_id + np.concatenate(targets),
        ], axis=1))
    h = _conflict_edges(next_id + n_sparse, chunks)
    del chunks  # the inserted edges, spent before the blow-up
    graph = blowup(
        h,
        rng,
        cluster_size=cluster_size,
        topology=topology,
        link_multiplicity=link_multiplicity,
    )
    return Workload(
        name="planted_acd",
        graph=graph,
        planted_cliques=cliques,
        planted_sparse=sparse,
        expected_regime="auto",
        notes=(
            f"{n_cliques} cliques of {clique_size} (anti-degree ~{anti_degree}, "
            f"external ~{external_degree}), {n_sparse} sparse vertices"
        ),
    )


@validated("cabal")
def cabal_instance(
    rng: np.random.Generator,
    *,
    n_cabals: int = 3,
    clique_size: int = 60,
    anti_degree: int = 2,
    inter_cabal_links: int = 2,
    cluster_size: int = 2,
    topology: ClusterTopology = "star",
) -> Workload:
    """Near-disjoint dense cliques with tiny external degree -- the cabal
    regime of Sections 6 and 7 (Experiments E7/E8).

    Consecutive cabals are joined by ``inter_cabal_links`` single edges, so
    external degrees are O(1) and every clique classifies as a cabal.
    """
    chunks: list = []
    cliques: list[list[int]] = []
    next_id = 0
    for _ in range(n_cabals):
        chunks.append(_planted_almost_clique(next_id, clique_size, rng, anti_degree))
        cliques.append(list(range(next_id, next_id + clique_size)))
        next_id += clique_size
    links = []
    if n_cabals > 1:
        for i in range(n_cabals):
            a, b = cliques[i], cliques[(i + 1) % n_cabals]
            for _ in range(inter_cabal_links):
                u = a[int(rng.integers(0, len(a)))]
                v = b[int(rng.integers(0, len(b)))]
                links.append((u, v))
    chunks.append(links)
    graph = blowup(
        _conflict_edges(next_id, chunks), rng, cluster_size=cluster_size, topology=topology
    )
    return Workload(
        name="cabal",
        graph=graph,
        planted_cliques=cliques,
        expected_regime="auto",
        notes=f"{n_cabals} cabals of {clique_size}, anti-degree ~{anti_degree}",
    )


def _random_network(
    rng: np.random.Generator, n: int, p: float, avg_degree: float | None
) -> tuple[int, np.ndarray]:
    """One connected G(n, p) draw as ``(n, edges)``, an int64 edge array.

    When ``avg_degree`` is given it overrides ``p`` with ``avg_degree/(n-1)``
    and switches to the O(n + m) sampler, which is what makes 50k-machine
    instances generable at all; the default dense sampler is kept for every
    historical call site so pinned instance seeds keep drawing the exact
    same graphs.  Both are array ports of the networkx samplers
    (:mod:`repro.workloads.gnp`): the edges, their order and the patch
    that connects the draw are the ones the networkx graph had.
    """
    seed = int(rng.integers(0, 2**31))
    if avg_degree is not None:
        p = min(1.0, avg_degree / max(1, n - 1))
        edges = fast_gnp_edges(n, p, seed)
    else:
        edges = gnp_edges(n, p, seed)
    return n, connect_components(n, edges)


@validated("congest")
def congest_instance(
    rng: np.random.Generator,
    *,
    n: int = 300,
    p: float | None = None,
    avg_degree: float | None = None,
) -> Workload:
    """``H = G``: the CONGEST special case the paper strictly generalizes."""
    if p is None:
        p = min(1.0, 8.0 / n + 0.05)
    comm = CommGraph(*_random_network(rng, n, p, avg_degree))
    return Workload(
        name="congest",
        graph=ClusterGraph.identity(comm),
        expected_regime="auto",
        notes=f"identity clusters on G(n={n}, p={p:.3f})",
    )


@validated("contraction")
def contraction_instance(
    rng: np.random.Generator,
    *,
    n: int = 600,
    p: float = 0.02,
    fraction: float = 0.5,
    avg_degree: float | None = None,
) -> Workload:
    """Cluster graph obtained by contracting a random forest of a random
    network -- how cluster graphs arise in flow/decomposition algorithms.
    """
    comm = CommGraph(*_random_network(rng, n, p, avg_degree))
    return Workload(
        name="contraction",
        graph=contraction_clusters(comm, fraction, rng),
        expected_regime="auto",
        notes=f"random forest contraction ({fraction:.0%}) of G(n={n}, p={p})",
    )


@validated("voronoi")
def voronoi_instance(
    rng: np.random.Generator,
    *,
    n: int = 600,
    p: float = 0.02,
    n_clusters: int = 150,
    avg_degree: float | None = None,
) -> Workload:
    """Voronoi (BFS-region) clustering of a random network."""
    comm = CommGraph(*_random_network(rng, n, p, avg_degree))
    return Workload(
        name="voronoi",
        graph=voronoi_clusters(comm, n_clusters, rng),
        expected_regime="auto",
        notes=f"{n_clusters} BFS regions of G(n={n}, p={p})",
    )


@validated("figure1")
def figure1_example(rng: np.random.Generator | None = None) -> Workload:
    """The 4-cluster illustration of Figure 1: a communication graph whose
    clusters form a path-with-chord conflict graph, including a doubly-linked
    cluster pair (the degree-overcounting hazard of Section 1.1).

    The instance is hand-built and fully deterministic; ``rng`` is accepted
    (and unused) so the generator has the same ``(rng, **kwargs)`` signature
    as every other registry entry.
    """
    # Machines 0-2: cluster A (path); 3-5: cluster B (star); 6-7: cluster C;
    # 8: cluster D (singleton).  B-C realized by two distinct links.
    edges = [
        (0, 1), (1, 2),          # A internal
        (3, 4), (3, 5),          # B internal
        (6, 7),                  # C internal
        (2, 3),                  # A-B
        (4, 6), (5, 7),          # B-C twice
        (7, 8),                  # C-D
        (1, 8),                  # A-D
    ]
    comm = CommGraph(9, edges)
    assignment = [0, 0, 0, 1, 1, 1, 2, 2, 3]
    return Workload(
        name="figure1",
        graph=ClusterGraph.from_assignment(comm, assignment),
        notes="hand-built Figure 1 example (4 clusters, one doubled link)",
    )


@validated("bridge")
def bridge_pathology(
    rng: np.random.Generator, *, half_size: int = 20, external_per_side: int = 10
) -> Workload:
    """The Figure 2/3 hazard: a bridge-topology cluster whose halves see
    different external neighbors, forcing palette information through one
    ``O(log n)``-bit link.
    """
    center = 0
    externals = list(range(1, 2 * external_per_side + 1))
    spokes = [(center, v) for v in externals]
    # externals form a sparse ring so the instance is connected and colorable
    ring = [(externals[i], externals[(i + 1) % len(externals)]) for i in range(len(externals))]
    graph = blowup(
        _conflict_edges(len(externals) + 1, [spokes, ring]),
        rng,
        cluster_size=max(2, half_size),
        topology="bridge",
        link_multiplicity=1,
    )
    return Workload(
        name="bridge",
        graph=graph,
        notes=f"bridge cluster with {2 * external_per_side} external neighbors",
    )


@validated("high_degree")
def high_degree_instance(
    rng: np.random.Generator,
    *,
    n_vertices: int = 400,
    degree_fraction: float = 0.5,
    cluster_size: int = 2,
    topology: ClusterTopology = "star",
    avg_degree: float | None = None,
) -> Workload:
    """A dense random conflict graph whose Delta exceeds the (scaled)
    high-degree threshold -- Theorem 1.2 territory (Experiment E1).

    ``avg_degree`` switches to an absolute expected degree (sparse sampler),
    the way large-n scale instances keep Delta above the threshold without
    quadratic edge counts.
    """
    p = degree_fraction
    h = _random_network(rng, n_vertices, p, avg_degree)
    graph = blowup(h, rng, cluster_size=cluster_size, topology=topology)
    density = f"{p:.2f}" if avg_degree is None else f"d~{avg_degree:g}"
    return Workload(
        name="high_degree",
        graph=graph,
        expected_regime="high_degree",
        notes=f"G({n_vertices}, {density}) conflict graph, clusters of {cluster_size}",
    )


def _random_regular_edges(d: int, n: int, seed: int) -> np.ndarray:
    """The edge set of ``networkx.random_regular_graph(d, n, seed=seed)``
    as an int64 ``(m, 2)`` array of ``(lo, hi)`` rows in the set's
    iteration order, for ``0 < d < n`` and even ``n * d``.

    This is networkx's stub pairing (Steger--Wormald) verbatim on
    ``random.Random(seed)``: the same shuffles build the same Python set,
    so :func:`_conflict_edges` turns it into the graph's ``edges()``.
    """
    shuffler = random.Random(seed)

    def suitable(edges, potential_edges):
        if not potential_edges:
            return True
        for s1 in potential_edges:
            for s2 in potential_edges:
                if s1 == s2:
                    break
                if s1 > s2:
                    s1, s2 = s2, s1
                if (s1, s2) not in edges:
                    return True
        return False

    def try_creation():
        edges = set()
        stubs = list(range(n)) * d
        while stubs:
            potential_edges = defaultdict(lambda: 0)
            shuffler.shuffle(stubs)
            stubiter = iter(stubs)
            for s1, s2 in zip(stubiter, stubiter):
                if s1 > s2:
                    s1, s2 = s2, s1
                if s1 != s2 and ((s1, s2) not in edges):
                    edges.add((s1, s2))
                else:
                    potential_edges[s1] += 1
                    potential_edges[s2] += 1
            if not suitable(edges, potential_edges):
                return None
            stubs = [
                node
                for node, potential in potential_edges.items()
                for _ in range(potential)
            ]
        return edges

    edges = try_creation()
    while edges is None:
        edges = try_creation()
    flat = np.fromiter(chain.from_iterable(edges), dtype=np.int64, count=2 * len(edges))
    return flat.reshape(-1, 2)


@validated("low_degree")
def low_degree_instance(
    rng: np.random.Generator,
    *,
    n_vertices: int = 500,
    target_degree: int = 8,
    cluster_size: int = 3,
    topology: ClusterTopology = "path",
) -> Workload:
    """A sparse conflict graph (Delta = O(log n)): Theorem 1.1 territory
    (Experiment E2)."""
    d = max(2, target_degree)
    if (n_vertices * d) % 2 == 1:
        n_vertices += 1
    if d >= n_vertices:
        raise ValueError(
            f"low_degree needs target_degree < n_vertices, got target_degree={d} "
            f"and n_vertices={n_vertices}"
        )
    edges = _random_regular_edges(d, n_vertices, int(rng.integers(0, 2**31)))
    graph = blowup(
        _conflict_edges(n_vertices, [edges]), rng, cluster_size=cluster_size, topology=topology
    )
    return Workload(
        name="low_degree",
        graph=graph,
        expected_regime="low_degree",
        notes=f"{d}-regular conflict graph on {n_vertices} vertices",
    )


#: Registry of every generator under its workload name -- the single place
#: the CLI and the experiments subsystem resolve workload names.  Every
#: entry has the uniform signature ``maker(rng, **kwargs)``.
GENERATORS = {
    "planted_acd": planted_acd_instance,
    "cabal": cabal_instance,
    "congest": congest_instance,
    "contraction": contraction_instance,
    "voronoi": voronoi_instance,
    "bridge": bridge_pathology,
    "high_degree": high_degree_instance,
    "low_degree": low_degree_instance,
    "figure1": figure1_example,
}
