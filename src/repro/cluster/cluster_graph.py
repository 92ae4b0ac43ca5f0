"""Cluster graphs (Definition 3.1).

A cluster graph ``H`` over a communication network ``G`` partitions the
machines into disjoint *connected* clusters; ``H`` has one node per cluster
and an edge between two nodes iff some ``G``-link joins their clusters.

The same pair of clusters may be joined by many links (Figure 1): this is
what makes degree computation and palette discovery non-trivial in the
model, so :class:`ClusterGraph` keeps the full multiset of realizing links.

The adjacency backbone is CSR (``indptr``/``indices`` int64 arrays) built
once at construction; the list/dict views (``adj``, ``links``,
``neighbor_set``) are thin accessors over it, materialized lazily where
they are not needed on hot paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from repro.graphcore.csr import CSRAdjacency, sorted_unique
from repro.network.commgraph import CommGraph
from repro.cluster.support_tree import SupportTree, build_forest


@dataclass
class ClusterGraph:
    """The conflict graph ``H`` over network ``G``.

    Construct via :meth:`from_assignment` (validates Definition 3.1) or
    :meth:`identity` (the CONGEST special case ``H = G``).

    Attributes
    ----------
    comm:
        The underlying communication network ``G``.
    assignment:
        ``assignment[machine] -> vertex`` cluster identifiers, dense in
        ``0..n_vertices-1``.
    clusters:
        ``clusters[v]`` is the sorted machine list of cluster ``v``.
    trees:
        Support tree per cluster (leader = tree root).
    csr:
        CSR adjacency backbone -- the structure the batched coloring
        kernels (:mod:`repro.graphcore`) run on.  Passed directly by
        ``from_assignment`` (which lays it out vectorized) or derived in
        ``__post_init__`` from ``_adj`` when a test builds the dataclass
        by hand.  A real init field, so it survives ``dataclasses.replace``
        and unpickling in pool workers.
    adj:
        ``adj[v]``: the sorted list of H-neighbors of ``v``.  A *lazy
        property* over the CSR: materializing ``n`` Python lists used to
        box ``2m`` ints at construction (~0.4 s at 1.6M edges) that the
        vectorized hot paths never look at.
    links:
        ``links[(u, v)]`` with ``u < v`` lists the G-links realizing H-edge
        ``{u, v}`` (lazy property; diagnostics and the dedup machinery use
        it, the coloring hot paths never do).
    """

    comm: CommGraph
    assignment: list[int]
    clusters: list[list[int]]
    trees: list[SupportTree]
    #: hand-construction path (tests): neighbor lists to lay the CSR from
    #: when ``csr`` is not supplied.  Access through the ``adj`` property.
    #: compare=False: a lazily-materialized cache must not affect equality.
    _adj: list[list[int]] | None = field(default=None, repr=False, compare=False)
    _links: dict[tuple[int, int], list[tuple[int, int]]] | None = field(
        default=None, repr=False
    )
    _neighbor_sets: list[frozenset[int]] = field(default_factory=list, repr=False)
    csr: CSRAdjacency | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self._adj is not None:
            # neighbor lists are the source of truth when present: rebuild
            # the CSR from them so dataclasses.replace(h, _adj=...) can
            # never pair new lists with a stale carried-over backbone
            self.csr = CSRAdjacency.from_adj_lists(self._adj)
        elif self.csr is None:
            raise ValueError(
                "ClusterGraph needs a csr backbone or _adj neighbor lists"
            )

    # ---- construction --------------------------------------------------------

    @classmethod
    def from_assignment(
        cls, comm: CommGraph, assignment: Sequence[int]
    ) -> "ClusterGraph":
        """Build ``H`` from a machine-to-cluster assignment (vectorized).

        Raises
        ------
        ValueError
            If the assignment is not a 1-D sequence of integers, is not a
            partition into connected clusters, or cluster ids are not dense
            in ``0..k-1``.
        """
        if len(assignment) != comm.n:
            raise ValueError(
                f"assignment covers {len(assignment)} machines; G has {comm.n}"
            )
        assign = np.asarray(assignment)
        # bools are not np.integer, so they fail here too
        if assign.ndim != 1 or not np.issubdtype(assign.dtype, np.integer):
            raise ValueError(
                f"cluster ids must be a 1-D integer sequence, got dtype "
                f"{assign.dtype} with shape {assign.shape}"
            )
        assign = assign.astype(np.int64, copy=False)
        if assign.min() < 0:
            raise ValueError("cluster ids must be non-negative")
        n_vertices = int(assign.max()) + 1
        if n_vertices > comm.n:
            # checked before bincount, which would allocate max() + 1 slots
            raise ValueError(
                f"cluster id {n_vertices - 1} with only {comm.n} machines "
                "leaves an id unused (ids must be dense)"
            )
        sizes = np.bincount(assign, minlength=n_vertices)
        if (sizes == 0).any():
            vertex = int(np.flatnonzero(sizes == 0)[0])
            raise ValueError(f"cluster id {vertex} is unused (ids must be dense)")
        member_order = np.argsort(assign, kind="stable")
        clusters = [
            part.tolist()
            for part in np.split(member_order, np.cumsum(sizes)[:-1])
        ]

        trees = build_forest(comm, assign, clusters)

        # H-adjacency: map every G-link to its cluster pair, drop
        # intra-cluster links, dedupe pairs, and lay both directions out as
        # CSR in one pass.
        mu, mv = comm.link_arrays()
        cu, cv = assign[mu], assign[mv]
        inter = cu != cv
        mu, mv, cu, cv = mu[inter], mv[inter], cu[inter], cv[inter]
        swap = cu > cv
        a = np.where(swap, cv, cu)
        b = np.where(swap, cu, cv)
        pair_codes = a * n_vertices + b
        uniq_codes = sorted_unique(pair_codes)
        ua, ub = uniq_codes // n_vertices, uniq_codes % n_vertices
        csr = CSRAdjacency.from_edge_arrays(ua, ub, n_vertices)

        graph = cls(
            comm=comm,
            assignment=[int(x) for x in assignment],
            clusters=clusters,
            trees=trees,
            csr=csr,
        )
        # raw material for the lazy `links` view: realizing G-links keyed by
        # H-edge code, kept as arrays until someone asks for the dict
        graph._link_raw = (pair_codes, mu, mv, cu)
        return graph

    @classmethod
    def identity(cls, comm: CommGraph) -> "ClusterGraph":
        """The CONGEST special case: every machine is its own cluster."""
        return cls.from_assignment(comm, list(range(comm.n)))

    # ---- lazy list/dict views ------------------------------------------------

    @property
    def adj(self) -> list[list[int]]:
        """``adj[v]``: sorted H-neighbor list of ``v``, materialized from
        the CSR on first access (the vectorized paths never need it)."""
        if self._adj is None:
            self._adj = [
                part.tolist()
                for part in np.split(self.csr.indices, self.csr.indptr[1:-1])
            ]
        return self._adj

    @property
    def links(self) -> dict[tuple[int, int], list[tuple[int, int]]]:
        """``links[(u, v)]`` with ``u < v``: the G-links realizing H-edge
        ``{u, v}``, oriented as ``(machine in V(u), machine in V(v))``.

        Materialized on first access (diagnostics/dedup only; hot paths use
        :attr:`csr`).
        """
        if self._links is None:
            links: dict[tuple[int, int], list[tuple[int, int]]] = {}
            raw = getattr(self, "_link_raw", None)
            if raw is not None:
                pair_codes, mu, mv, cu = raw
                n_vertices = self.n_vertices
                grouping = np.argsort(pair_codes, kind="stable")
                for idx in grouping.tolist():
                    code = int(pair_codes[idx])
                    key = (code // n_vertices, code % n_vertices)
                    link = (int(mu[idx]), int(mv[idx]))
                    if int(cu[idx]) != key[0]:
                        link = (link[1], link[0])
                    links.setdefault(key, []).append(link)
                self._link_raw = None  # free the raw arrays once materialized
            else:  # constructed directly (tests); derive from the network
                assign = self.assignment
                for gu, gv in self.comm.iter_links():
                    cu_, cv_ = assign[gu], assign[gv]
                    if cu_ == cv_:
                        continue
                    key = (cu_, cv_) if cu_ < cv_ else (cv_, cu_)
                    link = (gu, gv) if cu_ < cv_ else (gv, gu)
                    links.setdefault(key, []).append(link)
            self._links = links
        return self._links

    def _neighbor_set_list(self) -> list[frozenset[int]]:
        if not self._neighbor_sets:
            self._neighbor_sets = [frozenset(a) for a in self.adj]
        return self._neighbor_sets

    # ---- structure -----------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        """Number of H-nodes (clusters)."""
        return len(self.clusters)

    @property
    def n_machines(self) -> int:
        """Number of machines in ``G`` (the ``n`` of the theorems)."""
        return self.comm.n

    def degree(self, v: int) -> int:
        """True degree of ``v`` in ``H`` (links to the same cluster counted
        once -- the quantity that is *hard* to compute in the model).
        """
        return int(self.csr.indptr[v + 1] - self.csr.indptr[v])

    def link_count(self, v: int) -> int:
        """Number of inter-cluster links incident to ``v`` -- the easy
        aggregate that can grossly overestimate :meth:`degree` (Section 1.1).
        """
        total = 0
        for u in self.neighbors(v):
            key = (u, v) if u < v else (v, u)
            total += len(self.links[key])
        return total

    def neighbors(self, v: int) -> list[int]:
        """H-neighbors of ``v`` (sorted list; served from the materialized
        ``adj`` view when one exists, else a per-call CSR slice)."""
        if self._adj is not None:
            return self._adj[v]
        return self.csr.neighbors(v).tolist()

    def neighbor_set(self, v: int) -> frozenset[int]:
        """H-neighbors of ``v`` as a frozenset (for intersection tests)."""
        return self._neighbor_set_list()[v]

    def are_adjacent(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an H-edge.

        O(1) set membership when the frozenset views are already
        materialized; otherwise a binary search on the CSR (building all
        the sets costs O(m) and would dwarf a few probes).
        """
        if self._neighbor_sets:
            return v in self._neighbor_sets[u]
        nbrs = self.csr.neighbors(u)
        i = int(np.searchsorted(nbrs, v))
        return i < nbrs.size and int(nbrs[i]) == v

    @cached_property
    def max_degree(self) -> int:
        """``Delta``, the maximum degree of ``H``.  Computed once per graph,
        as :attr:`dilation` is: nothing mutates ``csr`` after
        ``__post_init__``, and a ``dataclasses.replace`` copy is a new
        instance with its own cache."""
        degrees = self.csr.degrees
        return int(degrees.max()) if degrees.size else 0

    @cached_property
    def dilation(self) -> int:
        """``d``: maximum support-tree height over all clusters.  Computed
        once per graph: nothing mutates ``trees`` after construction, and a
        ``dataclasses.replace`` copy is a new instance with its own cache."""
        return max((t.height for t in self.trees), default=1)

    def cluster_size(self, v: int) -> int:
        """Number of machines in cluster ``v``."""
        return len(self.clusters[v])

    def leader(self, v: int) -> int:
        """Leader machine of cluster ``v`` (support-tree root)."""
        return self.trees[v].root

    def iter_h_edges(self) -> Iterable[tuple[int, int]]:
        """All H-edges ``(u, v)`` with ``u < v`` (lexicographic)."""
        edge_u, edge_v = self.csr.edge_arrays()
        return zip(edge_u.tolist(), edge_v.tolist())

    def h_edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """All H-edges as ``(u, v)`` int64 arrays with ``u < v`` (the
        vectorized properness checker's input)."""
        return self.csr.edge_arrays()

    @property
    def n_h_edges(self) -> int:
        """Number of edges of ``H``."""
        return self.csr.n_directed_edges // 2

    def anti_neighbors_within(self, v: int, vertex_set: Iterable[int]) -> list[int]:
        """Vertices of ``vertex_set`` that are NOT adjacent to ``v`` (and are
        not ``v``) -- anti-neighbors in the sense of Section 4.1.
        """
        nbrs = self.neighbor_set(v)
        return [u for u in vertex_set if u != v and u not in nbrs]

    def neighbor_array(self, v: int) -> np.ndarray:
        """H-neighbors of ``v`` as an int64 array -- a zero-copy slice of
        the CSR backbone (hot path for the coloring conflict checks)."""
        return self.csr.neighbors(v)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ClusterGraph(vertices={self.n_vertices}, machines={self.n_machines}, "
            f"Delta={self.max_degree}, dilation={self.dilation})"
        )
