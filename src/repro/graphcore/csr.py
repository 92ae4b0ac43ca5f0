"""Compressed sparse row adjacency for conflict graphs.

The layout is the classic ``indptr``/``indices`` pair (both int64):
``indices[indptr[v]:indptr[v+1]]`` is the sorted neighbor list of ``v``.
Every conflict graph holds one as its only adjacency state and answers the
pipeline's adjacency questions through :class:`CSRConflictGraph`; the
batched kernels in :mod:`repro.graphcore.kernels` consume it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


def sorted_unique(codes: np.ndarray) -> np.ndarray:
    """``np.unique(codes)`` for a 1-D int64 array, by an in-place sort (the
    caller's scratch ``codes`` ends sorted) and adjacent compare.  numpy 2's
    hash-based ``unique`` is an order of magnitude slower on the ~10^5-10^6
    edge codes instance construction dedupes."""
    codes.sort()
    if codes.size:
        keep = np.empty(codes.size, dtype=bool)
        keep[0] = True
        np.not_equal(codes[1:], codes[:-1], out=keep[1:])
        codes = codes[keep]
    return codes


@dataclass
class CSRAdjacency:
    """Immutable CSR view of an undirected graph's adjacency.

    Attributes
    ----------
    indptr:
        int64 array of shape ``(n + 1,)``; neighbor slice boundaries.
    indices:
        int64 array of shape ``(2m,)``; concatenated neighbor lists.
    """

    indptr: np.ndarray
    indices: np.ndarray
    #: init=False: a dataclasses.replace copy starts without the cache
    _edge_arrays: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def from_edge_arrays(
        cls,
        edge_u: np.ndarray,
        edge_v: np.ndarray,
        n_vertices: int,
        *,
        dedupe: bool = False,
    ) -> "CSRAdjacency":
        """Build from an undirected edge list given as parallel arrays.

        Each edge appears once, in either orientation; both directions are
        written as ``src * n + dst`` codes into one buffer, which one
        in-place sort turns into ``indices``.  The dynamic subsystem's
        delta-buffer compaction rebuilds through this.

        ``dedupe=True`` collapses duplicate edges (and accepts both
        orientations of the same pair) before laying out: the one dedupe
        build, behind ``CommGraph`` and ``ClusterGraph.from_assignment``.
        The default trusts the caller to pass a duplicate-free list.
        """
        eu = np.asarray(edge_u, dtype=np.int64).reshape(-1)
        ev = np.asarray(edge_v, dtype=np.int64).reshape(-1)
        if eu.size != ev.size:
            raise ValueError(
                f"edge arrays differ in length ({eu.size} vs {ev.size})"
            )
        if dedupe:
            # codes lo * n + hi, built in one buffer
            codes = np.minimum(eu, ev)
            codes *= n_vertices
            codes += np.maximum(eu, ev)
            codes = sorted_unique(codes)
            return cls.from_edge_codes(codes, n_vertices)
        codes = np.empty(2 * eu.size, dtype=np.int64)
        head, tail = codes[: eu.size], codes[eu.size :]
        np.multiply(eu, n_vertices, out=head)
        head += ev
        np.multiply(ev, n_vertices, out=tail)
        tail += eu
        return cls._from_directed_codes(codes, n_vertices)

    @classmethod
    def from_edge_codes(cls, codes: np.ndarray, n_vertices: int) -> "CSRAdjacency":
        """Build from undirected edges given as int64 codes ``u * n + v``,
        each edge once (in either orientation).

        The leanest entry point: both directions go into one buffer that
        is sorted in place and becomes ``indices``, so the build allocates
        little beyond its output.
        """
        directed = np.empty(2 * codes.size, dtype=np.int64)
        head, tail = directed[: codes.size], directed[codes.size :]
        np.floor_divide(codes, n_vertices, out=head)  # head is scratch here
        np.remainder(codes, n_vertices, out=tail)
        tail *= n_vertices
        tail += head
        head[:] = codes
        return cls._from_directed_codes(directed, n_vertices)

    @classmethod
    def _from_directed_codes(cls, codes: np.ndarray, n_vertices: int) -> "CSRAdjacency":
        """Lay out CSR from a scratch buffer of directed ``src * n + dst``
        codes, consumed in place: one sort orders it by (src, dst)."""
        codes.sort()
        # row v starts at the first code >= v * n
        indptr = np.searchsorted(
            codes, np.arange(n_vertices + 1, dtype=np.int64) * n_vertices
        )
        np.remainder(codes, n_vertices, out=codes)
        return cls(indptr=indptr, indices=codes)

    @property
    def n_vertices(self) -> int:
        """Number of vertices."""
        return int(self.indptr.size - 1)

    @property
    def n_directed_edges(self) -> int:
        """Size of ``indices`` (twice the undirected edge count)."""
        return int(self.indices.size)

    @property
    def degrees(self) -> np.ndarray:
        """Per-vertex degree array (a view-free diff of ``indptr``)."""
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbor array of ``v`` -- a zero-copy slice of ``indices``."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge (binary search on ``u``'s row)."""
        nbrs = self.neighbors(u)
        i = int(np.searchsorted(nbrs, v))
        return i < nbrs.size and int(nbrs[i]) == v

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Undirected edge list as ``(u, v)`` arrays with ``u < v``
        (derived once from the CSR and cached; the vectorized properness
        checker iterates this instead of a Python edge loop).

        Rows are read in the blocks of
        :func:`~repro.graphcore.kernels.row_blocks`, each keeping the
        entries above its row id, so the derivation holds its output plus
        one block of row ids and mask -- nothing ``2m`` long.  The CSR is
        symmetric, as every undirected build lays it out."""
        if self._edge_arrays is None:
            from repro.graphcore.kernels import row_blocks

            rows = np.arange(self.n_vertices, dtype=np.int64)
            degrees = self.degrees
            half = self.indices.size // 2
            edge_u = np.empty(half, dtype=np.int64)
            edge_v = np.empty(half, dtype=np.int64)
            filled = 0
            for start, stop in row_blocks(self, rows):
                lo, hi = self.indptr[start], self.indptr[stop]
                sources = np.repeat(rows[start:stop], degrees[start:stop])
                targets = self.indices[lo:hi]
                keep = sources < targets
                kept = int(np.count_nonzero(keep))
                edge_u[filled : filled + kept] = sources[keep]
                edge_v[filled : filled + kept] = targets[keep]
                filled += kept
            if filled != half:  # self-loops keep neither orientation
                edge_u, edge_v = edge_u[:filled].copy(), edge_v[:filled].copy()
            self._edge_arrays = (edge_u, edge_v)
        return self._edge_arrays


class CSRConflictGraph:
    """The conflict-graph read interface, written once over ``self.csr``.

    :class:`~repro.cluster.cluster_graph.ClusterGraph`,
    :class:`~repro.cluster.virtual_graph.VirtualGraph` and
    :class:`~repro.dynamic.view.FrozenConflictGraph` inherit it and keep
    only their own metadata; their ``csr`` dataclass field is their only
    adjacency state.  Everything derived from it (``adj``, ``max_degree``)
    is a ``cached_property`` in the instance dict, never an init field, so
    a ``dataclasses.replace`` copy starts without it.  Set questions (who
    of a vertex set is adjacent to ``v``) go to the batched kernels in
    :mod:`repro.graphcore.kernels` over ``csr``; no per-vertex container is
    kept.
    """

    csr: CSRAdjacency

    @property
    def n_vertices(self) -> int:
        """Number of vertices."""
        return self.csr.n_vertices

    def degree(self, v: int) -> int:
        """Degree of ``v`` (links to the same cluster counted once -- the
        quantity that is *hard* to compute in the model)."""
        return int(self.csr.indptr[v + 1] - self.csr.indptr[v])

    def neighbors(self, v: int) -> list[int]:
        """Sorted neighbor list of ``v`` (fresh per call)."""
        return self.csr.neighbors(v).tolist()

    def neighbor_array(self, v: int) -> np.ndarray:
        """Neighbors of ``v`` as an int64 array -- a zero-copy slice of the
        CSR (hot path for the coloring conflict checks)."""
        return self.csr.neighbors(v)

    def are_adjacent(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge (binary search on the CSR)."""
        return self.csr.has_edge(u, v)

    @cached_property
    def max_degree(self) -> int:
        """``Delta``, the maximum degree (0 for an edgeless graph),
        computed once per graph: nothing mutates ``csr``."""
        degrees = self.csr.degrees
        return int(degrees.max()) if degrees.size else 0

    def h_edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """All edges as ``(u, v)`` int64 arrays with ``u < v`` (the
        vectorized properness checker's input)."""
        return self.csr.edge_arrays()

    @property
    def n_h_edges(self) -> int:
        """Number of edges."""
        return self.csr.n_directed_edges // 2

    @cached_property
    def adj(self) -> list[list[int]]:
        """``adj[v]``: sorted neighbor list of ``v``, materialized from the
        CSR on first access (diagnostics and tests; no hot path reads it)."""
        return [
            part.tolist()
            for part in np.split(self.csr.indices, self.csr.indptr[1:-1])
        ]
