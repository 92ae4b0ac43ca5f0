"""Delta-buffered CSR adjacency: the storage layer of the streaming engine.

A :class:`DeltaCSR` holds an immutable :class:`~repro.graphcore.csr.CSRAdjacency`
*base* plus an overlay of edits.  Queries merge base and overlay on the fly;
when the overlay grows past ``rebuild_fraction`` of the base, :meth:`compact`
folds everything into a fresh base via :meth:`CSRAdjacency.from_edge_arrays`
-- the classic periodic-rebuild scheme, so a long stream of small batches
never degrades query cost.

The overlay is arrays, not per-vertex sets.  An undirected edge ``{u, v}``
with ``u < v`` is packed into the int64 code ``(u << 32) | v``:

* **deleted base edges** are a bool *dead* mask over the base's undirected
  edge list (the cached ``base.edge_arrays()``).  That list is row-major
  with sorted rows, so its codes are sorted and one ``searchsorted`` finds
  an edge's index;
* **inserted non-base edges** are one insertion-ordered collection of codes,
  turned into an int64 array at most once between mutations.

A base edge that is deleted and re-inserted is *resurrected* (its dead bit
cleared), never duplicated into the inserted codes, so the two halves stay
disjoint.  Queries mask a base row by looking its slots' codes up in the
same sorted list.  The base codes and the dead mask are built lazily, at
most once per compaction, so constructing a :class:`DeltaCSR` costs no
O(m) work.

Vertex ids are stable across the lifetime of the structure: removing a vertex
leaves a dead (edge-free) id behind rather than renumbering, so stream events
can keep referring to the ids they were generated against.  Ids must fit in
32 bits (:data:`MAX_VERTICES`); the constructor and :meth:`DeltaCSR.add_vertex`
raise before an id would break the packing.
"""

from __future__ import annotations

import numpy as np

from repro.graphcore.csr import CSRAdjacency

#: Bits of the low half of an edge code; ids must stay below ``1 << _SHIFT``.
_SHIFT = 32
_LOW = (1 << _SHIFT) - 1

#: Exclusive bound on vertex ids (and so on the vertex count).
MAX_VERTICES = 1 << _SHIFT


def _ranges(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segment ids and flat positions of the slices
    ``starts[i] : starts[i] + counts[i]``, concatenated in order."""
    seg_ids = np.repeat(np.arange(starts.size, dtype=np.int64), counts)
    offsets = np.cumsum(counts) - counts
    positions = np.arange(seg_ids.size, dtype=np.int64) + np.repeat(
        starts - offsets, counts
    )
    return seg_ids, positions


class DeltaCSR:
    """A mutable undirected adjacency: CSR base + array edit overlay.

    The overlay layout, the lazily built arrays and the 32-bit id bound are
    described in the module docstring.  :meth:`edge_arrays` returns the
    surviving base edges followed by the inserted ones; that order is
    unspecified and may change between versions, so callers must not
    depend on it.

    Parameters
    ----------
    base:
        The starting adjacency (vertices ``0..base.n_vertices-1`` alive).
    rebuild_fraction:
        Compact when overlay edits exceed this fraction of the base's
        directed-edge count (plus a small absolute floor, so tiny graphs
        do not rebuild on every edit).
    """

    def __init__(self, base: CSRAdjacency, *, rebuild_fraction: float = 0.25):
        if rebuild_fraction <= 0:
            raise ValueError("rebuild_fraction must be positive")
        if base.n_vertices > MAX_VERTICES:
            raise ValueError(
                f"{base.n_vertices} vertices exceed the {MAX_VERTICES}-id bound"
            )
        self._rebuild_fraction = rebuild_fraction
        self._n = base.n_vertices
        self._alive = np.ones(self._n, dtype=bool)
        self._degrees = base.degrees.astype(np.int64)
        self._n_edges = base.n_directed_edges // 2
        self._rebuilds = 0
        self._set_base(base)

    def _set_base(self, base: CSRAdjacency) -> None:
        """Adopt ``base`` with an empty overlay."""
        self._base = base
        self._base_codes: np.ndarray | None = None
        self._dead: np.ndarray | None = None  # allocated with _base_codes
        self._inserted: dict[int, None] = {}  # codes, in insertion order
        self._inserted_arrays: tuple[np.ndarray, ...] | None = None
        self._delta_ops = 0

    # ---- size and liveness ---------------------------------------------------

    @property
    def n_vertices(self) -> int:
        """Total ids ever allocated (alive + dead)."""
        return self._n

    @property
    def n_edges(self) -> int:
        """Current undirected edge count."""
        return self._n_edges

    @property
    def n_alive(self) -> int:
        """Number of live vertices."""
        return int(self._alive.sum())

    @property
    def alive_mask(self) -> np.ndarray:
        """Boolean liveness mask over all ids (read-only view)."""
        return self._alive

    def is_alive(self, v: int) -> bool:
        """Whether id ``v`` is currently a live vertex."""
        return bool(self._alive[v])

    @property
    def degrees(self) -> np.ndarray:
        """Current per-vertex degrees (dead vertices have 0)."""
        return self._degrees

    @property
    def max_degree(self) -> int:
        """Current ``Delta`` over live vertices (0 for an empty graph)."""
        return int(self._degrees.max()) if self._n else 0

    @property
    def pending_delta_ops(self) -> int:
        """Overlay edits accumulated since the last compaction."""
        return self._delta_ops

    @property
    def rebuilds(self) -> int:
        """Number of compactions performed so far."""
        return self._rebuilds

    # ---- lazily built arrays -------------------------------------------------

    def _codes(self) -> np.ndarray:
        """Sorted codes of the base's undirected edges (allocates the dead
        mask alongside)."""
        if self._base_codes is None:
            base_u, base_v = self._base.edge_arrays()
            self._base_codes = (base_u << _SHIFT) | base_v
            self._dead = np.zeros(base_u.size, dtype=bool)
        return self._base_codes

    def _inserted_codes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(codes, src, dst)``: the inserted codes in insertion order, and
        both orientations of every inserted edge sorted by ``(src, dst)``."""
        if self._inserted_arrays is None:
            codes = np.fromiter(
                self._inserted, dtype=np.int64, count=len(self._inserted)
            )
            mirrored = ((codes & _LOW) << _SHIFT) | (codes >> _SHIFT)
            directed = np.sort(np.concatenate([codes, mirrored]))
            self._inserted_arrays = (
                codes, directed >> _SHIFT, directed & _LOW
            )
        return self._inserted_arrays

    def _base_edge(self, code: int) -> int:
        """Index of ``code`` in the base edge list, or -1 when absent."""
        codes = self._codes()
        i = int(codes.searchsorted(code))
        return i if i < codes.size and int(codes[i]) == code else -1

    def _code(self, u: int, v: int) -> int | None:
        """The code of ``{u, v}``, or ``None`` when an id is out of range."""
        if not (0 <= u < self._n and 0 <= v < self._n):
            return None
        return (u << _SHIFT) | v if u < v else (v << _SHIFT) | u

    # ---- mutation ------------------------------------------------------------

    def _check_alive(self, v: int) -> None:
        if not (0 <= v < self._n) or not self._alive[v]:
            raise ValueError(f"vertex {v} is not alive")

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is a current edge (base + overlay)."""
        code = self._code(u, v)
        if code is None:
            return False
        if code in self._inserted:
            return True
        i = self._base_edge(code)
        return i >= 0 and not self._dead[i]

    def insert_edge(self, u: int, v: int) -> None:
        """Add undirected edge ``{u, v}``; raises if present or degenerate."""
        self._check_alive(u)
        self._check_alive(v)
        if u == v:
            raise ValueError(f"self-loop on vertex {u}")
        code = self._code(u, v)
        if code in self._inserted:
            raise ValueError(f"edge ({u},{v}) already present")
        i = self._base_edge(code)
        if i >= 0:  # resurrect a base edge: undo its deletion
            if not self._dead[i]:
                raise ValueError(f"edge ({u},{v}) already present")
            self._dead[i] = False
        else:
            self._inserted[code] = None
            self._inserted_arrays = None
        self._degrees[u] += 1
        self._degrees[v] += 1
        self._n_edges += 1
        self._delta_ops += 1

    def delete_edge(self, u: int, v: int) -> None:
        """Remove undirected edge ``{u, v}``; raises if absent."""
        code = self._code(u, v)
        if code in self._inserted:  # overlay-only edge: cancel it
            del self._inserted[code]
            self._inserted_arrays = None
        else:
            i = -1 if code is None else self._base_edge(code)
            if i < 0 or self._dead[i]:
                raise ValueError(f"edge ({u},{v}) not present")
            self._dead[i] = True
        self._degrees[u] -= 1
        self._degrees[v] -= 1
        self._n_edges -= 1
        self._delta_ops += 1

    def add_vertex(self) -> int:
        """Allocate a fresh isolated vertex; returns its id."""
        v = self._n
        if v >= MAX_VERTICES:
            raise ValueError(f"vertex id {v} exceeds the {MAX_VERTICES}-id bound")
        self._n += 1
        self._alive = np.append(self._alive, True)
        self._degrees = np.append(self._degrees, 0)
        self._delta_ops += 1
        return v

    def remove_vertex(self, v: int) -> list[int]:
        """Delete all of ``v``'s edges and mark it dead; returns the
        neighbors it was detached from (the repair frontier)."""
        self._check_alive(v)
        detached = [int(u) for u in self.neighbors(v)]
        for u in detached:
            self.delete_edge(v, u)
        self._alive[v] = False
        self._delta_ops += 1
        return detached

    # ---- queries -------------------------------------------------------------

    def neighbors(self, v: int) -> np.ndarray:
        """Current sorted neighbor array of ``v`` (dead vertices: empty)."""
        return self.gather(np.array([v], dtype=np.int64))[1]

    def gather(self, vertices) -> tuple[np.ndarray, np.ndarray]:
        """Flattened neighborhoods of ``vertices`` -- the delta-aware
        counterpart of :func:`repro.graphcore.gather_neighborhoods`, aligned
        the same way (segments in query order, each sorted) so the flat
        kernels consume either."""
        verts = np.asarray(vertices, dtype=np.int64).reshape(-1)
        live = (verts >= 0) & (verts < self._n)
        live[live] = self._alive[verts[live]]
        # base rows, minus the deleted edges
        base = self._base
        in_base = live & (verts < base.n_vertices)
        rows = np.where(in_base, verts, 0)
        starts = base.indptr[rows]
        counts = np.where(in_base, base.indptr[rows + 1] - starts, 0)
        seg_ids, slots = _ranges(starts, counts)
        flat = base.indices[slots]
        if self._dead is not None:
            owners = verts[seg_ids]
            codes = (np.minimum(owners, flat) << _SHIFT) | np.maximum(owners, flat)
            keep = ~self._dead[self._codes().searchsorted(codes)]
            seg_ids, flat = seg_ids[keep], flat[keep]
        if not self._inserted:
            return seg_ids, flat
        # plus the incident inserted edges, merged into sorted segments
        _, src, dst = self._inserted_codes()
        lo = src.searchsorted(verts, side="left")
        hi = src.searchsorted(verts, side="right")
        ins_seg, ins_pos = _ranges(lo, np.where(live, hi - lo, 0))
        seg_ids = np.concatenate([seg_ids, ins_seg])
        flat = np.concatenate([flat, dst[ins_pos]])
        order = np.lexsort((flat, seg_ids))
        return seg_ids[order], flat[order]

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Current undirected edge list as ``(u, v)`` arrays with ``u < v``:
        the surviving base edges, then the inserted ones.  The order is
        unspecified; the properness check and compaction do not use it."""
        base_u, base_v = self._base.edge_arrays()
        if self._dead is not None:
            keep = ~self._dead
            base_u, base_v = base_u[keep], base_v[keep]
        if not self._inserted:
            return base_u, base_v
        codes = self._inserted_codes()[0]
        return (
            np.concatenate([base_u, codes >> _SHIFT]),
            np.concatenate([base_v, codes & _LOW]),
        )

    # ---- compaction ----------------------------------------------------------

    def should_compact(self) -> bool:
        """Whether the overlay has outgrown the rebuild budget."""
        budget = max(64, int(self._rebuild_fraction * max(1, 2 * self._n_edges)))
        return self._delta_ops > budget

    def compact(self) -> CSRAdjacency:
        """Fold the overlay into a fresh base CSR and return it."""
        edge_u, edge_v = self.edge_arrays()
        self._set_base(CSRAdjacency.from_edge_arrays(edge_u, edge_v, self._n))
        self._rebuilds += 1
        return self._base

    def maybe_compact(self) -> bool:
        """Compact if past the rebuild budget; returns whether it happened."""
        if self.should_compact():
            self.compact()
            return True
        return False

    def as_csr(self) -> CSRAdjacency:
        """A CSR equal to the *current* adjacency.

        Returns the base directly when the overlay is clean; otherwise
        builds a throwaway CSR without clearing the overlay (rebuild policy
        stays with :meth:`maybe_compact`).
        """
        if self._delta_ops == 0 and self._n == self._base.n_vertices:
            return self._base
        edge_u, edge_v = self.edge_arrays()
        return CSRAdjacency.from_edge_arrays(edge_u, edge_v, self._n)
