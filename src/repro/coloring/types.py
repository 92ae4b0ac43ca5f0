"""Partial colorings, palettes, and slack (Section 3.1 notation).

Colors are ``0..q-1`` (the paper's ``[q] = {1..q}`` shifted to 0-based);
``UNCOLORED = -1`` is the paper's ``⊥``.  The coloring object is simulation
state; algorithms may only *act* on information they paid rounds to learn --
cost charging lives in the algorithm modules, not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

UNCOLORED = -1


@dataclass
class PartialColoring:
    """A partial ``q``-coloring of the conflict graph's vertices.

    Attributes
    ----------
    num_colors:
        Palette size ``q`` (``Delta + 1`` for the main theorem).
    colors:
        Array over vertices; ``UNCOLORED`` means ``⊥``.
    """

    num_colors: int
    colors: np.ndarray

    @classmethod
    def empty(cls, n_vertices: int, num_colors: int) -> "PartialColoring":
        """The all-``⊥`` coloring."""
        return cls(
            num_colors=num_colors,
            colors=np.full(n_vertices, UNCOLORED, dtype=np.int64),
        )

    # ---- basic state ---------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        """Number of vertices."""
        return int(self.colors.size)

    def is_colored(self, v: int) -> bool:
        """Whether ``v ∈ dom φ``."""
        return self.colors[v] != UNCOLORED

    def get(self, v: int) -> int:
        """Color of ``v`` (``UNCOLORED`` if none)."""
        return int(self.colors[v])

    def assign(self, v: int, color: int) -> None:
        """Color ``v``; refuses to silently overwrite (recoloring is an
        explicit, deliberate operation -- see :meth:`recolor`)."""
        if not 0 <= color < self.num_colors:
            raise ValueError(f"color {color} outside [0, {self.num_colors})")
        if self.colors[v] != UNCOLORED:
            raise ValueError(f"vertex {v} already colored {self.colors[v]}")
        self.colors[v] = color

    def assign_many(self, vertices, colors) -> None:
        """Color each ``vertices[i]`` with ``colors[i]`` -- :meth:`assign`
        over aligned int64 arrays.  Keeps every guard of :meth:`assign`,
        plus one for a vertex listed twice, and checks them all before
        any write: on ``ValueError`` the coloring is unchanged."""
        verts = np.asarray(vertices, dtype=np.int64)
        cols = np.asarray(colors, dtype=np.int64)
        if verts.shape != cols.shape:
            raise ValueError(
                f"{verts.size} vertices but {cols.size} colors"
            )
        bad = (cols < 0) | (cols >= self.num_colors)
        if bad.any():
            raise ValueError(
                f"color {cols[bad][0]} outside [0, {self.num_colors})"
            )
        held = self.colors[verts] != UNCOLORED
        if held.any():
            v = verts[held][0]
            raise ValueError(f"vertex {v} already colored {self.colors[v]}")
        ordered = np.sort(verts)
        repeated = ordered[1:][ordered[1:] == ordered[:-1]]
        if repeated.size:
            raise ValueError(f"vertex {repeated[0]} listed twice")
        self.colors[verts] = cols

    def recolor(self, v: int, color: int) -> None:
        """Replace the color of an already-colored vertex (the donation step
        of Section 7 is the only caller)."""
        if not 0 <= color < self.num_colors:
            raise ValueError(f"color {color} outside [0, {self.num_colors})")
        if self.colors[v] == UNCOLORED:
            raise ValueError(f"vertex {v} is uncolored; use assign")
        self.colors[v] = color

    def uncolor(self, v: int) -> None:
        """Return ``v`` to ``⊥`` (used when a stage cancels its work, e.g.
        the colorful-matching restart in cabals)."""
        self.colors[v] = UNCOLORED

    def colored_count(self) -> int:
        """``|dom φ|``."""
        return int((self.colors != UNCOLORED).sum())

    def uncolored_vertices(self, among: Iterable[int] | None = None) -> list[int]:
        """Vertices outside ``dom φ`` (optionally restricted to a set)."""
        if among is None:
            return [int(v) for v in np.flatnonzero(self.colors == UNCOLORED)]
        return [v for v in among if self.colors[v] == UNCOLORED]

    def is_total(self) -> bool:
        """Whether every vertex is colored."""
        return bool((self.colors != UNCOLORED).all())

    # ---- neighborhood-derived quantities (simulation-side) -------------------

    def neighbor_colors(self, graph, v: int) -> np.ndarray:
        """Colors used by ``v``'s neighbors (may contain ``UNCOLORED``)."""
        return self.colors[graph.neighbor_array(v)]

    def palette_array(self, graph, v: int) -> np.ndarray:
        """``L_φ(v)`` as a sorted int64 array (allocation-light hot-path
        form of :meth:`palette`)."""
        ncols = self.neighbor_colors(graph, v)
        free_mask = np.ones(self.num_colors, dtype=bool)
        used = ncols[(ncols >= 0) & (ncols < self.num_colors)]
        free_mask[used] = False
        return np.flatnonzero(free_mask)

    def palette(self, graph, v: int) -> set[int]:
        """``L_φ(v) = [q] \\ φ(N(v))`` -- the information a cluster-graph
        vertex *cannot* cheaply learn (Figure 2); algorithms must charge for
        any use of it."""
        return {int(c) for c in self.palette_array(graph, v)}

    def slacks(
        self, graph, vertices, among: set[int] | None = None
    ) -> np.ndarray:
        """``s_φ(v)`` for a whole vertex array at once (batched form of
        :meth:`slack`, one CSR gather instead of per-vertex loops)."""
        from repro.graphcore import batch_slack_counts

        active_mask = None
        if among is not None:
            active_mask = np.zeros(self.n_vertices, dtype=bool)
            active_mask[list(among)] = True
        return batch_slack_counts(
            graph.csr,
            self.colors,
            vertices,
            self.num_colors,
            active_mask=active_mask,
        )

    def is_free_for(self, graph, v: int, color: int) -> bool:
        """Whether no colored neighbor of ``v`` uses ``color``."""
        return not bool((self.neighbor_colors(graph, v) == color).any())

    def uncolored_degree(self, graph, v: int, among: set[int] | None = None) -> int:
        """``deg_φ(v)``, optionally against an active subgraph ``H'``."""
        nbrs = graph.neighbor_array(v)
        mask = self.colors[nbrs] == UNCOLORED
        if among is None:
            return int(mask.sum())
        return sum(1 for u in nbrs[mask] if int(u) in among)

    def slack(self, graph, v: int, among: set[int] | None = None) -> int:
        """``s_φ(v) = |L_φ(v)| - deg_φ(v; H')`` (Section 3.1)."""
        return len(self.palette(graph, v)) - self.uncolored_degree(graph, v, among)

    def copy(self) -> "PartialColoring":
        """Deep copy (stages that may cancel work snapshot first)."""
        return PartialColoring(num_colors=self.num_colors, colors=self.colors.copy())


@dataclass
class CliquePaletteView:
    """The clique palette ``L_φ(K)`` as a distributed data structure
    (Lemma 4.8): supports counting and i-th-color queries in ``O(1)`` rounds.

    Build one per (clique, coloring-state) moment; it snapshots ``φ(K)``.
    """

    members: list[int]
    free: np.ndarray  # sorted colors of [q] not used in K
    used_count: int  # |{v in K : colored}|
    distinct_used: int  # |φ(K)|

    @classmethod
    def build(cls, coloring: PartialColoring, members: list[int]) -> "CliquePaletteView":
        """Snapshot ``L_φ(K)`` for clique ``K`` (one aggregation, charged by
        callers via :func:`repro.coloring.clique_palette.palette_view`)."""
        cols = coloring.colors[np.asarray(members, dtype=np.int64)]
        used = cols[cols != UNCOLORED]
        distinct = np.unique(used)
        all_colors = np.arange(coloring.num_colors, dtype=np.int64)
        free_mask = np.ones(coloring.num_colors, dtype=bool)
        free_mask[distinct] = False
        return cls(
            members=list(members),
            free=all_colors[free_mask],
            used_count=int(used.size),
            distinct_used=int(distinct.size),
        )

    @property
    def size(self) -> int:
        """``|L_φ(K)|``."""
        return int(self.free.size)

    @property
    def repeated_colors(self) -> int:
        """``M_K``-style reuse count: ``|K ∩ dom φ| - |φ(K)|``."""
        return self.used_count - self.distinct_used

    def ith_free(self, i: int) -> int:
        """The ``i``-th color of ``L_φ(K)`` (0-based; Lemma 4.8 query)."""
        return int(self.free[i])

    def free_above(self, floor: int) -> np.ndarray:
        """``L_φ(K) \\ [floor]``: free colors excluding the reserved prefix."""
        return self.free[self.free >= floor]

    def count_in_range(self, lo: int, hi: int) -> int:
        """``|L_φ(K) ∩ [lo, hi)|`` (Lemma 4.8 query)."""
        return int(np.searchsorted(self.free, hi) - np.searchsorted(self.free, lo))
