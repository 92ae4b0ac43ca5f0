"""Partial colorings and palettes (Section 3.1 notation).

Colors are ``0..q-1`` (the paper's ``[q] = {1..q}`` shifted to 0-based);
``UNCOLORED = -1`` is the paper's ``⊥``.  The coloring object is simulation
state; algorithms may only *act* on information they paid rounds to learn --
cost charging lives in the algorithm modules, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    # ---- neighborhood-derived quantities (simulation-side) -------------------

    def neighbor_colors(self, graph, v: int) -> np.ndarray:
        """Colors used by ``v``'s neighbors (may contain ``UNCOLORED``)."""
        return self.colors[graph.neighbor_array(v)]

    def palette_array(self, graph, v: int) -> np.ndarray:
        """``L_φ(v) = [q] \\ φ(N(v))`` as a sorted int64 array -- the
        information a cluster-graph vertex *cannot* cheaply learn (Figure
        2); algorithms must charge for any use of it."""
        ncols = self.neighbor_colors(graph, v)
        free_mask = np.ones(self.num_colors, dtype=bool)
        used = ncols[(ncols >= 0) & (ncols < self.num_colors)]
        free_mask[used] = False
        return np.flatnonzero(free_mask)

    def is_free_for(self, graph, v: int, color: int) -> bool:
        """Whether no colored neighbor of ``v`` uses ``color``."""
        return not bool((self.neighbor_colors(graph, v) == color).any())

    def copy(self) -> "PartialColoring":
        """Deep copy (stages that may cancel work snapshot first)."""
        return PartialColoring(num_colors=self.num_colors, colors=self.colors.copy())


@dataclass
class CliquePaletteView:
    """The clique palette ``L_φ(K)`` as a distributed data structure
    (Lemma 4.8): its ``O(1)``-round queries are the count :attr:`size` and
    the ``i``-th free color ``free[i]``.

    Build one per (clique, coloring-state) moment; it snapshots ``φ(K)``.
    """

    members: list[int]
    free: np.ndarray  # sorted colors of [q] not used in K

    @classmethod
    def build(cls, coloring: PartialColoring, members: list[int]) -> "CliquePaletteView":
        """Snapshot ``L_φ(K)`` for clique ``K`` (one aggregation, charged by
        callers via :func:`repro.coloring.clique_palette.palette_view`)."""
        cols = coloring.colors[np.asarray(members, dtype=np.int64)]
        all_colors = np.arange(coloring.num_colors, dtype=np.int64)
        free_mask = np.ones(coloring.num_colors, dtype=bool)
        free_mask[cols[cols != UNCOLORED]] = False
        return cls(members=list(members), free=all_colors[free_mask])

    @property
    def size(self) -> int:
        """``|L_φ(K)|``."""
        return int(self.free.size)

    def free_above(self, floor: int) -> np.ndarray:
        """``L_φ(K) \\ [floor]``: free colors excluding the reserved prefix."""
        return self.free[self.free >= floor]
