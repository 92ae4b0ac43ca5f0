"""Update vocabulary of the streaming engine.

A stream is a sequence of :class:`UpdateBatch` objects; each batch is an
unordered set of structural events the network absorbed "since the last
tick": links appearing/disappearing between clusters (H-edge insert/delete),
clusters arriving or departing wholesale (vertex add/remove), and cluster
membership churn (merge/split).  The engine applies a batch atomically and
repairs the coloring once per batch, which is the granularity all stats and
ledger charges are reported at.

Vertex ids are assigned sequentially by the engine (``next_vertex_id``);
generators mirror that rule so batches can reference vertices they create.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

#: Update kinds, in application order within a batch (removals before
#: insertions so a batch can recycle capacity; merges/splits last so they
#: see the batch's edge churn).
KINDS = (
    "edge_delete",
    "vertex_remove",
    "vertex_add",
    "edge_insert",
    "cluster_merge",
    "cluster_split",
)


@dataclass(frozen=True)
class Update:
    """One structural event.

    Payload by ``kind``:

    * ``edge_insert`` / ``edge_delete``: ``u``, ``v`` -- the H-edge.
    * ``vertex_add``: ``edges`` -- neighbors of the new vertex (which gets
      the next sequential id); ``size`` -- machines in the new cluster.
    * ``vertex_remove``: ``u`` -- the departing vertex.
    * ``cluster_merge``: ``u`` absorbs ``v`` (they must be H-adjacent:
      merged clusters stay connected through a realizing link).
    * ``cluster_split``: ``u`` splits; ``edges`` lists the neighbors that
      move to the new half (next sequential id), ``size`` the machines it
      takes along.  The halves stay linked by a fresh H-edge.
    """

    kind: str
    u: int = -1
    v: int = -1
    edges: tuple[int, ...] = ()
    size: int = 1

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown update kind {self.kind!r}")


@dataclass
class UpdateBatch:
    """One tick's worth of churn, applied and repaired atomically."""

    updates: list[Update] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.updates)

    def by_kind(self) -> dict[str, list[Update]]:
        """The updates grouped by kind in :data:`KINDS` order, each group
        in batch order; kinds absent from the batch are left out."""
        groups: dict[str, list[Update]] = {kind: [] for kind in KINDS}
        for update in self.updates:
            groups[update.kind].append(update)
        return {kind: group for kind, group in groups.items() if group}

    def counts(self) -> dict[str, int]:
        """Events per kind (stable key order, zero-free)."""
        return {kind: len(group) for kind, group in self.by_kind().items()}

    def in_application_order(self) -> list[Update]:
        """Updates in kind precedence (stable within a kind)."""
        return [up for group in self.by_kind().values() for up in group]

    # -- convenience constructors ---------------------------------------------

    def edge_insert(self, u: int, v: int) -> "UpdateBatch":
        """Append an H-edge insertion ``{u, v}`` (chainable)."""
        self.updates.append(Update("edge_insert", u=u, v=v))
        return self

    def edge_delete(self, u: int, v: int) -> "UpdateBatch":
        """Append an H-edge deletion ``{u, v}`` (chainable)."""
        self.updates.append(Update("edge_delete", u=u, v=v))
        return self

    def vertex_add(self, edges: Iterable[int] = (), size: int = 1) -> "UpdateBatch":
        """Append a cluster arrival: the next sequential id, wired to
        ``edges``, carrying ``size`` machines (chainable)."""
        self.updates.append(
            Update("vertex_add", edges=tuple(edges), size=size)
        )
        return self

    def vertex_remove(self, u: int) -> "UpdateBatch":
        """Append a cluster departure of ``u`` (chainable)."""
        self.updates.append(Update("vertex_remove", u=u))
        return self

    def cluster_merge(self, u: int, v: int) -> "UpdateBatch":
        """Append a merge: ``u`` absorbs its H-neighbor ``v`` (chainable)."""
        self.updates.append(Update("cluster_merge", u=u, v=v))
        return self

    def cluster_split(
        self, u: int, moved_neighbors: Iterable[int], size: int = 1
    ) -> "UpdateBatch":
        """Append a split of ``u``: ``moved_neighbors`` rewire to the new
        half, which takes ``size`` machines (chainable)."""
        self.updates.append(
            Update("cluster_split", u=u, edges=tuple(moved_neighbors), size=size)
        )
        return self
