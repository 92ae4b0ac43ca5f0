"""Update vocabulary of the streaming engine.

A stream is a sequence of :class:`UpdateBatch` objects; each batch is an
unordered set of structural events the network absorbed "since the last
tick": links appearing/disappearing between clusters (H-edge insert/delete),
clusters arriving or departing wholesale (vertex add/remove), and cluster
membership churn (merge/split).  The engine applies a batch atomically and
repairs the coloring once per batch, which is the granularity all stats and
ledger charges are reported at.

A batch is a table with one row per update, held as numpy columns
(:data:`COLUMNS`): the row's kind as an int8 index into :data:`KINDS`, its
``u``, ``v`` and ``size``, and one ``(offsets, edges)`` pair with the
neighbor list of each arrival and split (row ``i`` owns
``edges[offsets[i]:offsets[i + 1]]``; every other row owns an empty one).
The rows are kept in :data:`KINDS` precedence, stable within a kind, so
each kind's updates are one contiguous run: :meth:`UpdateBatch.by_kind` is
slicing and :meth:`UpdateBatch.counts` one ``bincount``.

Generators build batches straight from columns, one run per kind
(:meth:`UpdateBatch.from_runs`).  The chainable constructors
(:meth:`UpdateBatch.edge_insert` and friends) serve tests and hand-built
batches: they queue rows, which the first read of a column sorts into
place.

Vertex ids are assigned sequentially by the engine (``next_vertex_id``);
generators mirror that rule so batches can reference vertices they create.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

#: Update kinds, in application order within a batch (removals before
#: insertions so a batch can recycle capacity; merges/splits last so they
#: see the batch's edge churn).  A row's ``kind`` column holds its index.
KINDS = (
    "edge_delete",
    "vertex_remove",
    "vertex_add",
    "edge_insert",
    "cluster_merge",
    "cluster_split",
)

#: The columns of a batch and their dtypes.  Payload by kind:
#:
#: * ``edge_insert`` / ``edge_delete``: ``u``, ``v`` -- the H-edge.
#: * ``vertex_add``: its edges -- neighbors of the new vertex (which gets
#:   the next sequential id); ``size`` -- machines in the new cluster.
#: * ``vertex_remove``: ``u`` -- the departing vertex.
#: * ``cluster_merge``: ``u`` absorbs ``v`` (they must be H-adjacent:
#:   merged clusters stay connected through a realizing link).
#: * ``cluster_split``: ``u`` splits; its edges list the neighbors that
#:   move to the new half (next sequential id), ``size`` the machines it
#:   takes along.  The halves stay linked by a fresh H-edge.
#:
#: A column a kind does not use holds -1 (``u``, ``v``) or 1 (``size``).
COLUMNS = {
    "kind": np.int8,
    "u": np.int64,
    "v": np.int64,
    "size": np.int64,
    "offsets": np.int64,
    "edges": np.int64,
}

_CODE = {kind: code for code, kind in enumerate(KINDS)}

#: The columns one run of :meth:`UpdateBatch.from_runs` may give, each with
#: the value a row takes when its run leaves the column out.
_RUN_DEFAULTS = {"u": -1, "v": -1, "size": 1, "edges": ()}


def _run_columns(kind: str, run: dict) -> list[np.ndarray]:
    """The columns of one run of ``kind`` updates, with each row's
    neighbor count in place of ``offsets``."""
    unknown = set(run) - set(_RUN_DEFAULTS)
    if unknown:
        raise ValueError(f"unknown {kind} column(s) {sorted(unknown)}")
    n = len(next(iter(run.values()), ()))
    columns = [np.full(n, _CODE[kind], dtype=np.int8)]
    for name in ("u", "v", "size"):
        given = run.get(name, np.full(n, _RUN_DEFAULTS[name]))
        columns.append(np.asarray(given, dtype=np.int64).reshape(-1))
    if "edges" in run:
        payloads = [np.asarray(p, dtype=np.int64).reshape(-1) for p in run["edges"]]
        columns.append(np.array([p.size for p in payloads], dtype=np.int64))
        columns.append(np.concatenate([np.empty(0, np.int64), *payloads]))
    else:
        columns += [np.zeros(n, dtype=np.int64), np.empty(0, dtype=np.int64)]
    if any(column.size != n for column in columns[:5]):
        raise ValueError(f"the columns of the {kind} run differ in length")
    return columns


class UpdateBatch:
    """One tick's worth of churn, applied and repaired atomically.

    The columns (see the module docstring and :data:`COLUMNS`) are
    read-only attributes; :meth:`columns` returns them all by name.
    """

    __slots__ = ("_columns", "_queued")

    def __init__(self) -> None:
        self._columns = tuple(
            np.zeros(1 if name == "offsets" else 0, dtype=dtype)
            for name, dtype in COLUMNS.items()
        )
        # rows from the chainable constructors: (kind, u, v, size, edges)
        self._queued: list[tuple] = []

    @classmethod
    def from_runs(cls, **runs: dict) -> "UpdateBatch":
        """A batch from one run of updates per kind, given as columns:
        ``runs[kind]`` maps ``"u"``, ``"v"`` and ``"size"`` to one value
        per row and ``"edges"`` to one neighbor list per row (arrivals and
        splits).  A column left out takes its default: -1 for ``u`` and
        ``v``, 1 for ``size``, no neighbors.  The runs may come in any
        order; the batch holds them in :data:`KINDS` precedence.  Raises
        ``ValueError`` on an unknown kind or column, or on a run whose
        columns differ in length."""
        unknown = set(runs) - set(KINDS)
        if unknown:
            raise ValueError(f"unknown update kind(s) {sorted(unknown)}")
        batch = cls()
        parts = [_run_columns(kind, runs[kind]) for kind in KINDS if kind in runs]
        if parts:
            kind, u, v, size, counts, edges = map(np.concatenate, zip(*parts))
            offsets = np.zeros(counts.size + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            batch._columns = (kind, u, v, size, offsets, edges)
        return batch

    def _read(self) -> tuple[np.ndarray, ...]:
        """The columns, with any queued rows sorted into them (each after
        the rows of its kind already there)."""
        if self._queued:
            kind, u, v, size, offsets, edges = self._columns
            rows = zip(
                (KINDS[code] for code in kind.tolist()),
                u.tolist(),
                v.tolist(),
                size.tolist(),
                np.split(edges, offsets[1:-1]),
            )
            runs: dict[str, dict[str, list]] = {}
            for row in [*rows, *self._queued]:
                run = runs.setdefault(row[0], {key: [] for key in _RUN_DEFAULTS})
                for key, value in zip(_RUN_DEFAULTS, row[1:]):
                    run[key].append(value)
            self._queued = []
            self._columns = UpdateBatch.from_runs(**runs)._columns
        return self._columns

    @property
    def kind(self) -> np.ndarray:
        """Each row's kind, an int8 index into :data:`KINDS`."""
        return self._read()[0]

    @property
    def u(self) -> np.ndarray:
        """Each row's ``u`` (int64; -1 where the kind has none)."""
        return self._read()[1]

    @property
    def v(self) -> np.ndarray:
        """Each row's ``v`` (int64; -1 where the kind has none)."""
        return self._read()[2]

    @property
    def size(self) -> np.ndarray:
        """Each row's machine count (int64; 1 where the kind has none)."""
        return self._read()[3]

    @property
    def offsets(self) -> np.ndarray:
        """Row ``i``'s payload is ``edges[offsets[i]:offsets[i + 1]]``."""
        return self._read()[4]

    @property
    def edges(self) -> np.ndarray:
        """The arrival and split neighbor lists, concatenated in row order."""
        return self._read()[5]

    def columns(self) -> dict[str, np.ndarray]:
        """Every column by name, in :data:`COLUMNS` order."""
        return dict(zip(COLUMNS, self._read()))

    def payload(self, i: int) -> np.ndarray:
        """Row ``i``'s neighbor list (empty unless an arrival or split)."""
        offsets = self.offsets
        return self.edges[offsets[i] : offsets[i + 1]]

    def __len__(self) -> int:
        return self._columns[0].size + len(self._queued)

    def by_kind(self) -> dict[str, slice]:
        """Each kind's run of rows as a slice, in :data:`KINDS` order;
        kinds absent from the batch are left out."""
        bounds = np.zeros(len(KINDS) + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.kind, minlength=len(KINDS)), out=bounds[1:])
        return {
            kind: slice(int(bounds[code]), int(bounds[code + 1]))
            for code, kind in enumerate(KINDS)
            if bounds[code + 1] > bounds[code]
        }

    def counts(self) -> dict[str, int]:
        """Events per kind (stable key order, zero-free)."""
        tally = np.bincount(self.kind, minlength=len(KINDS)).tolist()
        return {kind: n for kind, n in zip(KINDS, tally) if n}

    # -- chainable constructors -----------------------------------------------

    def _queue(
        self, kind: str, u: int = -1, v: int = -1, size: int = 1, edges=()
    ) -> "UpdateBatch":
        self._queued.append(
            (kind, int(u), int(v), int(size), tuple(int(x) for x in edges))
        )
        return self

    def edge_insert(self, u: int, v: int) -> "UpdateBatch":
        """Append an H-edge insertion ``{u, v}`` (chainable)."""
        return self._queue("edge_insert", u, v)

    def edge_delete(self, u: int, v: int) -> "UpdateBatch":
        """Append an H-edge deletion ``{u, v}`` (chainable)."""
        return self._queue("edge_delete", u, v)

    def vertex_add(self, edges: Iterable[int] = (), size: int = 1) -> "UpdateBatch":
        """Append a cluster arrival: the next sequential id, wired to
        ``edges``, carrying ``size`` machines (chainable)."""
        return self._queue("vertex_add", size=size, edges=edges)

    def vertex_remove(self, u: int) -> "UpdateBatch":
        """Append a cluster departure of ``u`` (chainable)."""
        return self._queue("vertex_remove", u)

    def cluster_merge(self, u: int, v: int) -> "UpdateBatch":
        """Append a merge: ``u`` absorbs its H-neighbor ``v`` (chainable)."""
        return self._queue("cluster_merge", u, v)

    def cluster_split(
        self, u: int, moved_neighbors: Iterable[int], size: int = 1
    ) -> "UpdateBatch":
        """Append a split of ``u``: ``moved_neighbors`` rewire to the new
        half, which takes ``size`` machines (chainable)."""
        return self._queue("cluster_split", u, size=size, edges=moved_neighbors)
