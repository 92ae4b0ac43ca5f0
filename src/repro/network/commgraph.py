"""The communication network ``G = (V_G, E_G)`` of Section 3.2.

Machines are integers ``0..n-1``; links are undirected pairs.  ``CommGraph``
is deliberately minimal and immutable-after-construction: algorithms never
mutate the network, they only send messages over it (accounted for by
:mod:`repro.network.ledger`).

The links are stored once, as CSR (``indptr``/``indices`` int64 arrays)
built in one vectorized dedupe pass; every link query reads that CSR.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.graphcore.csr import CSRAdjacency

if TYPE_CHECKING:
    import networkx as nx


class CommGraph:
    """An undirected communication network of ``n`` machines.

    Parameters
    ----------
    n:
        Number of machines.
    edges:
        Iterable or integer array of ``(u, v)`` links.  Self-loops and
        non-integer ids are rejected; duplicate links are collapsed.

    Attributes
    ----------
    csr:
        The machine-level CSR, the network's only link store.  Every link
        query reads it, and machine-level batch work (e.g. the vectorized
        Voronoi BFS) runs through the :mod:`repro.graphcore` kernels on it.
    """

    __slots__ = ("n", "csr")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n <= 0:
            raise ValueError(f"need at least one machine, got n={n}")
        self.n = n
        if not isinstance(edges, np.ndarray):
            edges = np.asarray(list(edges))
        # bools are not np.integer, so they fail here too
        if edges.size and not np.issubdtype(edges.dtype, np.integer):
            raise ValueError(f"machine ids must be integers, got dtype {edges.dtype}")
        arr = edges.astype(np.int64, copy=False).reshape(-1, 2)
        if arr.size:
            loops = arr[:, 0] == arr[:, 1]
            if loops.any():
                raise ValueError(
                    f"self-loop on machine {int(arr[loops][0, 0])}"
                )
            if arr.min() < 0 or arr.max() >= n:
                u, v = arr[((arr < 0) | (arr >= n)).any(axis=1)][0]
                raise ValueError(f"link ({int(u)},{int(v)}) out of range for n={n}")
        self.csr = CSRAdjacency.from_edge_arrays(arr[:, 0], arr[:, 1], n, dedupe=True)

    # ---- basic accessors ---------------------------------------------------

    @property
    def num_links(self) -> int:
        """Number of undirected links."""
        return self.csr.n_directed_edges // 2

    def neighbors(self, machine: int) -> Sequence[int]:
        """Machines adjacent to ``machine`` (sorted; zero-copy CSR slice)."""
        return self.csr.neighbors(machine)

    def degree(self, machine: int) -> int:
        """Number of links incident to ``machine``."""
        return int(self.csr.indptr[machine + 1] - self.csr.indptr[machine])

    def has_link(self, u: int, v: int) -> bool:
        """Whether machines ``u`` and ``v`` share a link."""
        return self.csr.has_edge(u, v)

    def link_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """All links as parallel ``(u, v)`` int64 arrays with ``u < v``,
        lexicographically sorted: the CSR's cached
        :meth:`~repro.graphcore.csr.CSRAdjacency.edge_arrays`.  Their order
        is the canonical index of per-link attribute arrays (the
        heterogeneous network model keys its bandwidth/latency samples by
        it)."""
        return self.csr.edge_arrays()

    def link_indices(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Position of every link ``{u[i], v[i]}`` in the :meth:`link_arrays`
        order, as an int64 array.  Raises ``KeyError`` naming the first pair
        with a machine id outside ``0..n-1``, else the first pair that
        shares no link."""
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        outside = (lo < 0) | (hi >= self.n)
        if outside.any():
            i = int(np.flatnonzero(outside)[0])
            raise KeyError(
                f"machines {int(u[i])} and {int(v[i])}: id outside 0..{self.n - 1}"
            )
        link_u, link_v = self.link_arrays()
        link_codes = link_u * self.n
        link_codes += link_v
        codes = lo * self.n + hi
        idx = np.searchsorted(link_codes, codes)
        found = idx < link_codes.size
        found[found] = link_codes[idx[found]] == codes[found]
        if not found.all():
            i = int(np.flatnonzero(~found)[0])
            raise KeyError(f"machines {int(u[i])} and {int(v[i])} share no link")
        return idx

    # ---- interop ------------------------------------------------------------

    @classmethod
    def from_networkx(cls, graph: nx.Graph) -> "CommGraph":
        """Build from a networkx graph with integer-relabelable nodes
        (labelled in iteration order, see :func:`networkx_edge_array`)."""
        return cls(*networkx_edge_array(graph))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CommGraph(n={self.n}, links={self.num_links})"


def networkx_edge_array(
    graph: nx.Graph, *, ordering: str = "default"
) -> tuple[int, np.ndarray]:
    """``(n, edges)`` of a networkx graph as an int64 ``(m, 2)`` array.

    Nodes are numbered ``0..n-1`` as ``nx.convert_node_labels_to_integers(
    graph, ordering=ordering)`` would (``"default"``: iteration order,
    ``"sorted"``: label order), and the edges come in that relabelled
    graph's ``edges()`` order.  The relabelled copy is never built: it has
    the same node order and, per node, the same later neighbors in the
    same order, so its ``edges()`` is ``graph.edges()`` mapped through the
    numbering.  Nodes already iterating as ``0..n-1`` skip the mapping too.
    """
    if ordering not in ("default", "sorted"):
        raise ValueError(f"unknown node ordering {ordering!r}")
    m = graph.number_of_edges()
    if all(i == node for i, node in enumerate(graph)):
        endpoints = (x for edge in graph.edges() for x in edge)
    else:
        nodes = sorted(graph) if ordering == "sorted" else list(graph)
        label = {node: i for i, node in enumerate(nodes)}
        endpoints = (label[x] for edge in graph.edges() for x in edge)
    flat = np.fromiter(endpoints, dtype=np.int64, count=2 * m)
    return graph.number_of_nodes(), flat.reshape(-1, 2)
