"""The communication network ``G = (V_G, E_G)`` of Section 3.2.

Machines are integers ``0..n-1``; links are undirected pairs.  ``CommGraph``
is deliberately minimal and immutable-after-construction: algorithms never
mutate the network, they only send messages over it (accounted for by
:mod:`repro.network.ledger`).

Adjacency is stored as CSR (``indptr``/``indices`` int64 arrays) built in
one vectorized pass -- construction used to be the wall-clock floor of every
50k-machine scale instance.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from repro.graphcore.csr import CSRAdjacency, sorted_unique

if TYPE_CHECKING:
    import networkx as nx


class CommGraph:
    """An undirected communication network of ``n`` machines.

    Parameters
    ----------
    n:
        Number of machines.
    edges:
        Iterable of ``(u, v)`` links.  Self-loops are rejected; duplicate
        links are collapsed.
    """

    __slots__ = (
        "n", "_indptr", "_indices", "_link_u", "_link_v", "_link_codes",
        "_m", "_csr",
    )

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n <= 0:
            raise ValueError(f"need at least one machine, got n={n}")
        self.n = n
        if isinstance(edges, np.ndarray):
            arr = edges.astype(np.int64, copy=False).reshape(-1, 2)
        else:
            arr = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
        if arr.size:
            loops = arr[:, 0] == arr[:, 1]
            if loops.any():
                raise ValueError(
                    f"self-loop on machine {int(arr[loops][0, 0])}"
                )
            if arr.min() < 0 or arr.max() >= n:
                u, v = arr[((arr < 0) | (arr >= n)).any(axis=1)][0]
                raise ValueError(f"link ({int(u)},{int(v)}) out of range for n={n}")
            # codes lo * n + hi, built in one buffer
            codes = np.minimum(arr[:, 0], arr[:, 1])
            codes *= n
            codes += np.maximum(arr[:, 0], arr[:, 1])
            codes = sorted_unique(codes)
            self._link_u = codes // n
            self._link_v = codes % n
            self._link_codes = codes
        else:
            self._link_u = np.empty(0, dtype=np.int64)
            self._link_v = np.empty(0, dtype=np.int64)
            self._link_codes = np.empty(0, dtype=np.int64)
        self._m = int(self._link_u.size)
        self._csr = CSRAdjacency.from_edge_codes(self._link_codes, n)
        self._indptr = self._csr.indptr
        self._indices = self._csr.indices

    # ---- basic accessors ---------------------------------------------------

    @property
    def num_links(self) -> int:
        """Number of undirected links."""
        return self._m

    @property
    def csr(self) -> CSRAdjacency:
        """The machine-level CSR backbone (same arrays the accessors slice);
        lets machine-level batch work -- e.g. the vectorized Voronoi BFS --
        run through the :mod:`repro.graphcore` kernels."""
        return self._csr

    def neighbors(self, machine: int) -> Sequence[int]:
        """Machines adjacent to ``machine`` (sorted; zero-copy CSR slice)."""
        return self._indices[self._indptr[machine] : self._indptr[machine + 1]]

    def degree(self, machine: int) -> int:
        """Number of links incident to ``machine``."""
        return int(self._indptr[machine + 1] - self._indptr[machine])

    def has_link(self, u: int, v: int) -> bool:
        """Whether machines ``u`` and ``v`` share a link."""
        a = self.neighbors(u)
        b = self.neighbors(v)
        src, tgt = (a, v) if a.size <= b.size else (b, u)
        i = int(np.searchsorted(src, tgt))
        return i < src.size and int(src[i]) == tgt

    def link_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """All links as parallel ``(u, v)`` int64 arrays with ``u < v``,
        lexicographically sorted (the vectorized construction input of
        :meth:`ClusterGraph.from_assignment`)."""
        return self._link_u, self._link_v

    def link_index(self, u: int, v: int) -> int:
        """Position of link ``{u, v}`` in the :meth:`link_arrays` order.

        The canonical index for per-link attribute arrays (the
        heterogeneous network model keys its bandwidth/latency samples by
        it).  Raises ``KeyError`` when the machines share no link.
        """
        lo, hi = (u, v) if u < v else (v, u)
        code = lo * self.n + hi
        i = int(np.searchsorted(self._link_codes, code))
        if i >= self._m or int(self._link_codes[i]) != code:
            raise KeyError(f"machines {u} and {v} share no link")
        return i

    def link_indices(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """:meth:`link_index` of every pair ``(u[i], v[i])`` at once, as an
        int64 array.  Raises ``KeyError`` naming the first pair that shares
        no link."""
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        codes = lo * self.n + hi
        idx = np.searchsorted(self._link_codes, codes)
        found = idx < self._m
        found[found] = self._link_codes[idx[found]] == codes[found]
        if not found.all():
            i = int(np.flatnonzero(~found)[0])
            raise KeyError(f"machines {int(u[i])} and {int(v[i])} share no link")
        return idx

    def iter_links(self) -> Iterator[tuple[int, int]]:
        """All links, each once, as ``(u, v)`` with ``u < v`` (sorted)."""
        for u, v in zip(self._link_u.tolist(), self._link_v.tolist()):
            yield (u, v)

    # ---- interop ------------------------------------------------------------

    @classmethod
    def from_networkx(cls, graph: nx.Graph) -> "CommGraph":
        """Build from a networkx graph with integer-relabelable nodes
        (labelled in iteration order, see :func:`networkx_edge_array`)."""
        return cls(*networkx_edge_array(graph))

    def to_networkx(self) -> nx.Graph:
        """Export to networkx (used by reference checks)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self.n))
        graph.add_edges_from(self.iter_links())
        return graph

    def is_connected_subset(self, machines: Sequence[int]) -> bool:
        """Whether ``G[machines]`` is connected (BFS restricted to the set)."""
        if len(machines) == 0:
            return False
        member = set(int(m) for m in machines)
        start = int(machines[0])
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for v in self.neighbors(u).tolist():
                    if v in member and v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        return len(seen) == len(member)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CommGraph(n={self.n}, links={self._m})"


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
