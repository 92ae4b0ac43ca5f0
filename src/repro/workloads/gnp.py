"""G(n, p) draws as int64 edge arrays, bitwise equal to networkx's.

``nx.fast_gnp_random_graph`` and ``nx.gnp_random_graph`` spend nearly all
their time in per-pair Python (one ``random()`` call, one ``add_edge``).
The ports here consume the same ``random.Random(seed)`` stream in blocks
and return the edges in the order the networkx graph's ``edges()`` would
yield them, so every instance built on top keeps its pinned bits:

* **Stream.** networkx seeds ``random.Random(seed)``, an MT19937 whose
  ``random()`` is the same 53-bit construction as numpy's legacy
  ``RandomState.random_sample``; :func:`mt19937_stream` copies the state
  across, so a block draw reproduces the scalar calls exactly.
* **Order.** Both samplers visit pairs in increasing order, so every
  adjacency dict ends up sorted and ``edges()`` yields ``(min, max)``
  pairs in lexicographic order.
* **Truncation.** ``fast_gnp`` truncates ``log(1 - u) / log(1 - p)``;
  ``np.log`` may differ from ``math.log`` in the last ulp, so quotients
  within a few ulps of an integer are recomputed with scalar ``math.log``
  (:func:`truncate_skips`).

:func:`connect_components` then patches a draw into a connected network
the way the generators always did with ``nx.connected_components``.
"""

from __future__ import annotations

import math
import random

import numpy as np

from repro.graphcore import CSRAdjacency, gather_neighborhoods, label_components

#: Uniform draws per block: bounds the scratch memory of a dense draw.
BLOCK_DRAWS = 1 << 22
#: Quotients this many ulps from an integer are recomputed with ``math.log``.
GUARD_ULPS = 8


def _empty_edges() -> np.ndarray:
    return np.empty((0, 2), dtype=np.int64)


def mt19937_stream(seed: int) -> np.random.RandomState:
    """A numpy stream whose ``random_sample`` draws equal successive
    ``random.Random(seed).random()`` calls."""
    _version, internal, _gauss = random.Random(seed).getstate()
    stream = np.random.RandomState(0)
    stream.set_state(
        ("MT19937", np.asarray(internal[:-1], dtype=np.uint32), internal[-1])
    )
    return stream


def truncate_skips(
    quotients: np.ndarray, draws: np.ndarray, lp: float, cap: int
) -> np.ndarray:
    """``min(int(math.log(1.0 - u) / lp), cap)`` for every draw ``u``,
    given its vectorized quotient.

    Only a quotient within :data:`GUARD_ULPS` ulps of an integer can
    truncate differently when ``np.log`` and ``math.log`` disagree in the
    last place; those are recomputed with the scalar formula networkx uses.
    """
    skips = np.minimum(quotients, float(cap)).astype(np.int64)
    near = np.abs(quotients - np.rint(quotients)) <= GUARD_ULPS * np.spacing(quotients)
    for i in np.flatnonzero(near).tolist():
        skips[i] = min(int(math.log(1.0 - float(draws[i])) / lp), cap)
    return skips


def _unrank_lower(index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs ``(v, w)``, ``w < v``, with ``index = v (v - 1) / 2 + w``."""
    v = ((1.0 + np.sqrt(1.0 + 8.0 * index)) // 2).astype(np.int64)
    v -= v * (v - 1) // 2 > index
    v += (v + 1) * v // 2 <= index
    return v, index - v * (v - 1) // 2


def fast_gnp_edges(n: int, p: float, seed: int) -> np.ndarray:
    """The edges of ``nx.fast_gnp_random_graph(n, p, seed=seed)``.

    Batagelj-Brandes: each draw adds a geometric skip to a linear index
    over the pairs ``w < v``; a cumulative sum over a block of skips finds
    every chosen index at once.  ``p <= 0`` and ``p >= 1`` defer to
    :func:`gnp_edges`, as networkx does.
    """
    if p <= 0 or p >= 1:
        return gnp_edges(n, p, seed)
    total = n * (n - 1) // 2
    if total == 0:
        return _empty_edges()
    stream = mt19937_stream(seed)
    lp = math.log(1.0 - p)
    chosen: list[np.ndarray] = []
    last = -1
    while True:
        expected = p * (total - last)
        block = min(BLOCK_DRAWS, int(expected + 6.0 * math.sqrt(expected)) + 64)
        draws = stream.random_sample(block)
        skips = truncate_skips(np.log(1.0 - draws) / lp, draws, lp, total)
        index = last + np.cumsum(skips + 1)
        past = np.flatnonzero(index >= total)
        if past.size:
            chosen.append(index[: past[0]])
            break
        chosen.append(index)
        last = int(index[-1])
    v, w = _unrank_lower(np.concatenate(chosen))
    codes = np.sort(w * n + v)
    return np.stack([codes // n, codes % n], axis=1)


def gnp_edges(n: int, p: float, seed: int) -> np.ndarray:
    """The edges of ``nx.gnp_random_graph(n, p, seed=seed)``: one draw per
    pair ``i < j`` in lexicographic order, kept when below ``p``."""
    if p >= 1:
        i, j = np.triu_indices(n, 1)
        return np.stack([i, j], axis=1).astype(np.int64)
    total = n * (n - 1) // 2
    if p <= 0 or total == 0:
        return _empty_edges()
    stream = mt19937_stream(seed)
    picks = [
        start + np.flatnonzero(stream.random_sample(min(BLOCK_DRAWS, total - start)) < p)
        for start in range(0, total, BLOCK_DRAWS)
    ]
    index = np.concatenate(picks)
    rows = np.arange(n, dtype=np.int64)
    row_start = rows * (2 * n - rows - 1) // 2
    i = np.searchsorted(row_start, index, side="right") - 1
    return np.stack([i, index - row_start[i] + i + 1], axis=1)


def _set_order_representatives(
    n: int, edges: np.ndarray, labels: np.ndarray, minima: np.ndarray
) -> np.ndarray:
    """``next(iter(component))`` for every component, as networkx yields it.

    ``nx.connected_components`` returns each component as the ``set`` its
    BFS from the smallest vertex filled, and the first element in CPython
    set order is not the minimum in general.  The set is rebuilt here in
    the same insertion order (level by level, neighbors sorted), which
    reproduces its iteration order.  The component holding vertex 0 always
    yields 0, and a singleton its only vertex.
    """
    reps = minima.copy()
    sizes = np.bincount(labels, minlength=n)[minima]
    roots = minima[(sizes > 1) & (minima != 0)]
    if roots.size == 0:
        return reps
    csr = CSRAdjacency.from_edge_arrays(edges[:, 0], edges[:, 1], n)
    seen = np.zeros(n, dtype=bool)
    seen[roots] = True
    levels = [roots]
    frontier = roots
    while frontier.size:
        # first discovery in (frontier order, sorted neighbor order) is the
        # insertion order of each component's own BFS: components are
        # disjoint, so interleaving them changes no relative order
        _seg, flat = gather_neighborhoods(csr, frontier)
        fresh = flat[~seen[flat]]
        found, first = np.unique(fresh, return_index=True)
        frontier = found[np.argsort(first, kind="stable")]
        seen[frontier] = True
        levels.append(frontier)
    order = np.concatenate(levels)
    order = order[np.argsort(labels[order], kind="stable")]
    bounds = np.flatnonzero(np.diff(labels[order])) + 1
    slots = np.searchsorted(minima, roots)
    for slot, members in zip(slots.tolist(), np.split(order, bounds)):
        reps[slot] = next(iter(set(members.tolist())))
    return reps


def connect_components(n: int, edges: np.ndarray) -> np.ndarray:
    """Join the components of a G(n, p) draw into one connected network.

    Consecutive components (ordered by smallest vertex) are linked between
    their :func:`_set_order_representatives`.  ``edges`` must be in the
    sorted-adjacency order the samplers return; the result is in the
    patched networkx graph's ``edges()`` order, where each vertex lists its
    drawn neighbors first and its patch neighbors after, in patch order.
    """
    labels = label_components(edges[:, 0], edges[:, 1], n, np.ones(n, dtype=bool))
    minima = np.flatnonzero(labels == np.arange(n))
    if minima.size <= 1:
        return edges
    reps = _set_order_representatives(n, edges, labels, minima)
    a, b = reps[:-1], reps[1:]
    patches = np.stack([np.minimum(a, b), np.maximum(a, b)], axis=1)
    merged = np.concatenate([edges, patches])
    return merged[np.argsort(merged[:, 0], kind="stable")]
