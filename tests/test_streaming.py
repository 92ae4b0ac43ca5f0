"""The fused estimator's contract (docs/ESTIMATORS.md).

Three layers of guarantees, each pinned here:

* **integer layer** -- ``(K*, Z)`` from the fused top-k and the bit-plane
  union probe are *exactly* the integers the naive sort-based definition
  (:func:`reference_topk`) produces;
* **estimate layer** -- the fused paths are bitwise-identical to the
  final math applied to those reference integers, and the exact form is
  bitwise-identical to per-row ``estimate_cardinality``;
* **cross-form tolerance** -- the two forms differ by at most the
  documented one-ulp slip, never enough to move a well-separated
  threshold comparison.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphcore import CSRAdjacency
from repro.sketch import (
    EMPTY_MAX,
    UnionPlanes,
    estimate_cardinality,
    estimates_from_counts,
    fused_topk_counts,
    threshold_index,
)
from repro.sketch import streaming
from repro.sketch.streaming import neighborhood_planes
from tests.conftest import neighborhood_maxima, packed_planes, union_planes


def reference_topk(maxima: np.ndarray, q: int):
    """(K*, Z) straight from the Lemma 5.2 definition via a full sort."""
    srt = np.sort(maxima, axis=1)
    k_star = srt[:, q - 1].astype(np.int64) + 1
    z = (maxima < k_star[:, None]).sum(axis=1).astype(np.int64)
    return k_star, z


def reference_estimates(maxima: np.ndarray, *, exact: bool = False):
    """Lemma 5.2 estimates of every row from the sort-based integers."""
    t = maxima.shape[1]
    k_star, z = reference_topk(maxima, threshold_index(t))
    empty = np.all(maxima == EMPTY_MAX, axis=1)
    return estimates_from_counts(k_star, z, t, exact=exact, empty_rows=empty)


def scalar_estimates(maxima: np.ndarray):
    """Per-row scalar Lemma 5.2 estimator, the exact form's reference."""
    return np.array([estimate_cardinality(r) for r in maxima])


@st.composite
def maxima_matrices(draw):
    """Small fingerprint-like matrices: geometric-flavored values with
    occasional EMPTY_MAX rows and heavy ties."""
    rows = draw(st.integers(1, 12))
    trials = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    mat = (rng.geometric(0.5, size=(rows, trials)) - 1).astype(np.int16)
    for r in range(rows):
        if rng.random() < 0.2:
            mat[r] = EMPTY_MAX
        elif rng.random() < 0.3:
            mat[r, rng.random(trials) < 0.3] = EMPTY_MAX
    return mat


@st.composite
def mixed_rows(draw):
    """Matrices whose rows mix every shape the plane walk must handle:
    all-empty rows, partly-empty rows and rows offset far above zero (so
    the walk starts well past the first thresholds)."""
    rows = draw(st.integers(1, 10))
    trials = draw(st.integers(1, 70))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    mat = (rng.geometric(0.5, size=(rows, trials)) - 1).astype(np.int16)
    kinds = draw(st.lists(st.sampled_from("epo."), min_size=rows, max_size=rows))
    for r, kind in enumerate(kinds):
        if kind == "e":
            mat[r] = EMPTY_MAX
        elif kind == "p":
            mat[r, rng.random(trials) < 0.5] = EMPTY_MAX
        elif kind == "o":
            mat[r] += int(rng.integers(5, 40))
    return mat


def reference_cap(maxima: np.ndarray, q: int):
    """``U``: the ``ceil((t + q) / 2)``-th smallest value plus one, by sort."""
    t = maxima.shape[1]
    return np.sort(maxima, axis=1)[:, (t + q + 1) // 2 - 1].astype(np.int64) + 1


class TestFusedTopK:
    @given(maxima_matrices())
    @settings(max_examples=150)
    def test_matches_sort_definition(self, mat):
        q = threshold_index(mat.shape[1])
        k_fused, z_fused = fused_topk_counts(mat, q)
        k_ref, z_ref = reference_topk(mat, q)
        assert np.array_equal(k_fused, k_ref)
        assert np.array_equal(z_fused, z_ref)

    @given(maxima_matrices())
    @settings(max_examples=100)
    def test_estimates_bitwise_vs_batched(self, mat):
        """Both final-math forms reproduce the sort-based reference
        bit-for-bit from the fused integers; the exact form also equals
        the scalar estimator row by row."""
        t = mat.shape[1]
        k, z = fused_topk_counts(mat, threshold_index(t))
        empty = np.all(mat == EMPTY_MAX, axis=1)
        log1p_form = estimates_from_counts(k, z, t, empty_rows=empty)
        exact_form = estimates_from_counts(k, z, t, exact=True, empty_rows=empty)
        assert np.array_equal(log1p_form, reference_estimates(mat))
        assert np.array_equal(exact_form, reference_estimates(mat, exact=True))
        assert np.array_equal(exact_form, scalar_estimates(mat))

    @given(maxima_matrices())
    @settings(max_examples=100)
    def test_cross_form_tolerance_contract(self, mat):
        """The documented divergence between the two forms: at most a few
        ulp of relative slip, nothing more (docs/ESTIMATORS.md)."""
        exact = reference_estimates(mat, exact=True)
        vectorized = reference_estimates(mat)
        np.testing.assert_allclose(vectorized, exact, rtol=1e-12, atol=0.0)


class TestUnionPlanes:
    @given(maxima_matrices(), st.integers(0, 2**31 - 1))
    @settings(max_examples=150)
    def test_union_estimates_bitwise_vs_materialized(self, mat, seed):
        """Bit-plane union probes yield the sort-based integers of the
        materialized (pairs, trials) union matrix, so the estimates match
        the reference to the last bit (and, in the exact form, the scalar
        estimator)."""
        rng = np.random.default_rng(seed)
        rows = mat.shape[0]
        m = int(rng.integers(1, 30))
        left = rng.integers(0, rows, m).astype(np.int64)
        right = rng.integers(0, rows, m).astype(np.int64)
        union = np.maximum(mat[left], mat[right])

        planes = union_planes(mat)
        k, z = planes.union_order_statistics(left, right)
        k_ref, z_ref = reference_topk(union, planes.q)
        assert np.array_equal(k, k_ref)
        assert np.array_equal(z, z_ref)
        got = planes.union_estimates(left, right)
        assert np.array_equal(got, reference_estimates(union))
        empty = np.all(union == EMPTY_MAX, axis=1)
        got_exact = estimates_from_counts(
            k, z, planes.trials, exact=True, empty_rows=empty
        )
        assert np.array_equal(got_exact, scalar_estimates(union))

    @given(maxima_matrices())
    @settings(max_examples=60)
    def test_row_estimates_bitwise(self, mat):
        planes = union_planes(mat)
        assert np.array_equal(planes.row_estimates(), reference_estimates(mat))

    @given(mixed_rows())
    @settings(max_examples=100)
    def test_row_statistics_read_off_the_planes(self, mat):
        """The level walk's popcounts give the rows' own ``(K*, Z)`` and
        ``U`` exactly, on all-empty, partly-empty and offset rows alike."""
        planes = union_planes(mat)
        k_ref, z_ref = reference_topk(mat, planes.q)
        assert np.array_equal(planes.row_k, k_ref)
        assert np.array_equal(planes.row_z, z_ref)
        assert np.array_equal(planes.row_u, reference_cap(mat, planes.q))
        assert np.array_equal(
            planes.empty_rows, np.all(mat == EMPTY_MAX, axis=1)
        )

    @given(mixed_rows(), st.integers(0, 2**31 - 1))
    @settings(max_examples=100)
    def test_plane_range_bounds_every_union(self, mat, seed):
        """Every union's ``K*`` lies in ``[max(K*_a, K*_b), max(U_a, U_b)]``,
        and the index holds exactly the planes ``[min K*, max U]``."""
        planes = union_planes(mat)
        rows = mat.shape[0]
        left, right = np.divmod(np.arange(rows * rows), rows)
        k, z = planes.union_order_statistics(left, right)
        k_ref, z_ref = reference_topk(np.maximum(mat[left], mat[right]), planes.q)
        assert np.array_equal(k, k_ref) and np.array_equal(z, z_ref)
        assert np.all(k >= np.maximum(planes.row_k[left], planes.row_k[right]))
        assert np.all(k <= np.maximum(planes.row_u[left], planes.row_u[right]))
        words = (mat.shape[1] + 63) // 64
        live = ~planes.empty_rows
        if not live.any():  # nothing to probe: no planes kept
            assert planes._planes.shape == (0, words)
            return
        # empty rows (K* = 0) never lower the range: a pair of them is not
        # probed, and any other pair starts at its non-empty row's K*
        first, last = planes.row_k[live].min(), planes.row_u.max()
        assert planes._k_lo == first
        assert planes._planes.shape == (rows * (last - first + 1), words)

    def test_chunking_invariant(self):
        rng = np.random.default_rng(3)
        mat = (rng.geometric(0.5, size=(40, 64)) - 1).astype(np.int16)
        left = rng.integers(0, 40, 500)
        right = rng.integers(0, 40, 500)
        planes = union_planes(mat)
        whole = planes.union_estimates(left, right)
        for chunk in (1, 7):
            tiny = planes.union_estimates(left, right, chunk_rows=chunk)
            assert np.array_equal(whole, tiny)

    def test_empty_pair_array(self):
        mat = np.full((3, 8), EMPTY_MAX, dtype=np.int16)
        planes = union_planes(mat)
        out = planes.union_estimates(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert out.size == 0

    def test_all_empty_rows_estimate_zero(self):
        mat = np.full((4, 16), EMPTY_MAX, dtype=np.int16)
        planes = union_planes(mat)
        out = planes.union_estimates(np.array([0, 1]), np.array([2, 3]))
        assert np.array_equal(out, np.zeros(2))


def star_and_clique(leaves: int, clique: int, isolated: int):
    """A star (center 0) whose center is joined to the first vertex of a
    clique, followed by ``isolated`` vertices: degree 1 at the leaves and
    the largest degree at the center, as CSR."""
    eu = [0] * leaves
    ev = list(range(1, leaves + 1))
    members = range(leaves + 1, leaves + 1 + clique)
    eu += [a for a in members for b in members if a < b] + [0]
    ev += [b for a in members for b in members if a < b] + [leaves + 1]
    n = leaves + 1 + clique + isolated
    return CSRAdjacency.from_edge_arrays(np.array(eu), np.array(ev), n)


@st.composite
def plane_graphs(draw):
    """A graph and per-vertex rows for the plane builder: G(n, p) or a star
    joined to a clique, with isolated vertices appended, and rows that are
    geometric, all zero or offset far up vertex by vertex -- so Lemma
    5.2's predicted level range can be wrong in either direction."""
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    isolated = draw(st.integers(0, 3))
    if draw(st.booleans()):
        n = draw(st.integers(1, 14))
        eu, ev = np.triu_indices(n, 1)
        keep = rng.random(eu.size) < draw(st.floats(0.0, 1.0))
        csr = CSRAdjacency.from_edge_arrays(eu[keep], ev[keep], n + isolated)
    else:
        csr = star_and_clique(
            draw(st.integers(1, 8)), draw(st.integers(2, 8)), isolated
        )
    n = csr.n_vertices
    trials = draw(st.integers(1, 90))
    rows = (rng.geometric(0.5, size=(n, trials)) - 1).astype(np.int8)
    kinds = draw(st.lists(st.sampled_from("gzo"), min_size=n, max_size=n))
    for v, kind in enumerate(kinds):
        if kind == "z":
            rows[v] = 0
        elif kind == "o":
            rows[v] += int(rng.integers(5, 40))
    return csr, rows


def maxima_of(csr: CSRAdjacency, rows: np.ndarray) -> np.ndarray:
    """Neighborhood maxima by the ``np.maximum.at`` oracle."""
    eu, ev = csr.edge_arrays()
    src, dst = np.concatenate([eu, ev]), np.concatenate([ev, eu])
    return neighborhood_maxima(rows, src, dst, csr.n_vertices)


class TestNeighborhoodPlanes:
    @given(plane_graphs())
    @settings(max_examples=150)
    def test_planes_match_the_packed_maxima(self, case):
        """The OR-plane build equals the packed planes of the scattered
        maxima on every level it returns, and so on the kept range
        ``[min K*, max U]``; the row and union ``(K*, Z, U)`` read off them
        equal the sort-based reference."""
        csr, rows = case
        n, t = rows.shape
        maxima = maxima_of(csr, rows)
        stack, first = neighborhood_planes(csr, rows)
        assert np.array_equal(
            stack, packed_planes(maxima, first, first + stack.shape[1] - 1)
        )
        planes = UnionPlanes(stack, first, t, csr.degrees == 0)
        k_ref, z_ref = reference_topk(maxima, planes.q)
        assert np.array_equal(planes.row_k, k_ref)
        assert np.array_equal(planes.row_z, z_ref)
        assert np.array_equal(planes.row_u, reference_cap(maxima, planes.q))
        left, right = np.divmod(np.arange(n * n), n)
        k, z = planes.union_order_statistics(left, right)
        k_ref, z_ref = reference_topk(
            np.maximum(maxima[left], maxima[right]), planes.q
        )
        assert np.array_equal(k, k_ref) and np.array_equal(z, z_ref)
        live = csr.degrees > 0
        if live.any():
            lo, hi = int(planes.row_k[live].min()), int(planes.row_u.max())
            assert planes._k_lo == lo
            kept = planes._planes.reshape(n, hi - lo + 1, -1)
            assert np.array_equal(kept, packed_planes(maxima, lo, hi))
        else:
            assert stack.shape[1] == 0

    def test_walk_extends_past_a_wrong_prediction(self, monkeypatch):
        """Leaves of degree 1 start the range low and the center's degree
        ends it low; zero rows in the clique put ``K*`` below the start and
        an offset center row puts the leaves' ``U`` far above the end, so
        the walk must add levels on both sides."""
        csr = star_and_clique(6, 5, 2)
        rng = np.random.default_rng(11)
        rows = (rng.geometric(0.5, size=(csr.n_vertices, 64)) - 1).astype(np.int8)
        rows[7:12] = 0
        rows[0] += 40
        calls = []
        real = streaming._or_levels

        def spy(rows, indptr, indices, levels, mask):
            calls.append(list(levels))
            return real(rows, indptr, indices, levels, mask)

        monkeypatch.setattr(streaming, "_or_levels", spy)
        stack, first = neighborhood_planes(csr, rows)
        predicted, extra = calls[0], calls[1:]
        assert any(max(c) < min(predicted) for c in extra)
        assert any(min(c) > max(predicted) for c in extra)
        maxima = maxima_of(csr, rows)
        last = first + stack.shape[1] - 1
        assert np.array_equal(stack, packed_planes(maxima, first, last))
        planes = UnionPlanes(stack, first, 64, csr.degrees == 0)
        assert np.array_equal(
            planes.row_k, reference_topk(maxima, planes.q)[0]
        )

    def test_no_edges_builds_no_planes(self):
        csr = CSRAdjacency.from_edge_arrays(np.empty(0), np.empty(0), 4)
        rows = np.zeros((4, 10), dtype=np.int8)
        stack, first = neighborhood_planes(csr, rows)
        assert stack.shape == (4, 0, 1)
        planes = UnionPlanes(stack, first, 10, csr.degrees == 0)
        assert np.array_equal(planes.row_estimates(), np.zeros(4))
        k, z = planes.union_order_statistics([0, 1], [2, 3])
        assert k.tolist() == [0, 0] and z.tolist() == [10, 10]

    @pytest.mark.parametrize("bad", [3, -1], ids=["past-rows", "negative"])
    def test_neighbor_ids_outside_the_rows_raise(self, bad):
        """The OR pass gathers neighbor planes in clip mode, which would
        silently read the nearest row; one check up front raises
        instead."""
        csr = CSRAdjacency(
            indptr=np.array([0, 1, 2, 3]), indices=np.array([1, bad, 1])
        )
        rows = np.zeros((3, 8), dtype=np.int8)
        with pytest.raises(IndexError):
            neighborhood_planes(csr, rows)


@pytest.mark.parametrize("words", [1, 27, 64])
def test_popcount_rows_is_the_exact_integer_sum(words):
    """The float32 matvec popcount equals the integer row sum, on random
    rows and on all-ones rows up to 64 words (the 4,096-trial cap, where
    a row counts 4,096)."""
    rng = np.random.default_rng(words)
    random = rng.integers(0, 2**64, size=(200, words), dtype=np.uint64)
    full = np.full((3, words), np.iinfo(np.uint64).max, dtype=np.uint64)
    for w in (random, full):
        assert np.array_equal(
            streaming._popcount_rows(w), np.bitwise_count(w).sum(axis=1)
        )
    assert streaming._popcount_rows(full).tolist() == [64 * words] * 3


_ROWS = np.zeros((3, 8), dtype=np.int16)
# levels 0 and 1 of _ROWS: no bit below 0, all eight below 1
_PLANES = packed_planes(_ROWS, 0, 1)
_NONE_EMPTY = np.zeros(3, dtype=bool)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: fused_topk_counts(_ROWS[0]), id="topk-1d"),
        pytest.param(lambda: fused_topk_counts(_ROWS[:, :0]), id="topk-t0"),
        pytest.param(lambda: fused_topk_counts(_ROWS, 0), id="topk-q0"),
        pytest.param(lambda: fused_topk_counts(_ROWS, 9), id="topk-q-above-t"),
        pytest.param(
            lambda: estimates_from_counts(np.ones(2), np.ones(2), 0),
            id="counts-trials0",
        ),
        pytest.param(
            lambda: estimates_from_counts(np.ones(2), np.ones(2), -3),
            id="counts-trials-negative",
        ),
        pytest.param(
            lambda: UnionPlanes(_PLANES[:, 0], 0, 8, _NONE_EMPTY), id="planes-1d"
        ),
        pytest.param(
            lambda: UnionPlanes(_PLANES[:, :, :0], 0, 0, _NONE_EMPTY),
            id="planes-t0",
        ),
        pytest.param(
            lambda: UnionPlanes(_PLANES, 0, 65, _NONE_EMPTY),
            id="planes-words-mismatch",
        ),
        pytest.param(
            lambda: UnionPlanes(_PLANES, 0, 8, _NONE_EMPTY[:2]),
            id="planes-empty-flags-short",
        ),
        pytest.param(
            lambda: UnionPlanes(_PLANES[:, 1:], 1, 8, _NONE_EMPTY),
            id="planes-start-above-k-star",
        ),
        pytest.param(
            lambda: UnionPlanes(_PLANES[:, :1], 0, 8, _NONE_EMPTY),
            id="planes-end-below-u",
        ),
        pytest.param(
            lambda: UnionPlanes(_PLANES[:, :0], 0, 8, _NONE_EMPTY),
            id="planes-no-levels",
        ),
        pytest.param(
            lambda: union_planes(_ROWS).union_estimates(
                np.array([0, 1]), np.array([2])
            ),
            id="union-misaligned",
        ),
        pytest.param(
            lambda: union_planes(_ROWS).union_order_statistics([-1], [0]),
            id="union-negative-id",
        ),
        pytest.param(
            lambda: union_planes(_ROWS).union_order_statistics([0], [3]),
            id="union-id-past-rows",
        ),
        pytest.param(
            lambda: union_planes(_ROWS).union_order_statistics(
                [0], [1], chunk_rows=-1
            ),
            id="union-chunk-negative",
        ),
    ],
)
def test_input_checks_raise(call):
    """Malformed input to the sketch kernels fails loudly, never silently."""
    with pytest.raises(ValueError):
        call()


class TestPinnedBuddyDigest:
    """The buddy predicate on a dense cell, pinned bit-for-bit.

    The digest was captured from the pre-fusion implementation (per-chunk
    ``np.maximum`` union matrices + ``batch_estimate``); the bit-plane
    rewire must reproduce the YES edges, the degree estimates, the
    neighborhood maxima of the shared fingerprint rows, and the post-call
    RNG position exactly.  The predicate never forms the maxima, so the
    test replays the rows' draw and scatters them with the conftest
    oracle, and checks that the predicate's OR-ed planes are those
    maxima's packed planes.
    """

    PINNED = "186268d810ecc765dc7f92e7d39be81b"

    def test_dense_cell_digest(self, monkeypatch):
        from repro.decomposition import buddy
        from repro.sketch import FingerprintTable
        from repro.workloads import high_degree_instance
        from tests.conftest import make_runtime

        w = high_degree_instance(
            np.random.default_rng(42),
            n_vertices=500,
            degree_fraction=0.85,
            cluster_size=1,
        )
        runtime = make_runtime(w.graph, seed=7)
        built = []
        monkeypatch.setattr(
            buddy,
            "neighborhood_planes",
            lambda *a: built.append(neighborhood_planes(*a)) or built[-1],
        )
        result = buddy.buddy_predicate(runtime, xi=0.25)
        # the neighborhood maxima, by the oracle over a replay of the draw
        replay = make_runtime(w.graph, seed=7)
        table = FingerprintTable(w.graph.n_vertices, result.trials, replay.rng)
        maxima = maxima_of(w.graph.csr, table.rows)
        yes_u, yes_v = result.yes_edge_arrays()
        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(yes_u).tobytes())
        digest.update(np.ascontiguousarray(yes_v).tobytes())
        digest.update(np.ascontiguousarray(result.degree_estimates).tobytes())
        digest.update(np.ascontiguousarray(maxima, dtype=np.int64).tobytes())
        digest.update(np.int64(result.trials).tobytes())
        digest.update(np.float64(runtime.rng.random()).tobytes())
        assert digest.hexdigest()[:32] == self.PINNED
        assert yes_u.size > 0  # the pin covers a non-trivial cell
        # the predicate's planes are the packed oracle maxima
        (stack, first), = built
        last = first + stack.shape[1] - 1
        assert np.array_equal(stack, packed_planes(maxima, first, last))
