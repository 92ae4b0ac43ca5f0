"""The streaming update engine: delta-buffered CSR, update application,
frontier repair, and the repair-vs-scratch contract.

The load-bearing properties:

* :class:`DeltaCSR` answers every query exactly like an independently
  maintained adjacency, before AND after compaction (delta-buffer vs.
  rebuilt-CSR equivalence);
* after every applied batch the coloring is proper (checker-verified) and
  sits inside the *current* ``Delta + 1`` palette, for arbitrary valid
  streams over every update kind;
* the repair path and the recolor-from-scratch path agree on the palette
  bound and both stay proper on seeded streams.
"""

import numpy as np
import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.builders import blowup
from repro.dynamic import (
    DeltaCSR,
    DynamicColoring,
    FrozenConflictGraph,
    RepairError,
    UpdateBatch,
    run_stream,
)
from repro.dynamic.harness import exact_percentiles
from repro.dynamic.updates import KINDS
from repro.graphcore import CSRAdjacency, is_proper_edges
from repro.network.ledger import BandwidthLedger
from repro.verify.checker import is_proper
from tests.conftest import csr_from_adj_lists


def small_cluster_graph(seed: int, n: int = 10, density: float = 0.4,
                        cluster_size: int = 2):
    rng = np.random.default_rng(seed)
    h = nx.gnp_random_graph(n, density, seed=seed)
    return blowup(h, rng, cluster_size=cluster_size, topology="star")


# ---------------------------------------------------------------------------
# CSRAdjacency.from_edge_arrays (the dedup'd layout block)
# ---------------------------------------------------------------------------


class TestFromEdgeArrays:
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 30),
           density=st.floats(0.0, 1.0))
    @settings(max_examples=60)
    def test_agrees_with_adj_list_construction(self, seed, n, density):
        rng = np.random.default_rng(seed)
        m = int(density * n * (n - 1) / 2)
        pairs = set()
        for _ in range(m):
            u, v = rng.integers(0, n, size=2)
            if u != v:
                pairs.add((min(u, v), max(u, v)))
        adj = [[] for _ in range(n)]
        for u, v in pairs:
            adj[u].append(v)
            adj[v].append(u)
        reference = csr_from_adj_lists([sorted(a) for a in adj])
        arr = np.asarray(sorted(pairs), dtype=np.int64).reshape(-1, 2)
        built = CSRAdjacency.from_edge_arrays(arr[:, 0], arr[:, 1], n)
        assert np.array_equal(built.indptr, reference.indptr)
        assert np.array_equal(built.indices, reference.indices)

    def test_dedupe_collapses_duplicates_and_orientations(self):
        eu = np.array([0, 1, 2, 0])
        ev = np.array([1, 0, 0, 2])
        csr = CSRAdjacency.from_edge_arrays(eu, ev, 3, dedupe=True)
        assert csr.neighbors(0).tolist() == [1, 2]
        assert csr.neighbors(1).tolist() == [0]
        assert csr.n_directed_edges == 4

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CSRAdjacency.from_edge_arrays(np.array([0]), np.array([1, 2]), 3)


# ---------------------------------------------------------------------------
# DeltaCSR: overlay semantics and compaction equivalence
# ---------------------------------------------------------------------------


@st.composite
def edit_scripts(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    n = draw(st.integers(2, 16))
    density = draw(st.floats(0.0, 0.8))
    n_edits = draw(st.integers(0, 60))
    compact_every = draw(st.integers(0, 3))
    return seed, n, density, n_edits, compact_every


@st.composite
def array_scripts(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    n = draw(st.integers(2, 14))
    density = draw(st.floats(0.0, 0.9))
    n_calls = draw(st.integers(1, 12))
    compact_every = draw(st.integers(0, 3))
    return seed, n, density, n_calls, compact_every


class TestDeltaCSR:
    @given(edit_scripts())
    @settings(max_examples=60)
    def test_matches_reference_adjacency(self, script):
        """Random valid edits against an independent dict-of-sets mirror;
        interleaved compactions must never change any answer.  Insertions
        often re-insert a recently deleted pair, so base edges are
        resurrected and deleted again across compactions."""
        seed, n, density, n_edits, compact_every = script
        rng = np.random.default_rng(seed)
        reference = {v: set() for v in range(n)}
        init_pairs = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < density:
                    init_pairs.append((u, v))
                    reference[u].add(v)
                    reference[v].add(u)
        arr = np.asarray(init_pairs, dtype=np.int64).reshape(-1, 2)
        delta = DeltaCSR(CSRAdjacency.from_edge_arrays(arr[:, 0], arr[:, 1], n))
        alive = set(range(n))
        recently_deleted: list[tuple[int, int]] = []
        pending = 0
        for step in range(n_edits):
            choice = rng.random()
            live = sorted(alive)
            edges = [(u, v) for u in live for v in sorted(reference[u]) if u < v]
            non_edges = [
                (u, v)
                for i, u in enumerate(live)
                for v in live[i + 1:]
                if v not in reference[u]
            ]
            revivable = [
                (u, v) for u, v in recently_deleted
                if u in alive and v in alive and v not in reference[u]
            ]
            if choice < 0.35 and (non_edges or revivable):
                if revivable and (rng.random() < 0.35 or not non_edges):
                    u, v = revivable[int(rng.integers(0, len(revivable)))]
                else:
                    u, v = non_edges[int(rng.integers(0, len(non_edges)))]
                delta.insert_edge(u, v)
                reference[u].add(v)
                reference[v].add(u)
                pending += 1
            elif choice < 0.7 and edges:
                u, v = edges[int(rng.integers(0, len(edges)))]
                delta.delete_edge(u, v)
                reference[u].discard(v)
                reference[v].discard(u)
                recently_deleted.append((u, v))
                pending += 1
            elif choice < 0.85:
                w = delta.add_vertex()
                assert w == len(reference)
                reference[w] = set()
                alive.add(w)
                pending += 1
            elif len(alive) > 1:
                v = live[int(rng.integers(0, len(live)))]
                assert sorted(delta.remove_vertex(v)) == sorted(reference[v])
                pending += len(reference[v]) + 1
                for u in reference[v]:
                    reference[u].discard(v)
                reference[v] = set()
                alive.discard(v)
            if compact_every and step % compact_every == 0:
                delta.compact()
                pending = 0
            assert delta._delta_ops == pending
            if step % 7 == 0:
                self._assert_equal(delta, reference, alive, rng)
        self._assert_equal(delta, reference, alive, rng)
        delta.compact()  # the rebuilt CSR must answer identically
        assert delta._delta_ops == 0
        self._assert_equal(delta, reference, alive, rng)

    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 12),
           compact_between=st.booleans())
    @settings(max_examples=40)
    def test_resurrected_base_edge_survives_compaction(
        self, seed, n, compact_between
    ):
        """Delete a base edge, re-insert it, then delete it again across a
        compaction: it never turns into a duplicate or a ghost."""
        rng = np.random.default_rng(seed)
        reference = {v: set(range(n)) - {v} for v in range(n)}  # K_n base
        u_arr, v_arr = np.triu_indices(n, k=1)
        delta = DeltaCSR(CSRAdjacency.from_edge_arrays(u_arr, v_arr, n))
        u, v = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        delta.delete_edge(u, v)
        assert not delta.has_edge(u, v)
        delta.insert_edge(u, v)  # resurrection
        assert delta.has_edge(u, v) and delta.has_edge(v, u)
        self._assert_equal(delta, reference, set(range(n)), rng)
        if compact_between:
            delta.compact()
        delta.delete_edge(v, u)
        reference[u].discard(v)
        reference[v].discard(u)
        self._assert_equal(delta, reference, set(range(n)), rng)
        delta.compact()
        self._assert_equal(delta, reference, set(range(n)), rng)
        delta.insert_edge(u, v)  # a plain insert after the fold
        reference[u].add(v)
        reference[v].add(u)
        self._assert_equal(delta, reference, set(range(n)), rng)

    @staticmethod
    def _assert_equal(delta, reference, alive, rng):
        for v in reference:
            expected = sorted(reference[v])
            assert delta.neighbors(v).tolist() == expected, f"vertex {v}"
            assert delta.degrees[v] == len(expected)
        assert delta.n_edges == sum(len(s) for s in reference.values()) // 2
        edge_u, edge_v = delta.edge_arrays()
        assert (edge_u < edge_v).all()
        pairs = list(zip(edge_u.tolist(), edge_v.tolist()))
        assert len(set(pairs)) == len(pairs), "duplicate edge"
        want = {
            (u, v) for u in reference for v in reference[u] if u < v
        }
        assert set(pairs) == want
        assert {v for v in reference if delta.is_alive(v)} == alive
        assert delta.n_alive == len(alive) == int(delta.alive_mask.sum())
        # has_edge on random pairs, ids one past the end included
        n = len(reference)
        for u, v in rng.integers(-1, n + 1, size=(3 * n, 2)).tolist():
            expected = 0 <= u < n and v in reference[u]
            assert delta.has_edge(u, v) == expected, (u, v)
        # gather agrees with neighbors, for any query order and repeats
        verts = rng.integers(0, n, size=2 * n)
        seg_ids, flat = delta.gather(verts)
        for i, v in enumerate(verts.tolist()):
            assert flat[seg_ids == i].tolist() == delta.neighbors(v).tolist()
        built = delta.as_csr()
        ref_csr = csr_from_adj_lists(
            [sorted(reference[v]) for v in reference]
        )
        assert np.array_equal(built.indptr, ref_csr.indptr)
        assert np.array_equal(built.indices, ref_csr.indices)

    def test_duplicate_insert_and_missing_delete_rejected(self):
        delta = DeltaCSR(CSRAdjacency.from_edge_arrays(
            np.array([0]), np.array([1]), 3))
        with pytest.raises(ValueError):
            delta.insert_edge(0, 1)
        with pytest.raises(ValueError):
            delta.delete_edge(0, 2)
        with pytest.raises(ValueError):
            delta.insert_edge(0, 0)
        delta.remove_vertex(2)
        with pytest.raises(ValueError):
            delta.insert_edge(0, 2)

    @staticmethod
    def _edited_delta():
        """Base path 0-1-2-3 plus 1-5; then 2-3 deleted and resurrected,
        non-base 0-4 inserted and vertex 5 removed."""
        delta = DeltaCSR(CSRAdjacency.from_edge_arrays(
            np.array([0, 1, 1, 2]), np.array([1, 2, 5, 3]), 6))
        delta.delete_edge(2, 3)
        delta.insert_edge(3, 2)
        delta.insert_edge(0, 4)
        delta.remove_vertex(5)
        return delta

    @pytest.mark.parametrize(
        "edit,u,v",
        [
            ("insert_edge", 0, 1),  # duplicate of a base edge
            ("insert_edge", 4, 0),  # duplicate of an inserted edge
            ("insert_edge", 2, 3),  # duplicate of a resurrected base edge
            ("delete_edge", 0, 2),  # never present
            ("delete_edge", 1, 5),  # deleted with its endpoint
            ("insert_edge", 3, 3),  # self-loop
            ("delete_edge", 3, 3),
            ("insert_edge", 0, 5),  # dead endpoint
            ("insert_edge", 0, 6),  # out of range
            ("insert_edge", -1, 0),
            ("delete_edge", 0, 6),
            ("delete_edge", -1, 0),
            ("insert_edge", 0, 1 << 32),  # past the 32-bit code bound
            ("delete_edge", 0, (1 << 32) | 2),  # packs like (1, 2)
        ],
    )
    def test_rejected_edit_leaves_state_unchanged(self, edit, u, v, monkeypatch):
        """The bad edit alone, and as the last pair of a 3-pair call whose
        first two pairs are valid (checked pair by pair, and by array
        operations): each raises the same error and writes nothing."""
        from repro.dynamic import delta as delta_module

        delta = self._edited_delta()

        def state():
            return (
                delta.degrees.tolist(),
                delta.n_edges,
                delta._delta_ops,
                sorted(zip(*(a.tolist() for a in delta.edge_arrays()))),
            )

        before = state()
        with pytest.raises(ValueError) as scalar_error:
            getattr(delta, edit)(u, v)
        assert state() == before
        # valid prefixes: fresh non-edges, or a base and an inserted edge
        prefix = [(1, 3), (2, 4)] if edit == "insert_edge" else [(0, 1), (4, 0)]
        us, vs = (np.array(ends, dtype=np.int64) for ends in zip(*prefix, (u, v)))
        for pairwise_max in (delta_module._PAIRWISE_MAX, 0):
            monkeypatch.setattr(delta_module, "_PAIRWISE_MAX", pairwise_max)
            with pytest.raises(ValueError) as array_error:
                getattr(delta, edit)(us, vs)
            assert str(array_error.value) == str(scalar_error.value)
            assert state() == before
        assert delta.has_edge(1, 2) and delta.has_edge(2, 3)

    @given(array_scripts())
    @settings(max_examples=60)
    def test_array_call_matches_scalar_calls(self, script):
        """One array call leaves the state that its pairs applied one
        scalar call at a time leave.  Inserts favor recently deleted pairs,
        so base edges are resurrected and pairs deleted in one call are
        re-inserted in a later one; a call that repeats a pair is rejected
        whole."""
        seed, n, density, n_calls, compact_every = script
        rng = np.random.default_rng(seed)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = {p for p in pairs if rng.random() < density}
        arr = np.asarray(sorted(edges), dtype=np.int64).reshape(-1, 2)
        base = CSRAdjacency.from_edge_arrays(arr[:, 0], arr[:, 1], n)
        batched, scalar = DeltaCSR(base), DeltaCSR(base)
        deleted: set[tuple[int, int]] = set()
        for step in range(n_calls):
            non_edges = [p for p in pairs if p not in edges]
            if edges and (rng.random() < 0.5 or not non_edges):
                edit, pool = "delete_edge", sorted(edges)
            else:
                revivable = sorted(deleted - edges)
                favored = revivable and rng.random() < 0.6
                edit, pool = "insert_edge", revivable if favored else non_edges
            picks = rng.choice(
                len(pool), size=int(rng.integers(1, len(pool) + 1)), replace=False
            )
            call = [
                pool[i][::-1] if rng.random() < 0.5 else pool[i]
                for i in picks.tolist()
            ]
            if rng.random() < 0.2:  # a repeated pair, in either orientation
                again = call[int(rng.integers(0, len(call)))][::-1]
                bad = call + [again]
                with pytest.raises(ValueError):
                    getattr(batched, edit)(*np.array(bad, dtype=np.int64).T)
                self._assert_same(batched, scalar)
            getattr(batched, edit)(*np.array(call, dtype=np.int64).T)
            for u, v in call:
                getattr(scalar, edit)(u, v)
            touched = {(min(u, v), max(u, v)) for u, v in call}
            if edit == "delete_edge":
                edges -= touched
                deleted |= touched
            else:
                edges |= touched
            if compact_every and step % compact_every == 0:
                batched.compact()
                scalar.compact()
            self._assert_same(batched, scalar)
            edge_u, edge_v = batched.edge_arrays()
            assert set(zip(edge_u.tolist(), edge_v.tolist())) == edges

    @staticmethod
    def _assert_same(a, b):
        for v in range(a.n_vertices):
            assert a.neighbors(v).tolist() == b.neighbors(v).tolist(), v
        assert a.degrees.tolist() == b.degrees.tolist()
        assert a.n_edges == b.n_edges
        assert a._delta_ops == b._delta_ops

        def edge_set(delta):
            return set(zip(*(x.tolist() for x in delta.edge_arrays())))

        assert edge_set(a) == edge_set(b)
        csr_a, csr_b = a.as_csr(), b.as_csr()
        assert np.array_equal(csr_a.indptr, csr_b.indptr)
        assert np.array_equal(csr_a.indices, csr_b.indices)

    def test_ids_past_the_code_bound_rejected(self, monkeypatch):
        from repro.dynamic import delta as delta_module

        # an indptr of 2**32 + 2 zeros, as a zero-stride view (no memory)
        huge = CSRAdjacency(
            indptr=np.broadcast_to(np.int64(0), (delta_module.MAX_VERTICES + 2,)),
            indices=np.empty(0, dtype=np.int64),
        )
        with pytest.raises(ValueError, match="bound"):
            DeltaCSR(huge)
        delta = self._edited_delta()
        monkeypatch.setattr(delta_module, "MAX_VERTICES", delta.n_vertices)
        ops = delta._delta_ops
        with pytest.raises(ValueError, match="bound"):
            delta.add_vertex()
        assert delta.n_vertices == 6 and delta._delta_ops == ops
        assert delta.degrees.size == delta.alive_mask.size == 6

    def test_gather_matches_per_vertex_neighbors(self):
        g = small_cluster_graph(3, n=12, density=0.5)
        delta = DeltaCSR(g.csr)
        delta.delete_edge(*next(zip(*g.h_edge_arrays())))
        verts = np.arange(delta.n_vertices)
        seg_ids, flat = delta.gather(verts)
        for i, v in enumerate(verts):
            assert flat[seg_ids == i].tolist() == delta.neighbors(int(v)).tolist()

    def test_has_edge_takes_arrays(self):
        """The array form answers each pair as the scalar form does, out
        of range and packing-aliased ids included."""
        delta = self._edited_delta()
        ids = [-1, 0, 1, 2, 3, 4, 5, 6, (1 << 32) | 2]
        us, vs = (np.array(a, dtype=np.int64) for a in zip(*(
            (u, v) for u in ids for v in ids
        )))
        got = delta.has_edge(us, vs)
        assert got.dtype == bool and got.shape == us.shape
        expected = {(0, 1), (1, 2), (2, 3), (0, 4)}
        for u, v, hit in zip(us.tolist(), vs.tolist(), got.tolist()):
            assert hit == ((min(u, v), max(u, v)) in expected), (u, v)
            assert delta.has_edge(u, v) is hit
        assert delta.has_edge(1, [0, 2, 3]).tolist() == [True, True, False]
        with pytest.raises(ValueError, match="cannot pair"):
            delta.has_edge([0, 1], [2, 3, 4])

    def test_insert_record_lists_accepted_pairs_until_drained(self):
        delta = self._edited_delta()
        # the fixture's inserts: a resurrection, then a non-base edge
        us, vs = delta.drain_inserts()
        assert list(zip(us.tolist(), vs.tolist())) == [(3, 2), (0, 4)]
        assert delta.drain_inserts()[0].size == 0
        with pytest.raises(ValueError):
            delta.insert_edge([1, 0], [3, 1])  # rejected calls record nothing
        delta.insert_edge(1, [3, 4])
        delta.delete_edge(1, 4)  # a later delete leaves the record alone
        delta.compact()  # and so does compaction
        us, vs = delta.drain_inserts()
        assert us.tolist() == [1, 1] and vs.tolist() == [3, 4]

    def test_add_vertex_allocates_a_run(self):
        delta = self._edited_delta()
        ops = delta._delta_ops
        assert delta.add_vertex(3) == 6
        assert delta.add_vertex() == 9
        assert delta.n_vertices == 10 and delta._delta_ops == ops + 4
        assert delta.alive_mask[6:].all() and not delta.degrees[6:].any()
        delta.insert_edge(9, [6, 8])
        assert delta.neighbors(9).tolist() == [6, 8]

    @pytest.mark.parametrize("count", [-2, 0])
    def test_add_vertex_rejects_a_count_below_one_unchanged(self, count):
        delta = DeltaCSR(CSRAdjacency.from_edge_arrays([0], [1], 3))
        with pytest.raises(ValueError, match=f"cannot add {count} vertices"):
            delta.add_vertex(count)
        assert delta.n_vertices == delta.n_alive == 3
        assert delta.alive_mask.size == delta.degrees.size == 3
        assert delta.neighbors(1).tolist() == [0]
        assert delta._delta_ops == 0
        assert delta.add_vertex() == 3

    def test_periodic_rebuild_triggers(self, monkeypatch):
        from repro.dynamic import delta as delta_module

        monkeypatch.setattr(delta_module, "_REBUILD_FRACTION", 0.01)
        delta = DeltaCSR(
            CSRAdjacency.from_edge_arrays(np.array([0]), np.array([1]), 40)
        )
        rng = np.random.default_rng(0)
        added = 0
        while added < 80:
            u, v = rng.integers(0, 40, size=2)
            if u != v and not delta.has_edge(int(u), int(v)):
                delta.insert_edge(int(u), int(v))
                added += 1
            delta.maybe_compact()
        assert delta.rebuilds > 0
        assert delta.n_edges == 81


# ---------------------------------------------------------------------------
# Update vocabulary
# ---------------------------------------------------------------------------


class TestUpdates:
    """The columnar batch: rows in kind precedence, payloads through one
    ``(offsets, edges)`` pair, per-kind runs as slices."""

    def _shuffled(self):
        """A hand-built batch whose constructors run in no kind order."""
        return (
            UpdateBatch()
            .cluster_split(0, [1, 2], size=2)
            .edge_insert(0, 1)
            .vertex_add([], size=3)
            .vertex_remove(2)
            .edge_delete(3, 4)
            .cluster_split(5, [])
            .vertex_add([6, 7])
            .edge_insert(8, 9)
            .cluster_merge(10, 11)
            .edge_delete(12, 13)
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown update kind"):
            UpdateBatch.from_runs(rewire={"u": [0], "v": [1]})
        with pytest.raises(ValueError, match="unknown edge_insert column"):
            UpdateBatch.from_runs(edge_insert={"u": [0], "w": [1]})
        with pytest.raises(ValueError, match="differ in length"):
            UpdateBatch.from_runs(edge_insert={"u": [0, 2], "v": [1]})

    def test_rows_freeze_in_kind_precedence_stable_within_a_kind(self):
        batch = self._shuffled()
        assert [KINDS[k] for k in batch.kind.tolist()] == [
            "edge_delete", "edge_delete", "vertex_remove", "vertex_add",
            "vertex_add", "edge_insert", "edge_insert", "cluster_merge",
            "cluster_split", "cluster_split",
        ]
        assert batch.u.tolist() == [3, 12, 2, -1, -1, 0, 8, 10, 0, 5]
        assert batch.v.tolist() == [4, 13, -1, -1, -1, 1, 9, 11, -1, -1]
        assert batch.size.tolist() == [1, 1, 1, 3, 1, 1, 1, 1, 2, 1]
        # a row queued after a read lands behind its kind's earlier rows
        batch.edge_delete(14, 15)
        assert batch.u[:3].tolist() == [3, 12, 14] and len(batch) == 11

    def test_payloads_round_trip_through_offsets(self):
        batch = self._shuffled()
        payloads = [batch.payload(i).tolist() for i in range(len(batch))]
        assert payloads == [[], [], [], [], [6, 7], [], [], [], [1, 2], []]
        assert batch.offsets.tolist() == [0, 0, 0, 0, 0, 2, 2, 2, 2, 4, 4]
        assert batch.edges.tolist() == [6, 7, 1, 2]
        # the same runs given as columns build the same batch
        again = UpdateBatch.from_runs(
            cluster_split={"u": [0, 5], "size": [2, 1], "edges": [[1, 2], []]},
            vertex_add={"size": [3, 1], "edges": [[], [6, 7]]},
            edge_delete={"u": [3, 12], "v": [4, 13]},
            vertex_remove={"u": [2]},
            edge_insert={"u": [0, 8], "v": [1, 9]},
            cluster_merge={"u": [10], "v": [11]},
        )
        for name, column in batch.columns().items():
            assert np.array_equal(again.columns()[name], column), name

    def test_counts_equal_the_run_lengths(self):
        batch = self._shuffled()
        runs = batch.by_kind()
        assert list(runs) == [kind for kind in KINDS]
        assert batch.counts() == {
            kind: rows.stop - rows.start for kind, rows in runs.items()
        } == {
            "edge_delete": 2, "vertex_remove": 1, "vertex_add": 2,
            "edge_insert": 2, "cluster_merge": 1, "cluster_split": 2,
        }
        for kind, rows in runs.items():
            assert (batch.kind[rows] == KINDS.index(kind)).all()
        partial = UpdateBatch().edge_insert(0, 1).vertex_remove(2)
        assert list(partial.by_kind()) == ["vertex_remove", "edge_insert"]

    def test_empty_batch(self):
        for batch in (UpdateBatch(), UpdateBatch.from_runs(edge_insert={})):
            assert len(batch) == 0
            assert batch.counts() == {} and batch.by_kind() == {}
            assert batch.offsets.tolist() == [0] and batch.edges.size == 0
            engine = DynamicColoring(small_cluster_graph(2), seed=0)
            report = engine.apply(batch)
            assert report.proper and report.events == {} and report.dirty == 0

    def test_generated_batches_hold_only_small_typed_columns(self):
        import gc

        from repro.dynamic.updates import COLUMNS
        from repro.workloads import STREAMS

        w = STREAMS["sliding_window"](np.random.default_rng(0))
        for batch in w.batches:
            held = [x for x in gc.get_referents(batch) if x is not type(batch)]
            # the column tuple and the (empty) queue of constructor rows
            queued, columns = sorted(held, key=lambda x: type(x).__name__)
            assert queued == [] and type(columns) is tuple
            assert all(type(col) is np.ndarray for col in columns)
            dtypes = [np.dtype(dtype) for dtype in COLUMNS.values()]
            assert [col.dtype for col in columns] == dtypes
            assert sum(col.nbytes for col in columns) <= 40 * len(batch) + 64


# ---------------------------------------------------------------------------
# Engine invariants under arbitrary valid churn
# ---------------------------------------------------------------------------


def random_batches(rng, engine_graph, n_batches, ops_per_batch):
    """A random valid stream over every update kind, mirrored against an
    independent adjacency/sizes model (not the engine's own state)."""
    from repro.workloads.streams import _Shadow

    shadow = _Shadow(engine_graph)
    batches = []
    for _ in range(n_batches):
        batch = UpdateBatch()
        # emit in kind precedence so shadow state matches engine application
        live = shadow.alive_vertices()
        edge_u, edge_v = shadow.edge_arrays()
        if edge_u.size and rng.random() < 0.7:
            i = int(rng.integers(0, edge_u.size))
            batch.edge_delete(int(edge_u[i]), int(edge_v[i]))
            shadow.delete(int(edge_u[i]), int(edge_v[i]))
        if live.size > 2 and rng.random() < 0.4:
            v = int(live[rng.integers(0, live.size)])
            batch.vertex_remove(v)
            shadow.remove(v)
        if rng.random() < 0.5:
            live = shadow.alive_vertices()
            k = min(int(rng.integers(0, 4)), live.size)
            targets = [int(t) for t in rng.choice(live, size=k, replace=False)]
            batch.vertex_add(edges=targets, size=int(rng.integers(1, 4)))
            shadow.add(targets, size=1)
        for _ in range(ops_per_batch):
            live = shadow.alive_vertices()
            if live.size < 2:
                break
            u, v = rng.choice(live, size=2, replace=False)
            if not shadow.has_edge(int(u), int(v)):
                batch.edge_insert(int(u), int(v))
                shadow.insert(int(u), int(v))
        edge_u, edge_v = shadow.edge_arrays()
        if edge_u.size and rng.random() < 0.4:
            i = int(rng.integers(0, edge_u.size))
            u, v = int(edge_u[i]), int(edge_v[i])
            batch.cluster_merge(u, v)
            shadow.merge(u, v)
        splittable = [
            int(v) for v in shadow.alive_vertices()
            if shadow.sizes[v] >= 2 and shadow.neighbors(int(v)).size >= 1
        ]
        if splittable and rng.random() < 0.4:
            u = splittable[int(rng.integers(0, len(splittable)))]
            nbrs = shadow.neighbors(u)
            k = int(nbrs.size) // 2
            moved = [int(x) for x in rng.choice(nbrs, size=k, replace=False)]
            batch.cluster_split(u, moved, size=1)
            shadow.split(u, moved, 1)
        batches.append(batch)
    return batches


class TestEngineInvariants:
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(4, 14),
           density=st.floats(0.1, 0.7), n_batches=st.integers(1, 4))
    @settings(max_examples=40)
    def test_proper_and_in_palette_after_every_batch(
        self, seed, n, density, n_batches
    ):
        graph = small_cluster_graph(seed % 1000, n=n, density=density)
        engine = DynamicColoring(graph, seed=seed)
        rng = np.random.default_rng(seed + 1)
        for batch in random_batches(rng, graph, n_batches, ops_per_batch=4):
            report = engine.apply(batch)
            # the engine's own checker ran and these re-assert the
            # invariants independently:
            assert report.proper
            assert engine.num_colors == engine.delta.max_degree + 1
            alive_colors = engine.colors[engine.delta.alive_mask]
            assert (alive_colors >= 0).all()
            assert (alive_colors < engine.num_colors).all()
            edge_u, edge_v = engine.delta.edge_arrays()
            assert is_proper_edges(edge_u, edge_v, engine.colors)
            # degrees stayed consistent with the merged adjacency
            for v in range(engine.n_vertices):
                assert engine.delta.degrees[v] == engine.delta.neighbors(v).size

    def test_deterministic_given_seeds(self):
        graph = small_cluster_graph(7, n=12, density=0.4)
        rng_a = np.random.default_rng(3)
        batches = random_batches(rng_a, graph, 3, ops_per_batch=4)
        runs = []
        for _ in range(2):
            engine = DynamicColoring(small_cluster_graph(7, n=12, density=0.4),
                                     seed=11)
            result = engine.run(batches)
            runs.append((engine.colors.tolist(),
                         [r.repaired for r in result.reports]))
        assert runs[0] == runs[1]

    def test_improper_bootstrap_raises(self, monkeypatch):
        import repro
        from repro.coloring.stats import ColoringResult, ColoringStats

        graph = small_cluster_graph(3)

        def monochromatic(graph, **_kwargs):
            return ColoringResult(
                colors=np.zeros(graph.n_vertices, dtype=np.int64),
                num_colors=graph.max_degree + 1,
                stats=ColoringStats(),
                ledger_summary={},
                proper=False,
                seed=0,
                params_name="scaled",
            )

        monkeypatch.setattr(repro, "color_cluster_graph", monochromatic)
        with pytest.raises(RepairError, match="bootstrap"):
            DynamicColoring(graph, seed=0)


# ---------------------------------------------------------------------------
# Targeted update semantics
# ---------------------------------------------------------------------------


class TestUpdateSemantics:
    def test_insert_conflict_dirties_larger_endpoint(self):
        # two disconnected pairs colored identically, then joined
        csr_graph = blowup(
            nx.from_edgelist([(0, 1), (2, 3)]), np.random.default_rng(0),
            cluster_size=1,
        )
        engine = DynamicColoring(csr_graph, seed=0)
        c = engine.colors.copy()
        # find two non-adjacent same-colored vertices
        u = 0
        v = next(
            x for x in range(engine.n_vertices)
            if x != u and engine.colors[x] == engine.colors[u]
            and not engine.delta.has_edge(u, x)
        )
        report = engine.apply(UpdateBatch().edge_insert(u, v))
        assert report.proper
        assert engine.colors[u] == c[u]  # smaller id kept its color

    def test_monochromatic_inserts_dirty_their_larger_endpoints(self):
        graph = small_cluster_graph(8, n=24, density=0.2)
        engine = DynamicColoring(graph, seed=0)
        colors, n = engine.colors, engine.n_vertices
        non_edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if not engine.delta.has_edge(u, v)
        ]
        same = [(u, v) for u, v in non_edges if colors[u] == colors[v]][:4]
        other = [(u, v) for u, v in non_edges if colors[u] != colors[v]][:3]
        assert len(same) >= 3 and other
        batch = UpdateBatch()
        for u, v in other + same:
            batch.edge_insert(v, u)  # larger id first: orientation is moot
        dirty, groups = engine._ingest(batch)
        assert dirty == {v for _, v in same}
        assert list(groups) == ["edge_insert"]

    def test_rejected_insert_run_writes_none_of_its_edges(self):
        graph = small_cluster_graph(9, n=12, density=0.3)
        engine = DynamicColoring(graph, seed=0)
        delta = engine.delta
        n = engine.n_vertices
        fresh = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if not delta.has_edge(u, v)
        ][:2]
        live = tuple(int(x) for x in next(zip(*delta.edge_arrays())))
        degrees, n_edges = delta.degrees.copy(), delta.n_edges
        batch = UpdateBatch()
        for u, v in fresh + [live]:
            batch.edge_insert(u, v)
        with pytest.raises(ValueError, match="already present"):
            engine.apply(batch)
        assert not any(delta.has_edge(u, v) for u, v in fresh)
        assert np.array_equal(delta.degrees, degrees)
        assert delta.n_edges == n_edges

    def test_merge_requires_adjacency(self):
        graph = small_cluster_graph(1, n=8, density=0.3)
        engine = DynamicColoring(graph, seed=0)
        non_adjacent = next(
            (u, v)
            for u in range(engine.n_vertices)
            for v in range(u + 1, engine.n_vertices)
            if not engine.delta.has_edge(u, v)
        )
        with pytest.raises(ValueError, match="non-adjacent"):
            engine.apply(UpdateBatch().cluster_merge(*non_adjacent))

    def test_merge_unions_neighborhoods_and_frees_loser(self):
        graph = small_cluster_graph(2, n=10, density=0.5)
        engine = DynamicColoring(graph, seed=0)
        eu, ev = engine.delta.edge_arrays()
        u, v = int(eu[0]), int(ev[0])
        expected = (
            set(engine.delta.neighbors(u).tolist())
            | set(engine.delta.neighbors(v).tolist())
        ) - {u, v}
        machines_before = engine.n_machines
        report = engine.apply(UpdateBatch().cluster_merge(u, v))
        assert report.proper
        assert set(engine.delta.neighbors(u).tolist()) == expected
        assert not engine.delta.is_alive(v)
        assert engine.n_machines == machines_before  # machines moved, not lost

    def test_split_on_singleton_cluster_rejected(self):
        graph = blowup(nx.path_graph(4), np.random.default_rng(0), cluster_size=1)
        engine = DynamicColoring(graph, seed=0)
        with pytest.raises(ValueError, match="at least 2"):
            engine.apply(UpdateBatch().cluster_split(1, [0]))

    def test_split_moves_neighbors_and_links_halves(self):
        graph = blowup(nx.star_graph(5), np.random.default_rng(0), cluster_size=3)
        engine = DynamicColoring(graph, seed=0)
        hub = 0
        moved = engine.delta.neighbors(hub).tolist()[:2]
        report = engine.apply(
            UpdateBatch().cluster_split(hub, moved, size=1)
        )
        w = engine.n_vertices - 1
        assert report.proper
        assert engine.delta.has_edge(hub, w)
        for x in moved:
            assert engine.delta.has_edge(w, x)
            assert not engine.delta.has_edge(hub, x)

    def test_palette_retightens_when_delta_shrinks(self):
        graph = blowup(nx.star_graph(6), np.random.default_rng(0), cluster_size=1)
        engine = DynamicColoring(graph, seed=0)
        assert engine.num_colors == 7
        batch = UpdateBatch()
        for leaf in (2, 3, 4, 5, 6):
            batch.edge_delete(0, leaf)
        report = engine.apply(batch)
        assert engine.num_colors == 2  # Delta fell to 1
        assert report.proper
        alive_colors = engine.colors[engine.delta.alive_mask]
        assert (alive_colors < 2).all()

    def test_vertex_add_is_colored_within_palette(self):
        graph = small_cluster_graph(4, n=8, density=0.5)
        engine = DynamicColoring(graph, seed=0)
        report = engine.apply(UpdateBatch().vertex_add(edges=[0, 1, 2], size=2))
        w = engine.n_vertices - 1
        assert report.proper
        assert 0 <= engine.colors[w] < engine.num_colors
        assert engine.delta.neighbors(w).tolist() == [0, 1, 2]

    def test_arrival_wired_to_a_later_arrival_rejected(self):
        graph = small_cluster_graph(4, n=8, density=0.5)
        engine = DynamicColoring(graph, seed=0)
        n = engine.n_vertices
        batch = UpdateBatch().vertex_add(edges=[0]).vertex_add(edges=[n + 2])
        with pytest.raises(ValueError, match=f"vertex {n + 2} is not alive"):
            engine.apply(batch)
        # an earlier arrival of the same run is a valid neighbor
        engine = DynamicColoring(graph, seed=0)
        report = engine.apply(UpdateBatch().vertex_add([0]).vertex_add([n]))
        assert report.proper and engine.delta.has_edge(n, n + 1)
        assert engine.colors.size == engine.cluster_sizes.size == n + 2

    def test_escalation_path_recolors_everything(self, monkeypatch):
        from repro.dynamic import engine as engine_module

        monkeypatch.setattr(engine_module, "_ESCALATE_FRACTION", 0.0)
        graph = small_cluster_graph(5, n=10, density=0.5)
        engine = DynamicColoring(graph, seed=0)
        # force at least one dirty vertex via a conflicting insertion
        u = 0
        v = next(
            x for x in range(engine.n_vertices)
            if x != u and engine.colors[x] == engine.colors[u]
            and not engine.delta.has_edge(u, x)
        )
        report = engine.apply(UpdateBatch().edge_insert(u, v))
        assert report.escalated
        assert report.recolor_fraction == 1.0
        assert report.proper


# ---------------------------------------------------------------------------
# Repair vs. scratch on seeded streams
# ---------------------------------------------------------------------------


class TestRepairVsScratch:
    @pytest.mark.parametrize("name", ["sliding_window", "hotspot_churn",
                                      "cluster_churn"])
    def test_parity_on_seeded_streams(self, name):
        from repro.workloads import STREAMS

        results = {}
        for mode in ("repair", "scratch"):
            w = STREAMS[name](np.random.default_rng(42))
            engine, result, metrics = run_stream(w, seed=7, mode=mode)
            assert result.all_proper, f"{name}/{mode} went improper"
            results[mode] = (engine, metrics)
        repair_engine, repair_metrics = results["repair"]
        scratch_engine, scratch_metrics = results["scratch"]
        # identical structural state => identical palette bound
        assert repair_engine.num_colors == scratch_engine.num_colors
        assert repair_engine.n_alive == scratch_engine.n_alive
        # color-count parity: both land inside the same Delta+1 palette
        assert repair_metrics["colors_used"] <= repair_engine.num_colors
        assert scratch_metrics["colors_used"] <= scratch_engine.num_colors
        # and the repair path earns its keep: far fewer vertices recolored
        assert repair_metrics["recolor_fraction_mean"] < 0.25
        assert scratch_metrics["recolor_fraction_mean"] == 1.0
        assert (
            repair_metrics["repaired_vertices"]
            < scratch_metrics["repaired_vertices"]
        )

    @pytest.mark.parametrize("mode", ["repair", "scratch"])
    @pytest.mark.parametrize("name", ["sliding_window", "hotspot_churn",
                                      "cluster_churn"])
    def test_dead_ids_hold_no_machines_and_no_height(self, name, mode):
        """``n_machines`` and ``dilation`` read the whole arrays, and
        ``n_alive`` is a counter: after every batch each dead id holds size
        0 and height 0, and the counter equals the mask's count."""
        from repro.workloads import STREAMS

        w = STREAMS[name](np.random.default_rng(3))
        engine = DynamicColoring(w.graph, seed=1, mode=mode)
        for batch in w.batches:
            engine.apply(batch)
            alive = engine.delta.alive_mask
            assert engine.n_alive == int(alive.sum())
            assert not engine.cluster_sizes[~alive].any()
            assert not engine.tree_heights[~alive].any()
            assert engine.n_machines == int(engine.cluster_sizes[alive].sum())
            assert engine.dilation == max(1, int(engine.tree_heights[alive].max()))
        # departures and merges leave dead ids behind
        assert (name == "sliding_window") == engine.delta.alive_mask.all()

    def test_scratch_snapshot_runs_full_pipeline(self):
        w_graph = small_cluster_graph(6, n=12, density=0.4)
        engine = DynamicColoring(w_graph, seed=0)
        snapshot = engine.snapshot_graph()
        assert isinstance(snapshot, FrozenConflictGraph)
        assert snapshot.n_machines == engine.n_machines
        assert is_proper(snapshot, engine.colors)


# ---------------------------------------------------------------------------
# The per-batch check: the incremental verdict equals the full scan's
# ---------------------------------------------------------------------------


def _full_verdict(engine) -> bool:
    """The full check, computed outside the engine: every live vertex in
    the palette and no monochromatic edge of ``edge_arrays``."""
    live = engine.colors[engine.delta.alive_mask]
    if live.size and (live.min() < 0 or live.max() >= engine.num_colors):
        return False
    edge_u, edge_v = engine.delta.edge_arrays()
    return is_proper_edges(edge_u, edge_v, engine.colors)


def _spy_checks(monkeypatch, engine) -> list[str]:
    """Record each check the engine runs, ``"full"`` or ``"incremental"``."""
    kinds: list[str] = []
    check = engine._check_proper

    def spy(since=None):
        kinds.append("full" if since is None else "incremental")
        return check(since)

    monkeypatch.setattr(engine, "_check_proper", spy)
    return kinds


def _restore(engine) -> None:
    """Recolor the larger endpoint of each monochromatic edge with its
    smallest free palette color, outside the engine."""
    colors = engine.colors
    while True:
        edge_u, edge_v = engine.delta.edge_arrays()
        bad = np.flatnonzero(colors[edge_u] == colors[edge_v])
        if not bad.size:
            return
        v = int(max(edge_u[bad[0]], edge_v[bad[0]]))
        taken = set(colors[engine.delta.neighbors(v)].tolist())
        colors[v] = next(c for c in range(engine.num_colors) if c not in taken)


def _touched(batch: UpdateBatch) -> set[int]:
    """Every vertex id a batch's updates name."""
    return {*batch.u.tolist(), *batch.v.tolist(), *batch.edges.tolist()}


def _hidden_insert(engine, batch, rng) -> tuple[int, int] | None:
    """Insert, behind the engine's back, an edge between two live
    same-colored non-adjacent vertices that ``batch`` does not name."""
    live = np.flatnonzero(engine.delta.alive_mask)
    free = [int(v) for v in live if int(v) not in _touched(batch)]
    for _ in range(200):
        u, v = rng.choice(free, size=2, replace=False).tolist()
        if engine.colors[u] == engine.colors[v] and not engine.delta.has_edge(u, v):
            engine.delta.insert_edge(u, v)
            return u, v
    return None


def _recolor_to_neighbor(engine, batch, rng) -> None:
    """Overwrite a live vertex's color with a neighbor's."""
    live = np.flatnonzero(engine.delta.degrees > 0)
    v = int(live[rng.integers(0, live.size)])
    nbrs = engine.delta.neighbors(v)
    engine.colors[v] = engine.colors[int(nbrs[rng.integers(0, nbrs.size)])]


class TestIncrementalCheck:
    """The per-batch check reads only new edges and recolored vertices,
    yet must report exactly what a full ``edge_arrays`` scan reports.

    The default streams are below the size where the engine starts to check
    incrementally, so these tests lower that bound to 0.
    """

    STREAM_NAMES = ["sliding_window", "hotspot_churn", "cluster_churn"]

    @pytest.fixture(autouse=True)
    def incremental_at_every_size(self, monkeypatch):
        from repro.dynamic import engine as engine_module

        monkeypatch.setattr(engine_module, "_INCREMENTAL_MIN_EDGES", 0)

    def test_small_graphs_scan_in_full(self, monkeypatch):
        from repro.dynamic import engine as engine_module
        from repro.workloads import STREAMS

        monkeypatch.undo()
        bound = engine_module._INCREMENTAL_MIN_EDGES
        for n_vertices in (300, 2500):
            w = STREAMS["sliding_window"](
                np.random.default_rng(0), n_vertices=n_vertices, batches=4
            )
            engine = DynamicColoring(w.graph, seed=7)
            kinds = _spy_checks(monkeypatch, engine)
            for batch in w.batches:
                report = engine.apply(batch)
                assert report.proper and _full_verdict(engine)
                small = engine.delta.n_edges < bound  # as the check saw it
                expected = "full" if small or report.compacted else "incremental"
                assert kinds[-1] == expected
            assert (n_vertices == 300) == (set(kinds) == {"full"})

    def test_every_stream_is_covered(self):
        from repro.workloads import STREAMS

        assert sorted(STREAMS) == sorted(self.STREAM_NAMES)

    @pytest.mark.parametrize("mode", ["repair", "scratch"])
    @pytest.mark.parametrize("name", STREAM_NAMES)
    @pytest.mark.parametrize(
        "corruption", [None, "recolor", "hidden_insert", "no_clash_dirtying"]
    )
    def test_verdict_matches_full_scan(self, monkeypatch, name, mode, corruption):
        from repro.workloads import STREAMS

        misses = 0
        for seed in (0, 1, 2):
            w = STREAMS[name](np.random.default_rng(seed))
            engine = DynamicColoring(w.graph, seed=seed, mode=mode)
            kinds = _spy_checks(monkeypatch, engine)
            clashes = engine._insert_clashes
            rng = np.random.default_rng(100 + seed)
            for i, batch in enumerate(w.batches):
                corrupt = corruption is not None and i % 2 == 1
                hidden = None
                if corrupt and corruption == "recolor":
                    _recolor_to_neighbor(engine, batch, rng)
                elif corrupt and corruption == "hidden_insert":
                    hidden = _hidden_insert(engine, batch, rng)
                elif corrupt:  # a monochromatic insert survives repair
                    monkeypatch.setattr(
                        engine, "_insert_clashes", lambda us, vs: []
                    )
                report = engine.apply(batch)
                assert report.proper == _full_verdict(engine), (seed, i)
                assert report.events == batch.counts()
                misses += not report.proper
                # undo the corruption so later batches check incrementally
                monkeypatch.setattr(engine, "_insert_clashes", clashes)
                if hidden is not None:
                    engine.delta.delete_edge(*hidden)
                _restore(engine)
            # the full scan runs exactly on scratch, compacting and
            # escalating batches, and right after a miss
            after_miss = [False] + [not r.proper for r in engine.reports[:-1]]
            assert kinds == [
                "full"
                if mode == "scratch" or r.compacted or r.escalated or missed
                else "incremental"
                for r, missed in zip(engine.reports, after_miss)
            ]
        if corruption is None:
            assert misses == 0
        elif mode == "repair":
            # the corruption is visible: the differential test is not vacuous
            assert misses > 0

    def _engine(self, seed=3):
        return DynamicColoring(small_cluster_graph(seed, n=14, density=0.35),
                               seed=seed)

    def _same_colored_non_edge(self, engine, exclude=()):
        n = engine.n_vertices
        return next(
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if u not in exclude and v not in exclude
            and engine.colors[u] == engine.colors[v]
            and engine.delta.is_alive(u) and engine.delta.is_alive(v)
            and not engine.delta.has_edge(u, v)
        )

    def test_pair_split_away_in_the_same_batch_is_not_reported(self, monkeypatch):
        graph = blowup(nx.path_graph(8), np.random.default_rng(0), cluster_size=3)
        engine = DynamicColoring(graph, seed=0)
        kinds = _spy_checks(monkeypatch, engine)
        u, x = self._same_colored_non_edge(engine)
        # no vertex backs off, so {u, x} is monochromatic when the split
        # moves x to the new half and removes it again
        monkeypatch.setattr(engine, "_insert_clashes", lambda us, vs: [])
        batch = UpdateBatch().edge_insert(u, x).cluster_split(u, [x], size=1)
        report = engine.apply(batch)
        assert engine.colors[u] == engine.colors[x]
        assert not engine.delta.has_edge(u, x)
        assert report.proper and _full_verdict(engine)
        assert kinds == ["incremental"]

    def test_pair_merged_away_in_the_same_batch_is_not_reported(self, monkeypatch):
        engine = self._engine()
        kinds = _spy_checks(monkeypatch, engine)
        monkeypatch.setattr(engine, "_insert_clashes", lambda us, vs: [])
        isolated = np.flatnonzero(engine.delta.degrees == 0).tolist()
        u, x = self._same_colored_non_edge(engine, exclude=isolated)
        y = int(engine.delta.neighbors(x)[0])  # not u: {u, x} is no edge yet
        report = engine.apply(UpdateBatch().edge_insert(u, x).cluster_merge(y, x))
        assert not engine.delta.is_alive(x)
        assert report.proper == _full_verdict(engine)
        assert kinds == ["incremental"]

    def test_departed_hidden_insert_is_not_reported(self, monkeypatch):
        engine = self._engine()
        kinds = _spy_checks(monkeypatch, engine)
        u, v = self._same_colored_non_edge(engine)
        engine.delta.insert_edge(u, v)
        report = engine.apply(UpdateBatch().vertex_remove(u))
        assert report.proper and _full_verdict(engine)
        assert kinds == ["incremental"]

    def test_hidden_insert_is_reported_then_rechecked_in_full(self, monkeypatch):
        engine = self._engine()
        kinds = _spy_checks(monkeypatch, engine)
        u, v = self._same_colored_non_edge(engine)
        engine.delta.insert_edge(u, v)
        assert not engine.apply(UpdateBatch()).proper
        engine.delta.delete_edge(u, v)
        assert engine.apply(UpdateBatch()).proper
        assert engine.apply(UpdateBatch()).proper
        # a miss leaves no verified coloring: the next batch scans in full
        assert kinds == ["incremental", "full", "incremental"]

    def test_escalating_batch_checks_in_full(self, monkeypatch):
        from repro.dynamic import engine as engine_module

        monkeypatch.setattr(engine_module, "_ESCALATE_FRACTION", 0.0)
        engine = self._engine()
        kinds = _spy_checks(monkeypatch, engine)
        u, v = self._same_colored_non_edge(engine)
        report = engine.apply(UpdateBatch().edge_insert(u, v))
        assert report.escalated and report.proper
        assert kinds == ["full"]

    def test_compacting_batches_check_in_full(self, monkeypatch):
        from repro.workloads import STREAMS

        w = STREAMS["sliding_window"](
            np.random.default_rng(0), batches=16, churn_fraction=0.1
        )
        engine = DynamicColoring(w.graph, seed=7)
        kinds = _spy_checks(monkeypatch, engine)
        reports = [engine.apply(batch) for batch in w.batches]
        assert sum(r.compacted for r in reports) >= 3
        assert kinds == [
            "full" if r.compacted else "incremental" for r in reports
        ]

    def test_run_raises_on_a_violation_the_last_report_missed(self, monkeypatch):
        engine = self._engine()
        check = engine._check_proper
        # an incremental check that sees nothing
        monkeypatch.setattr(
            engine, "_check_proper",
            lambda since=None: None if since is not None else check(),
        )
        u, v = self._same_colored_non_edge(engine)

        def batches():
            yield UpdateBatch()
            engine.delta.insert_edge(u, v)
            yield UpdateBatch()

        with pytest.raises(RepairError, match="stream end"):
            engine.run(batches())
        assert engine.reports[-1].proper

    def test_run_accepts_a_reported_miss(self):
        engine = self._engine()
        u, v = self._same_colored_non_edge(engine)
        engine.delta.insert_edge(u, v)
        result = engine.run([UpdateBatch()])
        assert not result.all_proper

    def test_insert_record_drained_each_batch(self, monkeypatch):
        from repro.workloads import STREAMS

        w = STREAMS["cluster_churn"](np.random.default_rng(1))
        engine = DynamicColoring(w.graph, seed=7)
        delta = engine.delta
        accepted, drained = [0], []
        insert, drain = delta.insert_edge, delta.drain_inserts

        def counting_insert(u, v):
            insert(u, v)
            accepted[0] += np.broadcast(np.asarray(u), np.asarray(v)).size

        def recording_drain():
            pair = drain()
            drained.append(pair[0].size)
            return pair

        monkeypatch.setattr(delta, "insert_edge", counting_insert)
        monkeypatch.setattr(delta, "drain_inserts", recording_drain)
        for batch in w.batches:
            accepted[0] = 0
            engine.apply(batch)
            assert drained[-1] == accepted[0] > 0
            assert drain()[0].size == 0  # nothing left behind
        assert len(drained) == len(w.batches)


# ---------------------------------------------------------------------------
# Ledger absorb (the escalation accounting primitive)
# ---------------------------------------------------------------------------


class TestLedgerAbsorb:
    def test_absorb_preserves_per_op_invariants(self):
        ledger = BandwidthLedger(bandwidth_bits=16)
        ledger.charge("x", 8, rounds_h=2, pipelined=True)
        other = BandwidthLedger(bandwidth_bits=16)
        other.charge("inner", 12, rounds_h=3, pipelined=True)
        other.charge("inner2", 40, rounds_h=1, pipelined=True)
        ledger.absorb(other.summary(), op="scratch")
        assert sum(ledger.per_op_rounds.values()) == ledger.rounds_h
        assert sum(ledger.per_op_bits.values()) == ledger.total_message_bits
        assert ledger.rounds_h == 2 + other.rounds_h
        assert ledger.total_message_bits == 16 + other.total_message_bits


# ---------------------------------------------------------------------------
# Harness metrics
# ---------------------------------------------------------------------------


class TestHarness:
    def test_run_stream_metrics_shape(self):
        from repro.workloads import sliding_window_stream

        w = sliding_window_stream(
            np.random.default_rng(0), n_vertices=60, batches=3
        )
        _engine, result, metrics = run_stream(w, seed=0, mode="repair")
        assert metrics["proper"] is True
        assert metrics["batches"] == 3
        assert metrics["regime_effective"] == "stream"
        assert metrics["stream_updates"] == w.total_updates
        assert 0.0 <= metrics["recolor_fraction_mean"] <= 1.0
        assert metrics["rounds_h"] == result.rounds_h
        for key in ("repaired_vertices", "escalations", "delta_rebuilds",
                    "stream_wall_time_s", "vertices_final", "delta_final"):
            assert key in metrics

    def test_run_stream_rejects_static_workloads(self):
        from repro.workloads import congest_instance

        w = congest_instance(np.random.default_rng(0), n=30)
        with pytest.raises(ValueError, match="no update stream"):
            run_stream(w, seed=0)

    def test_run_stream_rejects_unknown_modes(self):
        from repro.workloads import sliding_window_stream

        w = sliding_window_stream(np.random.default_rng(0), n_vertices=40,
                                  batches=1)
        with pytest.raises(ValueError, match="unknown mode"):
            run_stream(w, seed=0, mode="scratch ")

    def test_percentiles_share_one_source_of_truth(self):
        from repro.workloads import sliding_window_stream

        w = sliding_window_stream(
            np.random.default_rng(3), n_vertices=150, batches=6
        )
        _, result, metrics = run_stream(w, seed=0)
        walls_ms = [t * 1000.0 for t in metrics["batch_wall_times_s"]]
        assert len(walls_ms) == metrics["batches"]
        pcts = exact_percentiles(walls_ms)
        assert metrics["repair_ms_p99"] == pytest.approx(
            pcts["p99"], abs=1e-3
        )
        assert metrics["repair_ms_p50"] == pytest.approx(
            pcts["p50"], abs=1e-3
        )


class TestExactPercentiles:
    @given(
        st.lists(
            st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=400,
        )
    )
    @settings(max_examples=100)
    def test_matches_numpy(self, values):
        pcts = exact_percentiles(values)
        for q in (50, 95, 99):
            assert pcts[f"p{q}"] == float(np.percentile(values, q))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            exact_percentiles([])

    def test_single_sample(self):
        assert exact_percentiles([7.0]) == {"p50": 7.0, "p95": 7.0, "p99": 7.0}
