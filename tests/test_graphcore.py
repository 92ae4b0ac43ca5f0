"""Property tests: the batched CSR kernels must agree with the legacy
per-vertex reference implementations on randomized instances.

The contract under test is exact agreement -- the kernels replaced Python
loops on hot paths with the promise that nothing observable changes (RNG
draw order, ledger charges, and colorings are all preserved because the
kernels are pure, deterministic functions).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.graphcore.kernels as kernels
from repro.cluster import ClusterGraph
from repro.coloring.types import UNCOLORED, PartialColoring
from repro.graphcore import (
    CSRAdjacency,
    adjacency_mask,
    batch_conflict_mask,
    batch_label_mismatch_counts,
    batch_neighbor_colors,
    batch_used_color_masks,
    bfs_depth,
    draw_free_colors,
    gather_neighborhoods,
    in_sorted,
    is_proper_edges,
    label_components,
    neighbor_counts_within,
    row_blocks,
    violations_edges,
)
from repro.network import CommGraph
from repro.verify.checker import is_proper, violations
from tests.conftest import h_edges


def random_graph(seed: int, n: int, density: float) -> ClusterGraph:
    """A random identity-cluster graph (isolated vertices allowed)."""
    rng = np.random.default_rng(seed)
    m = int(density * n * (n - 1) / 2)
    if m:
        pairs = rng.integers(0, n, size=(m, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    else:
        pairs = np.empty((0, 2), dtype=np.int64)
    return ClusterGraph.identity(CommGraph(n, pairs))


def random_coloring(
    rng: np.random.Generator, n: int, num_colors: int
) -> PartialColoring:
    colors = rng.integers(-1, num_colors, size=n)
    return PartialColoring(num_colors=num_colors, colors=colors.astype(np.int64))


graph_params = {
    "seed": st.integers(0, 2**31 - 1),
    "n": st.integers(1, 40),
    "density": st.floats(0.0, 1.0),
}


class TestCSRStructure:
    @given(**graph_params)
    @settings(max_examples=60)
    def test_csr_matches_adj_lists(self, seed, n, density):
        g = random_graph(seed, n, density)
        assert g.csr.n_vertices == g.n_vertices
        for v in range(g.n_vertices):
            assert g.csr.neighbors(v).tolist() == sorted(g.adj[v])
            assert g.neighbor_array(v).tolist() == g.adj[v]

    @given(**graph_params)
    @settings(max_examples=60)
    def test_edge_arrays_match_adj_lists(self, seed, n, density):
        g = random_graph(seed, n, density)
        eu, ev = g.h_edge_arrays()
        assert (eu < ev).all()
        assert set(zip(eu.tolist(), ev.tolist())) == {
            (u, v) for u in range(n) for v in g.adj[u] if u < v
        }
        assert eu.size == g.n_h_edges

    @given(**graph_params, dedupe=st.booleans())
    @settings(max_examples=60)
    def test_from_edge_arrays_matches_lexsort_reference(self, seed, n, density, dedupe):
        rng = np.random.default_rng(seed)
        pairs = rng.integers(0, n, size=(int(density * 3 * n), 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        if dedupe:
            codes = np.unique(np.minimum(*pairs.T) * n + np.maximum(*pairs.T))
            eu, ev = codes // n, codes % n
        else:
            eu, ev = pairs[:, 0], pairs[:, 1]
        src, dst = np.concatenate([eu, ev]), np.concatenate([ev, eu])
        csr = CSRAdjacency.from_edge_arrays(pairs[:, 0], pairs[:, 1], n, dedupe=dedupe)
        assert csr.indices.tolist() == dst[np.lexsort((dst, src))].tolist()
        assert csr.indptr.tolist() == [0] + np.cumsum(np.bincount(src, minlength=n)).tolist()

    @given(**graph_params)
    @settings(max_examples=60)
    def test_from_edge_codes_matches_from_edge_arrays(self, seed, n, density):
        rng = np.random.default_rng(seed)
        pairs = rng.integers(0, n, size=(int(density * 3 * n), 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        lo, hi = np.unique(np.sort(pairs, axis=1), axis=0).T
        flip = rng.random(lo.size) < 0.5  # each edge once, either orientation
        codes = np.where(flip, hi * n + lo, lo * n + hi)
        given = codes.copy()
        csr = CSRAdjacency.from_edge_codes(given, n)
        ref = CSRAdjacency.from_edge_arrays(codes // n, codes % n, n)
        assert csr.indptr.tolist() == ref.indptr.tolist()
        assert csr.indices.tolist() == ref.indices.tolist()
        assert given.tolist() == codes.tolist()  # the input is not consumed

    @given(**graph_params, chunk=st.sampled_from([1, 3, 1 << 16]))
    @settings(max_examples=60)
    def test_edge_arrays_equal_the_repeat_formula(self, seed, n, density, chunk):
        """The row-blocked derivation gives the arrays the one-shot
        formula gave: values, dtype and order."""
        csr = random_graph(seed, n, density).csr
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "_GATHER_CHUNK", chunk)
            eu, ev = CSRAdjacency(csr.indptr, csr.indices).edge_arrays()
        sources = np.repeat(np.arange(csr.n_vertices, dtype=np.int64), csr.degrees)
        keep = sources < csr.indices
        for got, want in ((eu, sources[keep]), (ev, csr.indices[keep])):
            assert got.dtype == np.int64
            assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("n", [0, 5])
    def test_edge_arrays_of_an_edgeless_graph(self, n):
        empty = np.empty(0, dtype=np.int64)
        eu, ev = CSRAdjacency.from_edge_arrays(empty, empty, n).edge_arrays()
        assert eu.dtype == ev.dtype == np.int64
        assert eu.size == ev.size == 0

    @given(st.lists(st.integers(-(2**40), 2**40), max_size=60))
    def test_sorted_unique_matches_np_unique(self, values):
        from repro.graphcore.csr import sorted_unique

        codes = np.asarray(values, dtype=np.int64)
        assert sorted_unique(codes).tolist() == np.unique(codes).tolist()

    @given(**graph_params)
    @settings(max_examples=30)
    def test_gather_neighborhoods_segments(self, seed, n, density):
        g = random_graph(seed, n, density)
        rng = np.random.default_rng(seed + 1)
        verts = rng.permutation(n)[: max(1, n // 2)]
        seg_ids, flat = gather_neighborhoods(g.csr, verts)
        for i, v in enumerate(verts):
            assert flat[seg_ids == i].tolist() == g.adj[int(v)]


class TestKernelAgreement:
    @given(**graph_params)
    @settings(max_examples=60)
    def test_batch_neighbor_colors(self, seed, n, density):
        g = random_graph(seed, n, density)
        rng = np.random.default_rng(seed + 2)
        coloring = random_coloring(rng, n, num_colors=max(2, g.max_degree + 1))
        verts = np.arange(n)
        seg_ids, flat_colors = batch_neighbor_colors(g.csr, coloring.colors, verts)
        for v in range(n):
            expected = coloring.neighbor_colors(g, v).tolist()
            assert flat_colors[seg_ids == v].tolist() == expected

    @given(symmetric=st.booleans(), **graph_params)
    @settings(max_examples=80)
    def test_batch_conflict_mask_vs_per_vertex_rule(
        self, symmetric, seed, n, density
    ):
        """Algorithm 17 step 4, per-vertex reference vs batched kernel."""
        g = random_graph(seed, n, density)
        rng = np.random.default_rng(seed + 3)
        q = max(2, g.max_degree + 1)
        coloring = random_coloring(rng, n, q)
        proposers = [v for v in range(n) if rng.random() < 0.6]
        proposals = {v: int(rng.integers(0, q)) for v in proposers}
        if not proposals:
            return
        proposal_arr = np.full(n, -2, dtype=np.int64)
        for v, c in proposals.items():
            proposal_arr[v] = c

        def blocked_reference(v: int, c: int) -> bool:
            nbrs = np.asarray(g.adj[v], dtype=np.int64)
            if not nbrs.size:
                return False
            if (coloring.colors[nbrs] == c).any():
                return True
            same = proposal_arr[nbrs] == c
            if symmetric:
                return bool(same.any())
            return bool((same & (nbrs < v)).any())

        verts = np.fromiter(proposals.keys(), dtype=np.int64)
        cands = np.fromiter(proposals.values(), dtype=np.int64)
        got = batch_conflict_mask(
            g.csr,
            coloring.colors,
            verts,
            cands,
            proposal_map=proposal_arr,
            symmetric=symmetric,
        )
        expected = [blocked_reference(int(v), int(c)) for v, c in proposals.items()]
        assert got.tolist() == expected

    @given(**graph_params)
    @settings(max_examples=60)
    def test_batch_used_color_masks(self, seed, n, density):
        g = random_graph(seed, n, density)
        rng = np.random.default_rng(seed + 4)
        q = max(2, g.max_degree + 1)
        coloring = random_coloring(rng, n, q)
        verts = np.arange(n)
        masks = batch_used_color_masks(g.csr, coloring.colors, verts, q)
        for v in range(n):
            used = {
                int(c)
                for c in coloring.neighbor_colors(g, v)
                if c != UNCOLORED
            }
            assert set(np.flatnonzero(masks[v]).tolist()) == used

    @given(**graph_params)
    @settings(max_examples=60)
    def test_is_proper_and_violations_vs_loop_reference(self, seed, n, density):
        g = random_graph(seed, n, density)
        rng = np.random.default_rng(seed + 6)
        q = max(2, g.max_degree + 1)
        # bias toward collisions so the proper/improper branch both fire
        colors = rng.integers(-1, min(q, 3), size=n).astype(np.int64)

        def reference(allow_partial: bool) -> bool:
            for u, v in h_edges(g):
                cu, cv = int(colors[u]), int(colors[v])
                if cu == UNCOLORED or cv == UNCOLORED:
                    if not allow_partial:
                        return False
                    continue
                if cu == cv:
                    return False
            return True

        for allow_partial in (False, True):
            assert is_proper(g, colors, allow_partial=allow_partial) == reference(
                allow_partial
            )
        expected_bad = {
            (u, v)
            for u, v in h_edges(g)
            if colors[u] != UNCOLORED and colors[u] == colors[v]
        }
        assert set(violations(g, colors)) == expected_bad
        eu, ev = g.h_edge_arrays()
        assert is_proper_edges(eu, ev, colors) == reference(False)
        assert set(violations_edges(eu, ev, colors)) == expected_bad


class TestSetKernels:
    """The per-vertex set questions, answered from the CSR, vs Python sets
    built from ``neighbors``."""

    @given(**graph_params, pick=st.integers(0, 2**31 - 1))
    @settings(max_examples=60)
    def test_adjacency_mask_and_counts_match_sets(self, seed, n, density, pick):
        g = random_graph(seed, n, density)
        rng = np.random.default_rng(pick)
        members = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
        members = members.tolist()  # unsorted, as cliques and groups come
        nbrs = [set(g.neighbors(v)) for v in range(n)]
        for v in range(n):
            assert adjacency_mask(g.csr, v, members).tolist() == [
                u in nbrs[v] for u in members
            ]
        counts = neighbor_counts_within(g.csr, range(n), members)
        assert counts.tolist() == [len(nbrs[v] & set(members)) for v in range(n)]

    @given(st.lists(st.integers(-50, 50)), st.lists(st.integers(-60, 60)))
    def test_in_sorted(self, pool, values):
        hits = in_sorted(np.sort(np.asarray(pool, dtype=np.int64)),
                         np.asarray(values, dtype=np.int64))
        assert hits.tolist() == [x in set(pool) for x in values]


class TestLabelKernels:
    """The decomposition/cabal vectorization kernels vs naive references."""

    @given(**graph_params)
    @settings(max_examples=60)
    def test_label_mismatch_counts_match_scan(self, seed, n, density):
        g = random_graph(seed, n, density)
        rng = np.random.default_rng(seed + 3)
        labels = rng.integers(-1, 4, size=n)
        verts = rng.permutation(n)[: max(1, n // 2)]
        counts = batch_label_mismatch_counts(g.csr, labels, verts)
        ignored = batch_label_mismatch_counts(
            g.csr, labels, verts, ignore_label=-1
        )
        overridden = batch_label_mismatch_counts(
            g.csr, labels, verts, ignore_label=-1, own_labels=2
        )
        for i, v in enumerate(verts):
            nbrs = g.adj[int(v)]
            assert counts[i] == sum(
                1 for u in nbrs if labels[u] != labels[v]
            )
            assert ignored[i] == sum(
                1 for u in nbrs if labels[u] != labels[v] and labels[u] != -1
            )
            assert overridden[i] == sum(
                1 for u in nbrs if labels[u] != 2 and labels[u] != -1
            )

    @given(**graph_params)
    @settings(max_examples=60)
    def test_label_components_match_bfs(self, seed, n, density):
        """Min-id propagation equals an explicit BFS over the active
        subgraph -- the ComputeACD step 3 contract."""
        g = random_graph(seed, n, density)
        rng = np.random.default_rng(seed + 4)
        active = rng.random(n) < 0.6
        eu, ev = g.h_edge_arrays()
        labels = label_components(eu, ev, n, active)
        # reference: per-vertex BFS restricted to active vertices
        adj = {v: [] for v in range(n) if active[v]}
        for u, v in zip(eu.tolist(), ev.tolist()):
            if active[u] and active[v]:
                adj[u].append(v)
                adj[v].append(u)
        expected = np.full(n, -1, dtype=np.int64)
        for start in sorted(adj):
            if expected[start] >= 0:
                continue
            comp, frontier = [start], [start]
            expected[start] = start
            while frontier:
                nxt = []
                for x in frontier:
                    for y in adj[x]:
                        if expected[y] < 0:
                            expected[y] = start
                            nxt.append(y)
                frontier = nxt
        assert np.array_equal(labels, expected)


class TestBlockDraws:
    """numpy's bounded-integer draws: an array call consumes the generator
    exactly as the scalar loop it replaces (the contract the TryColor
    samplers and :func:`draw_free_colors` rest on)."""

    def test_array_of_bounds_equals_scalar_loop(self):
        for seed in range(25):
            highs = np.random.default_rng(seed + 1000).integers(1, 40, size=60)
            highs[::7] = 1  # an upper bound of 1 draws nothing either way
            block, loop = np.random.default_rng(seed), np.random.default_rng(seed)
            got = block.integers(0, highs)
            want = [int(loop.integers(0, int(h))) for h in highs]
            assert got.tolist() == want
            assert block.bit_generator.state == loop.bit_generator.state

    def test_sized_call_equals_scalar_calls(self):
        for seed in range(25):
            lo, hi = seed % 5, seed % 5 + 1 + seed
            k = 3 + seed
            block, loop = np.random.default_rng(seed), np.random.default_rng(seed)
            got = block.integers(lo, hi, size=k)
            want = [int(loop.integers(lo, hi)) for _ in range(k)]
            assert got.tolist() == want
            assert block.bit_generator.state == loop.bit_generator.state


class TestDrawFreeColors:
    @staticmethod
    def _loop(used, rng):
        """The per-row reference: ``flatnonzero`` then one scalar draw."""
        can, colors = [], []
        for row in used:
            free = np.flatnonzero(~row)
            can.append(bool(free.size))
            if free.size:
                colors.append(int(free[int(rng.integers(0, free.size))]))
        return can, colors

    def test_matches_the_per_row_loop(self):
        for seed in range(30):
            shape_rng = np.random.default_rng(seed + 500)
            k, q = int(shape_rng.integers(0, 40)), int(shape_rng.integers(1, 30))
            used = shape_rng.random((k, q)) < shape_rng.random()
            used[::5] = True  # rows with no free color draw nothing
            if k:
                used[0] = False
            block, loop = np.random.default_rng(seed), np.random.default_rng(seed)
            can, colors = draw_free_colors(used, block)
            want_can, want_colors = self._loop(used, loop)
            assert can.tolist() == want_can
            assert colors.dtype == np.int64
            assert colors.tolist() == want_colors
            assert block.bit_generator.state == loop.bit_generator.state

    def test_no_free_color_draws_nothing(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        can, colors = draw_free_colors(np.ones((4, 3), dtype=bool), rng)
        assert not can.any() and colors.size == 0
        assert rng.bit_generator.state == state


def blocked_fixture() -> tuple[ClusterGraph, np.ndarray]:
    """A graph with isolated vertices (24..29) and rows of up to about 20
    entries, and a query that repeats vertices and includes isolated ones."""
    rng = np.random.default_rng(7)
    pairs = rng.integers(0, 24, size=(160, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    g = ClusterGraph.identity(CommGraph(30, pairs))
    query = rng.choice(30, size=45, replace=True)
    return g, query


def kernel_answers(g: ClusterGraph, query: np.ndarray) -> dict:
    """Every blocked kernel's answer on ``query``, from fixed inputs."""
    rng = np.random.default_rng(11)
    n, q = g.n_vertices, 6
    csr = g.csr
    colors = rng.integers(-1, q, size=n)
    cands = rng.integers(0, q, size=query.size)
    proposals = np.where(rng.random(n) < 0.5, rng.integers(0, q, size=n), -1)
    labels = rng.integers(-1, 4, size=n)
    members = rng.choice(n, size=12, replace=False)
    return {
        "conflict": batch_conflict_mask(csr, colors, query, cands),
        "conflict_smaller_id": batch_conflict_mask(
            csr, colors, query, cands, proposal_map=proposals
        ),
        "conflict_symmetric": batch_conflict_mask(
            csr, colors, query, cands, proposal_map=proposals, symmetric=True
        ),
        "used": batch_used_color_masks(csr, colors, query, q),
        "mismatch": batch_label_mismatch_counts(csr, labels, query),
        "mismatch_scalar": batch_label_mismatch_counts(
            csr, labels, query, ignore_label=-1, own_labels=2
        ),
        "mismatch_array": batch_label_mismatch_counts(
            csr, labels, query, own_labels=rng.integers(0, 4, size=query.size)
        ),
        "within": neighbor_counts_within(csr, query, members),
    }


class TestBlockedGathers:
    """Every blocked kernel equals its single-block run: a budget of one
    entry (every block one row, every non-empty row over budget), one
    below most rows, and one spanning several rows."""

    @pytest.mark.parametrize("chunk", [1, 3, 40])
    def test_kernels_equal_a_single_block(self, chunk, monkeypatch):
        g, query = blocked_fixture()
        assert g.csr.n_directed_edges < kernels._GATHER_CHUNK  # one block
        assert (g.csr.degrees[query] == 0).any()
        assert np.median(g.csr.degrees[:24]) > 3  # rows longer than 1 and 3
        whole = kernel_answers(g, query)
        whole_empty = kernel_answers(g, query[:0])
        monkeypatch.setattr(kernels, "_GATHER_CHUNK", chunk)
        assert len(list(row_blocks(g.csr, query))) > 1
        for name, got in kernel_answers(g, query).items():
            assert got.dtype == whole[name].dtype, name
            assert np.array_equal(got, whole[name]), name
        for name, got in kernel_answers(g, query[:0]).items():
            assert got.shape == whole_empty[name].shape, name
            assert got.dtype == whole_empty[name].dtype, name

    @pytest.mark.parametrize("chunk", [1, 3, 40])
    def test_row_blocks_cover_the_query_within_the_budget(self, chunk, monkeypatch):
        g, query = blocked_fixture()
        monkeypatch.setattr(kernels, "_GATHER_CHUNK", chunk)
        blocks = list(row_blocks(g.csr, query))
        degrees = g.csr.degrees[query]
        assert [b[0] for b in blocks] == [0] + [b[1] for b in blocks[:-1]]
        assert blocks[-1][1] == query.size
        for start, stop in blocks:
            assert stop > start
            assert stop - start == 1 or degrees[start:stop].sum() <= chunk
        assert list(row_blocks(g.csr, query[:0])) == []

    @pytest.mark.parametrize("chunk", [1, 3, 40])
    def test_bfs_depth_equals_a_single_block(self, chunk, monkeypatch):
        g, _ = blocked_fixture()
        labels = label_components(*g.h_edge_arrays(), g.n_vertices, np.ones(30, bool))
        sources = np.unique(labels)
        whole = bfs_depth(g.csr, labels, sources)
        assert whole > 1
        monkeypatch.setattr(kernels, "_GATHER_CHUNK", chunk)
        assert bfs_depth(g.csr, labels, sources) == whole
        assert bfs_depth(g.csr, labels, []) == 0

    @pytest.mark.parametrize("chunk", [1, 3, 40])
    def test_is_proper_edges_equals_a_single_block(self, chunk, monkeypatch):
        g, _ = blocked_fixture()
        eu, ev = g.h_edge_arrays()
        proper = np.full(g.n_vertices, UNCOLORED, dtype=np.int64)
        for v in range(g.n_vertices):  # greedy: a proper total coloring
            used = set(proper[g.neighbor_array(v)].tolist())
            proper[v] = min(set(range(g.max_degree + 1)) - used)
        partial = proper.copy()
        partial[3] = UNCOLORED
        clash = proper.copy()
        clash[ev[-1]] = clash[eu[-1]]  # one monochromatic edge, the last
        cases = [(c, p) for c in (proper, partial, clash) for p in (False, True)]
        whole = [is_proper_edges(eu, ev, c, allow_partial=p) for c, p in cases]
        assert whole == [True, True, False, True, False, False]
        monkeypatch.setattr(kernels, "_GATHER_CHUNK", chunk)
        assert [is_proper_edges(eu, ev, c, allow_partial=p) for c, p in cases] == whole

    @pytest.mark.parametrize(
        "generator, kwargs",
        [
            # non-cabals, so Algorithm 11's Phase I counts run blocked
            (
                "planted_acd",
                dict(n_cliques=2, clique_size=40, n_sparse=40, external_degree=12),
            ),
            ("low_degree", dict(n_vertices=200, target_degree=6)),
        ],
    )
    def test_colorings_equal_a_single_block(self, generator, kwargs, monkeypatch):
        """A whole coloring, every stage's gathers blocked (the low-degree
        minima and Phase I's external counts included), is the one-block
        coloring bit for bit: colors, ledger and RNG end state."""
        from repro import color_cluster_graph
        from repro.workloads import GENERATORS

        graph = GENERATORS[generator](np.random.default_rng(3), **kwargs).graph

        def run():
            rng = np.random.default_rng(9)
            result = color_cluster_graph(graph, rng=rng)
            return result, rng.bit_generator.state

        monkeypatch.setattr(kernels, "_GATHER_CHUNK", 1 << 40)
        whole, whole_state = run()
        monkeypatch.setattr(kernels, "_GATHER_CHUNK", 2)
        got, state = run()
        assert got.proper and whole.proper
        assert np.array_equal(got.colors, whole.colors)
        assert got.ledger_summary == whole.ledger_summary
        assert state == whole_state
