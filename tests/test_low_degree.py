"""Section 9: shattering and small-instance coloring (Theorem 1.1 path)."""

import numpy as np
import pytest

from repro.coloring.low_degree import (
    color_low_degree,
    shattering,
    small_instance_coloring,
    uncolored_components,
)
from repro.coloring.types import PartialColoring
from repro.verify import is_proper
from repro.workloads import low_degree_instance
from tests.conftest import is_total, make_runtime


def _setup(seed=0, **kw):
    w = low_degree_instance(np.random.default_rng(seed), **kw)
    runtime = make_runtime(w.graph, seed + 40)
    coloring = PartialColoring.empty(w.graph.n_vertices, w.graph.max_degree + 1)
    return w, runtime, coloring


class TestShattering:
    def test_colors_most_vertices(self):
        w, runtime, coloring = _setup(seed=1, n_vertices=400, target_degree=8)
        remaining = shattering(
            runtime, coloring, list(range(coloring.n_vertices))
        )
        assert len(remaining) < 0.05 * coloring.n_vertices
        assert is_proper(w.graph, coloring.colors, allow_partial=True)

    def test_components_are_small(self):
        """The [BEPS16] shattering effect: leftover components are tiny
        relative to the graph."""
        w, runtime, coloring = _setup(seed=2, n_vertices=600, target_degree=6)
        remaining = shattering(
            runtime, coloring, list(range(coloring.n_vertices))
        )
        comps = uncolored_components(w.graph, coloring, remaining)
        if comps:
            assert max(len(c) for c in comps) < 0.05 * coloring.n_vertices

    def test_charges_palette_bitmaps(self):
        w, runtime, coloring = _setup(seed=3)
        before = runtime.ledger.rounds_h
        shattering(runtime, coloring, list(range(coloring.n_vertices)), rounds=4)
        assert runtime.ledger.rounds_h > before


class TestSmallInstanceColoring:
    def test_completes_components(self):
        w, runtime, coloring = _setup(seed=4)
        remaining = shattering(
            runtime, coloring, list(range(coloring.n_vertices)), rounds=2
        )
        comps = uncolored_components(w.graph, coloring, remaining)
        stuck = small_instance_coloring(runtime, coloring, comps)
        assert stuck == []
        assert is_total(coloring)
        assert is_proper(w.graph, coloring.colors)

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_blocked_minima_equal_a_single_block(self, chunk, monkeypatch):
        """The local-minima gathers run in blocks; the coloring, ledger and
        RNG end state are the single block's."""
        import repro.graphcore.kernels as kernels

        def run():
            w, runtime, coloring = _setup(seed=4)
            remaining = shattering(
                runtime, coloring, list(range(coloring.n_vertices)), rounds=1
            )
            comps = uncolored_components(w.graph, coloring, remaining)
            assert len(comps) > 1
            small_instance_coloring(runtime, coloring, comps)
            return coloring.colors, runtime

        monkeypatch.setattr(kernels, "_GATHER_CHUNK", 1 << 40)
        whole, whole_runtime = run()
        monkeypatch.setattr(kernels, "_GATHER_CHUNK", chunk)
        colors, runtime = run()
        assert np.array_equal(colors, whole)
        assert runtime.ledger.summary() == whole_runtime.ledger.summary()
        assert runtime.rng.bit_generator.state == whole_runtime.rng.bit_generator.state

    def test_local_minima_rule_parallel_safe(self):
        """Two adjacent vertices are never both local minima, so the rounds
        commit conflict-free by construction; verify properness on a fresh
        graph with no shattering at all (worst case)."""
        w, runtime, coloring = _setup(seed=5, n_vertices=200, target_degree=4)
        comps = uncolored_components(
            w.graph, coloring, list(range(coloring.n_vertices))
        )
        small_instance_coloring(runtime, coloring, comps)
        assert is_total(coloring)
        assert is_proper(w.graph, coloring.colors)


class TestFullLowDegreePath:
    def test_end_to_end(self):
        w, runtime, coloring = _setup(seed=6)
        info = color_low_degree(runtime, coloring)
        assert is_total(coloring)
        assert is_proper(w.graph, coloring.colors)
        assert info["stuck"] == []
        assert info["num_components"] >= 0

    def test_respects_vertex_subset(self):
        w, runtime, coloring = _setup(seed=7)
        subset = list(range(0, coloring.n_vertices, 2))
        color_low_degree(runtime, coloring, subset)
        for v in range(1, coloring.n_vertices, 2):
            assert not coloring.is_colored(v)
