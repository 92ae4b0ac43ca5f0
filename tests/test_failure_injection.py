"""Failure injection: forced postcondition misses must degrade gracefully
(docs/ARCHITECTURE.md, D3) -- proper coloring always, degradation always recorded."""

import numpy as np
import pytest

from repro import color_cluster_graph
from repro.coloring import StageFailure
from repro.coloring.pipeline import fallback_color
from repro.coloring.stats import ColoringStats
from repro.coloring.types import PartialColoring
from repro.verify import is_proper
from repro.workloads import cabal_instance, planted_acd_instance
from tests.conftest import is_total, make_runtime


class TestFallbackColor:
    def test_completes_and_records(self):
        w = planted_acd_instance(np.random.default_rng(1))
        runtime = make_runtime(w.graph)
        coloring = PartialColoring.empty(w.graph.n_vertices, w.graph.max_degree + 1)
        stats = ColoringStats()
        fallback_color(
            runtime, coloring, list(range(coloring.n_vertices)), stats, "injected"
        )
        assert is_total(coloring)
        assert is_proper(w.graph, coloring.colors)
        assert stats.fallbacks["injected"] == coloring.n_vertices

    def test_noop_when_nothing_uncolored(self):
        w = planted_acd_instance(np.random.default_rng(2))
        runtime = make_runtime(w.graph)
        coloring = PartialColoring.empty(w.graph.n_vertices, w.graph.max_degree + 1)
        from repro.coloring.try_color import greedy_finish

        greedy_finish(runtime, coloring, list(range(coloring.n_vertices)))
        stats = ColoringStats()
        fallback_color(runtime, coloring, [], stats, "noop")
        assert stats.fallbacks == {}

    def test_charges_palette_discovery(self):
        """Palette discovery is not free on cluster graphs (Figure 2): the
        fallback must charge pipelined bitmap messages."""
        w = planted_acd_instance(np.random.default_rng(3))
        runtime = make_runtime(w.graph)
        coloring = PartialColoring.empty(w.graph.n_vertices, w.graph.max_degree + 1)
        before = runtime.ledger.rounds_h
        fallback_color(runtime, coloring, [0, 1, 2], ColoringStats(), "x")
        assert runtime.ledger.rounds_h > before


class TestInjectedStageFailures:
    def test_noncabal_failure_falls_back(self, monkeypatch):
        import repro.coloring.pipeline as pipeline_mod

        def sabotage(runtime, coloring, acd, **kw):
            raise StageFailure(
                "noncabals", "injected", [v for m in acd.cliques for v in m]
            )

        monkeypatch.setattr(pipeline_mod, "color_noncabals", sabotage)
        w = planted_acd_instance(
            np.random.default_rng(4), external_degree=12, n_sparse=120
        )
        result = color_cluster_graph(w.graph, seed=1)
        assert result.proper
        assert result.stats.fallbacks.get("noncabals", 0) > 0

    def test_cabal_failure_falls_back(self, monkeypatch):
        import repro.coloring.pipeline as pipeline_mod

        def sabotage(runtime, coloring, acd, **kw):
            raise StageFailure(
                "cabals", "injected", [v for m in acd.cliques for v in m]
            )

        monkeypatch.setattr(pipeline_mod, "color_cabals", sabotage)
        w = cabal_instance(np.random.default_rng(5))
        result = color_cluster_graph(w.graph, seed=1)
        assert result.proper
        assert result.stats.fallbacks.get("cabals", 0) > 0

    def test_acd_returning_nothing_still_colors(self, monkeypatch):
        """If the ACD classifies everything sparse (total detection failure),
        the sparse path must still finish the graph."""
        import repro.coloring.pipeline as pipeline_mod
        from repro.decomposition.acd import AlmostCliqueDecomposition

        real_compute = pipeline_mod.compute_acd

        def all_sparse(runtime, eps=None, **kw):
            acd = real_compute(runtime, eps, **kw)
            n = runtime.graph.n_vertices
            return AlmostCliqueDecomposition(
                sparse=list(range(n)),
                cliques=[],
                clique_of=np.full(n, -1, dtype=np.int64),
            )

        monkeypatch.setattr(pipeline_mod, "compute_acd", all_sparse)
        w = planted_acd_instance(np.random.default_rng(6))
        result = color_cluster_graph(w.graph, seed=2)
        assert result.proper

    def test_mct_sabotage_inside_noncabals(self, monkeypatch):
        """Break MultiColorTrial everywhere: retries/fallbacks must still
        deliver a proper total coloring."""
        import repro.coloring.multicolor_trial as mct_mod
        import repro.coloring.noncabal as noncabal_mod
        import repro.coloring.cabal as cabal_mod
        import repro.coloring.complete as complete_mod
        import repro.coloring.pipeline as pipeline_mod

        def broken(runtime, coloring, vertices, color_space, **kw):
            remaining = [v for v in vertices if not coloring.is_colored(v)]
            if kw.get("raise_on_leftover", True) and remaining:
                raise StageFailure("mct", "injected", remaining)
            return remaining

        for mod in (mct_mod, noncabal_mod, cabal_mod, complete_mod, pipeline_mod):
            if hasattr(mod, "multicolor_trial"):
                monkeypatch.setattr(mod, "multicolor_trial", broken)
        w = planted_acd_instance(np.random.default_rng(7))
        result = color_cluster_graph(w.graph, seed=3)
        assert result.proper
        assert result.stats.fallbacks  # some stage had to degrade
