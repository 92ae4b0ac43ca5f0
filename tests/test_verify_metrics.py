"""The verification layer must actually catch defects; metrics formatting."""

import numpy as np
import pytest

from repro import color_cluster_graph
from repro.coloring.types import PartialColoring
from repro.experiments.artifacts import format_table
from repro.network.ledger import BandwidthLedger
from repro.verify import (
    check_acd,
    check_colorful_matching,
    check_put_aside,
    invariant_problem,
    is_proper,
    violations,
)
from repro.workloads import figure1_example, planted_acd_instance


class TestProperChecker:
    def test_detects_monochromatic_edge(self, figure1_workload):
        g = figure1_workload.graph
        colors = np.array([0, 0, 1, 2])  # vertices 0,1 adjacent, same color
        assert not is_proper(g, colors)
        assert (0, 1) in violations(g, colors)

    def test_partial_colorings(self, figure1_workload):
        g = figure1_workload.graph
        colors = np.array([0, -1, 1, -1])
        assert is_proper(g, colors, allow_partial=True)
        assert not is_proper(g, colors)  # total required by default


class TestAudit:
    def test_defects_reported(self, rng):
        """A sabotaged pipeline run is caught by the end-of-run checker."""
        from repro import color_cluster_graph
        from repro.verify import is_proper, violations

        w = figure1_example()
        result = color_cluster_graph(w.graph, seed=1)
        assert is_proper(w.graph, result.colors)
        result.colors[0] = result.colors[1] = 0  # sabotage
        assert not is_proper(w.graph, result.colors)
        assert (0, 1) in violations(w.graph, result.colors)


class TestRunInvariants:
    """``proper`` on the pipeline, baseline and engine paths also covers
    the palette and the link budget, not only the edges."""

    @pytest.mark.parametrize(
        "colors,alive,problem",
        [
            ([0, 1, 2, 0], None, None),
            ([0, -1, 2, 0], None, "outside palette"),
            ([0, 1, 2, 3], None, "outside palette"),
            ([0, 1, 7, 0], None, "outside palette"),
            ([0, 1, 3, -1], [True, True, False, False], None),
        ],
        ids=["in-palette", "uncolored", "num-colors", "wider-palette", "dead-ids"],
    )
    def test_palette(self, colors, alive, problem):
        ledger = BandwidthLedger(bandwidth_bits=32)
        ledger.charge("ok", 30)
        alive = None if alive is None else np.array(alive)
        got = invariant_problem(np.array(colors), 3, ledger, alive)
        if problem is None:
            assert got is None
        else:
            assert problem in got

    def test_a_ledger_that_absorbs_a_wider_summary_is_flagged(self):
        ledger = BandwidthLedger(bandwidth_bits=32)
        ledger.charge("ok", 30)
        colors = np.zeros(2, dtype=np.int64)
        assert invariant_problem(colors, 1, ledger) is None
        ledger.absorb(WIDE_SUMMARY, op="sub_run")
        assert "40-bit message; cap is 32" in invariant_problem(colors, 1, ledger)

    def test_pipeline_reports_a_palette_hole(self, monkeypatch):
        import repro.coloring.pipeline as pipeline

        graph = planted_acd_instance(np.random.default_rng(9)).graph
        assert color_cluster_graph(graph, seed=4).proper
        stage = pipeline.color_low_degree

        def leave_a_hole(runtime, coloring):
            info = stage(runtime, coloring)
            coloring.colors[0] = coloring.num_colors  # no neighbor has it
            return info

        monkeypatch.setattr(pipeline, "color_low_degree", leave_a_hole)
        result = color_cluster_graph(graph, seed=4, regime="low_degree")
        assert is_proper(graph, result.colors)
        assert not result.proper

    def test_baseline_reports_a_palette_hole(self, monkeypatch):
        import repro.baselines.luby as luby

        graph = planted_acd_instance(np.random.default_rng(9)).graph
        assert luby.luby_coloring(graph, seed=4).proper
        trial = luby.try_color_round

        def leave_a_hole(runtime, coloring, *args, **kwargs):
            trial(runtime, coloring, *args, **kwargs)
            if (coloring.colors >= 0).all():  # the last round
                coloring.colors[0] = coloring.num_colors

        monkeypatch.setattr(luby, "try_color_round", leave_a_hole)
        result = luby.luby_coloring(graph, seed=4)
        assert is_proper(graph, result.colors)
        assert not result.proper

    def test_engine_batch_reports_a_palette_hole(self, monkeypatch):
        from repro.dynamic import DynamicColoring, UpdateBatch

        graph = planted_acd_instance(np.random.default_rng(9)).graph
        engine = DynamicColoring(graph, seed=4)
        assert engine.apply(UpdateBatch()).proper
        repair = engine._repair

        def leave_a_hole(dirty):
            out = repair(dirty)
            engine.colors[0] = engine.num_colors
            return out

        monkeypatch.setattr(engine, "_repair", leave_a_hole)
        assert not engine.apply(UpdateBatch()).proper

    def test_engine_batch_reports_a_ledger_over_its_cap(self):
        from repro.dynamic import DynamicColoring, UpdateBatch

        graph = planted_acd_instance(np.random.default_rng(9)).graph
        engine = DynamicColoring(graph, seed=4)
        cap = engine.ledger.bandwidth_bits
        engine.ledger.absorb(
            {**WIDE_SUMMARY, "max_message_bits": cap + 8}, op="sub_run"
        )
        assert not engine.apply(UpdateBatch()).proper


#: The headline counters of a sub-run whose widest message was 40 bits.
WIDE_SUMMARY = {
    "rounds_h": 1,
    "rounds_g": 1,
    "total_message_bits": 40,
    "max_message_bits": 40,
    "num_operations": 1,
}


class TestAcdChecker:
    def test_flags_oversized_clique(self, planted_workload):
        from repro.decomposition.acd import AlmostCliqueDecomposition

        g = planted_workload.graph
        too_big = list(range(int(1.2 * g.max_degree) + 2))
        acd = AlmostCliqueDecomposition(
            sparse=[v for v in range(g.n_vertices) if v not in set(too_big)],
            cliques=[too_big],
            clique_of=np.array(
                [0 if v in set(too_big) else -1 for v in range(g.n_vertices)]
            ),
        )
        problems = check_acd(g, acd, eps=0.1)
        assert any("members" in p or "internal" in p for p in problems)

    def test_flags_overlap(self, planted_workload):
        from repro.decomposition.acd import AlmostCliqueDecomposition

        g = planted_workload.graph
        k = planted_workload.planted_cliques[0]
        acd = AlmostCliqueDecomposition(
            sparse=[v for v in range(g.n_vertices) if v not in set(k)],
            cliques=[k, k],
            clique_of=np.zeros(g.n_vertices, dtype=np.int64),
        )
        assert any("overlap" in p for p in check_acd(g, acd, eps=0.1))


class TestMatchingChecker:
    def test_counts_reuse(self, figure1_workload):
        g = figure1_workload.graph
        c = PartialColoring.empty(g.n_vertices, g.max_degree + 1)
        # vertices 0 and 2 are non-adjacent in figure1's H
        assert not g.are_adjacent(0, 2)
        c.assign(0, 1)
        c.assign(2, 1)
        assert check_colorful_matching(g, c, [0, 1, 2, 3]) == 1

    def test_rejects_adjacent_same_color(self, figure1_workload):
        g = figure1_workload.graph
        c = PartialColoring.empty(g.n_vertices, g.max_degree + 1)
        c.assign(0, 1)
        c.assign(1, 1)  # adjacent!
        with pytest.raises(AssertionError):
            check_colorful_matching(g, c, [0, 1])


class TestPutAsideChecker:
    def test_flags_wrong_size_and_cross_edges(self, figure1_workload):
        g = figure1_workload.graph
        problems = check_put_aside(g, {0: [0], 1: [1]}, r=2)
        assert any("!= r" in p for p in problems)
        assert any("edge between" in p for p in problems)

    def test_accepts_valid(self, figure1_workload):
        g = figure1_workload.graph
        # vertices 0 and 2 are non-adjacent
        assert check_put_aside(g, {0: [0], 1: [2]}, r=1) == []


class TestMetrics:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "bb": "xy"}, {"a": 222, "bb": "z"}]
        text = format_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4
        assert all(len(l) == len(lines[0]) for l in lines[1:])

    def test_empty_table(self):
        assert format_table([]) == "(no rows)"
