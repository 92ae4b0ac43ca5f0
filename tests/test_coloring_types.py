"""PartialColoring and CliquePaletteView invariants (Section 3.1 notation)."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import blowup
from repro.coloring import UNCOLORED, CliquePaletteView, PartialColoring
from tests.conftest import is_total


def _path_graph(n=6):
    return blowup(nx.path_graph(n), np.random.default_rng(0), cluster_size=1)


class TestPartialColoring:
    def test_empty_start(self):
        c = PartialColoring.empty(5, 4)
        assert c.colored_count() == 0
        assert not is_total(c)
        assert c.uncolored_vertices() == [0, 1, 2, 3, 4]

    def test_assign_and_query(self):
        c = PartialColoring.empty(3, 4)
        c.assign(1, 2)
        assert c.is_colored(1)
        assert c.get(1) == 2
        assert c.get(0) == UNCOLORED

    def test_no_silent_overwrite(self):
        c = PartialColoring.empty(3, 4)
        c.assign(0, 1)
        with pytest.raises(ValueError, match="already colored"):
            c.assign(0, 2)

    def test_recolor_requires_colored(self):
        c = PartialColoring.empty(3, 4)
        with pytest.raises(ValueError, match="uncolored"):
            c.recolor(0, 1)
        c.assign(0, 1)
        c.recolor(0, 3)
        assert c.get(0) == 3

    def test_color_range_validated(self):
        c = PartialColoring.empty(3, 4)
        with pytest.raises(ValueError):
            c.assign(0, 4)
        with pytest.raises(ValueError):
            c.assign(0, -1)

    def test_uncolor(self):
        c = PartialColoring.empty(3, 4)
        c.assign(2, 0)
        c.uncolor(2)
        assert not c.is_colored(2)

    def test_palette_excludes_neighbor_colors(self):
        g = _path_graph(3)
        c = PartialColoring.empty(3, 3)
        c.assign(0, 1)
        c.assign(2, 2)
        assert c.palette_array(g, 1).tolist() == [0]

    def test_is_free_for(self):
        g = _path_graph(3)
        c = PartialColoring.empty(3, 3)
        c.assign(0, 1)
        assert not c.is_free_for(g, 1, 1)
        assert c.is_free_for(g, 1, 0)
        assert c.is_free_for(g, 2, 1)  # not adjacent to 0

    def test_copy_is_independent(self):
        c = PartialColoring.empty(3, 4)
        c2 = c.copy()
        c2.assign(0, 1)
        assert not c.is_colored(0)

    def test_assign_many(self):
        c = PartialColoring.empty(5, 4)
        c.assign_many(np.array([3, 0]), np.array([2, 1]))
        assert c.colors.tolist() == [1, UNCOLORED, UNCOLORED, 2, UNCOLORED]
        c.assign_many(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert c.colored_count() == 2

    @pytest.mark.parametrize(
        "vertices,colors,match",
        [
            ([1, 2], [0, 4], "outside"),
            ([1, 2], [-1, 0], "outside"),
            ([1, 0], [0, 1], "already colored"),
            ([1, 2, 1], [0, 1, 0], "listed twice"),
            ([1, 2], [0], "colors"),
        ],
        ids=["above-q", "negative", "overwrite", "duplicate", "misaligned"],
    )
    def test_assign_many_rejects_before_writing(self, vertices, colors, match):
        c = PartialColoring.empty(4, 4)
        c.assign(0, 3)
        before = c.colors.copy()
        with pytest.raises(ValueError, match=match):
            c.assign_many(np.array(vertices), np.array(colors))
        assert np.array_equal(c.colors, before)

    @given(st.integers(0, 400))
    @settings(max_examples=30)
    def test_colored_count_matches_assignments(self, seed):
        rng = np.random.default_rng(seed)
        c = PartialColoring.empty(20, 10)
        k = int(rng.integers(0, 20))
        chosen = rng.permutation(20)[:k]
        for v in chosen:
            c.assign(int(v), int(rng.integers(0, 10)))
        assert c.colored_count() == k
        assert len(c.uncolored_vertices()) == 20 - k


class TestCliquePaletteView:
    def test_free_colors(self):
        c = PartialColoring.empty(4, 6)
        c.assign(0, 2)
        c.assign(1, 5)
        view = CliquePaletteView.build(c, [0, 1, 2, 3])
        assert list(view.free) == [0, 1, 3, 4]
        assert view.size == 4
        # free_above(r) = L(K) \ [r] with [r] = {0..r-1}: 3 itself survives
        assert list(view.free_above(3)) == [3, 4]

    def test_only_members_counted(self):
        c = PartialColoring.empty(3, 4)
        c.assign(2, 1)  # not a member
        view = CliquePaletteView.build(c, [0, 1])
        assert view.size == 4
