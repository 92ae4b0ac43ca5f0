"""CommGraph, BandwidthLedger, MachineSimulator (the model of Section 3.2)."""

import numpy as np
import pytest

from repro.network import (
    BandwidthLedger,
    CommGraph,
    MachineSimulator,
    ModelViolation,
)


class TestCommGraph:
    def test_basic_construction(self):
        g = CommGraph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.n == 4
        assert g.num_links == 3
        assert g.degree(1) == 2
        assert list(g.neighbors(1)) == [0, 2]

    def test_duplicate_links_collapsed(self):
        g = CommGraph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_links == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            CommGraph(2, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            CommGraph(2, [(0, 5)])

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            CommGraph(0, [])

    def test_has_link(self):
        g = CommGraph(5, [(0, 1), (1, 3), (3, 4)])
        assert g.has_link(0, 1) and g.has_link(1, 0)
        assert g.has_link(3, 4)
        assert not g.has_link(0, 4)
        assert not g.has_link(2, 3)

    @pytest.mark.parametrize(
        "edges, dtype",
        [
            ([(0.5, 1.7)], "float64"),
            (np.array([[0.5, 1.7]]), "float64"),
            (np.array([[True, False]]), "bool"),
            ([], None),
            (np.empty((0, 2)), None),
        ],
        ids=["float-list", "float-array", "bool-array", "empty-list", "empty-float-array"],
    )
    def test_non_integer_links_rejected(self, edges, dtype):
        if dtype is None:  # no link: nothing to truncate, whatever the dtype
            assert CommGraph(3, edges).num_links == 0
            return
        with pytest.raises(ValueError, match=f"integers, got dtype {dtype}"):
            CommGraph(3, edges)

    def test_link_indices_match_link_index(self):
        g = CommGraph(6, [(0, 1), (1, 3), (3, 4), (2, 5), (0, 5)])
        link_u, link_v = (a.tolist() for a in g.link_arrays())

        def link_index(a, b):  # brute force over the link_arrays order
            lo, hi = min(a, b), max(a, b)
            return next(
                i for i, pair in enumerate(zip(link_u, link_v)) if pair == (lo, hi)
            )

        u = np.array([3, 0, 5, 4, 1])
        v = np.array([1, 5, 2, 3, 0])
        expected = [link_index(a, b) for a, b in zip(u.tolist(), v.tolist())]
        assert g.link_indices(u, v).tolist() == expected
        with pytest.raises(KeyError, match="machines 2 and 3 share no link"):
            g.link_indices(np.array([0, 2]), np.array([1, 3]))
        # 0 * 4 + 6 == 1 * 4 + 2: an out-of-range id must not alias link (1, 2)
        path = CommGraph(4, [(0, 1), (1, 2), (2, 3)])
        for u, v, named in (
            ([0], [6], "0 and 6"), ([1, 6], [2, 0], "6 and 0"), ([-1, 1], [2, 2], "-1 and 2"),
        ):
            with pytest.raises(KeyError, match=f"machines {named}: id outside 0..3"):
                path.link_indices(np.array(u), np.array(v))

    def test_iter_links_canonical(self):
        g = CommGraph(4, [(3, 1), (0, 2)])
        link_u, link_v = g.link_arrays()
        assert list(zip(link_u.tolist(), link_v.tolist())) == [(0, 2), (1, 3)]


class TestLedger:
    def test_simple_charge(self):
        ledger = BandwidthLedger(bandwidth_bits=32, dilation=3)
        ledger.charge("op", 16, rounds_h=2)
        assert ledger.rounds_h == 2
        assert ledger.rounds_g == 6  # dilation multiplies
        assert ledger.max_message_bits == 16

    def test_strict_violation(self):
        ledger = BandwidthLedger(bandwidth_bits=32)
        with pytest.raises(ModelViolation, match="cap is 32"):
            ledger.charge("wide", 64)

    def test_pipelining_splits_rounds(self):
        ledger = BandwidthLedger(bandwidth_bits=32, dilation=1)
        charged = ledger.charge("wide", 100, pipelined=True)
        assert charged == 4  # ceil(100/32)
        assert ledger.rounds_h == 4
        assert ledger.max_message_bits <= 32

    def test_window_diff(self):
        ledger = BandwidthLedger(bandwidth_bits=32)
        with ledger.window() as window:
            ledger.charge("a", 8)
            ledger.charge("b", 8, rounds_h=3)
        assert window.rounds_h == 4
        assert window.num_operations == 2

    def test_per_op_breakdown(self):
        ledger = BandwidthLedger(bandwidth_bits=32)
        ledger.charge("x", 8, rounds_h=2)
        ledger.charge("x", 8)
        ledger.charge("y", 8)
        assert ledger.per_op_rounds["x"] == 3
        assert ledger.per_op_rounds["y"] == 1

    def test_negative_cost_rejected(self):
        ledger = BandwidthLedger(bandwidth_bits=32)
        with pytest.raises(ValueError):
            ledger.charge("bad", -1)

    @pytest.mark.parametrize(
        "field",
        ["rounds_h", "rounds_g", "total_message_bits", "max_message_bits",
         "num_operations", "per_op_rounds", "per_op_bits", "netmodel",
         "makespan_ms"],
    )
    def test_new_ledger_starts_at_zero(self, field):
        # counters and the network model are not constructor arguments:
        # a model must go through attach_netmodel, whose guard refuses a
        # ledger that already holds rounds the simulated clock never saw
        with pytest.raises(TypeError, match=field):
            BandwidthLedger(bandwidth_bits=64, **{field: 10})

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BandwidthLedger(bandwidth_bits=0)
        with pytest.raises(ValueError):
            BandwidthLedger(bandwidth_bits=8, dilation=0)

    def test_bit_accounting_invariant(self):
        # bits measure payload: total == sum of per-op bits, and multi-round
        # operations charge payload per H-round unit
        ledger = BandwidthLedger(bandwidth_bits=32)
        ledger.charge("a", 8, rounds_h=3)
        ledger.charge("b", 16)
        assert ledger.total_message_bits == 8 * 3 + 16
        assert sum(ledger.per_op_bits.values()) == ledger.total_message_bits
        assert sum(ledger.per_op_rounds.values()) == ledger.rounds_h

    def test_pipelining_preserves_payload_bits(self):
        # splitting a wide message adds rounds, never bits
        narrow = BandwidthLedger(bandwidth_bits=200)
        wide = BandwidthLedger(bandwidth_bits=32)
        narrow.charge("op", 100, rounds_h=2)
        wide.charge("op", 100, rounds_h=2, pipelined=True)
        assert wide.total_message_bits == narrow.total_message_bits == 200
        assert wide.rounds_h == 2 * 4  # ceil(100/32) pieces
        assert narrow.rounds_h == 2
        assert sum(wide.per_op_bits.values()) == wide.total_message_bits

    def test_non_strict_oversized_accounting(self):
        # an oversized message let through (declared pipelined): rounds are
        # effective, bits are payload, and the recorded widest message
        # stays within the cap
        ledger = BandwidthLedger(bandwidth_bits=32, dilation=2)
        charged = ledger.charge("wide", 70, rounds_h=3, pipelined=True)
        assert charged == 9  # ceil(70/32) = 3 pieces per H-round unit
        assert ledger.rounds_h == 9
        assert ledger.rounds_g == 18
        assert ledger.total_message_bits == 70 * 3
        assert ledger.per_op_rounds["wide"] == 9
        assert ledger.per_op_bits["wide"] == 70 * 3
        assert ledger.max_message_bits == 32

    def test_zero_round_charge_accounts_payload_once(self):
        ledger = BandwidthLedger(bandwidth_bits=32)
        charged = ledger.charge("piggyback", 8, rounds_h=0)
        assert charged == 0
        assert ledger.rounds_h == 0
        assert ledger.total_message_bits == 8
        assert ledger.per_op_bits["piggyback"] == 8

    def test_depth_override_scales_g_rounds_only(self):
        ledger = BandwidthLedger(bandwidth_bits=32, dilation=4)
        ledger.charge("deep", 8, rounds_h=2, depth=7)
        assert ledger.rounds_h == 2
        assert ledger.rounds_g == 14  # depth wins over the default dilation
        ledger.charge("default", 8)
        assert ledger.rounds_g == 14 + 4

    def test_depth_override_clamped_to_one(self):
        ledger = BandwidthLedger(bandwidth_bits=32, dilation=5)
        ledger.charge("shallow", 8, depth=0)
        assert ledger.rounds_g == 1

    def test_depth_override_with_pipelining(self):
        ledger = BandwidthLedger(bandwidth_bits=32, dilation=1)
        charged = ledger.charge("wide_deep", 64, depth=3, pipelined=True)
        assert charged == 2
        assert ledger.rounds_g == 6  # every pipelined piece pays the depth


class TestLedgerWindow:
    def test_counters_are_differences(self):
        ledger = BandwidthLedger(bandwidth_bits=32)
        ledger.charge("before", 8, rounds_h=5)
        with ledger.window() as window:
            ledger.charge("after", 16, rounds_h=2)
        assert window.rounds_h == 2
        assert window.rounds_g == 2
        assert window.message_bits == 16 * 2
        assert window.num_operations == 1

    def test_window_is_local_not_global(self):
        ledger = BandwidthLedger(bandwidth_bits=64)
        ledger.charge("wide", 60)
        with ledger.window() as window:
            ledger.charge("narrow", 10)
        assert window.max_message_bits == 10
        assert ledger.max_message_bits == 60

    def test_window_max_is_high_water_mark(self):
        # max_message_bits is a high-water mark: a narrower later charge in
        # the same window neither lowers nor subtracts from it
        ledger = BandwidthLedger(bandwidth_bits=32)
        with ledger.window() as window:
            ledger.charge("wide", 30)
            ledger.charge("narrow", 4)
        assert window.max_message_bits == 30
        assert window.num_operations == 2

    def test_nested_windows_fold_into_parent(self):
        ledger = BandwidthLedger(bandwidth_bits=64)
        with ledger.window() as outer:
            ledger.charge("a", 5)
            with ledger.window() as inner:
                ledger.charge("b", 30)
            ledger.charge("c", 12)
        assert inner.max_message_bits == 30
        assert outer.max_message_bits == 30  # inner max visible to outer
        assert outer.rounds_h == 3

    def test_width_is_capped_at_bandwidth(self):
        ledger = BandwidthLedger(bandwidth_bits=64)
        with ledger.window() as window:
            ledger.charge("wide", 1000, pipelined=True)
        # width of one message piece, not the payload
        assert window.max_message_bits == 64

    def test_absorb_updates_window(self):
        ledger = BandwidthLedger(bandwidth_bits=64)
        with ledger.window() as window:
            ledger.absorb(
                {"rounds_h": 3, "rounds_g": 3, "total_message_bits": 50,
                 "max_message_bits": 40, "num_operations": 2},
                op="sub",
            )
        assert window.max_message_bits == 40
        assert window.rounds_h == 3

    def test_empty_window_is_zero(self):
        ledger = BandwidthLedger(bandwidth_bits=32)
        ledger.charge("op", 8)
        with ledger.window() as window:
            pass
        assert window.rounds_h == 0
        assert window.rounds_g == 0
        assert window.message_bits == 0
        assert window.max_message_bits == 0
        assert window.num_operations == 0
        assert window.makespan_ms == 0.0

    def test_exception_closes_nested_windows(self):
        ledger = BandwidthLedger(bandwidth_bits=32)
        with pytest.raises(KeyError):
            with ledger.window() as outer:
                with ledger.window():
                    ledger.charge("op", 8)
                    raise KeyError("boom")
        assert outer.rounds_h == 1
        assert outer.max_message_bits == 8
        # no window is left open: a later charge widens no stale window
        ledger.charge("later", 16)
        assert outer.max_message_bits == 8
        assert ledger._open_windows == []


class TestMachineSimulator:
    def _line(self) -> CommGraph:
        return CommGraph(3, [(0, 1), (1, 2)])

    def test_message_delivery(self):
        sim = MachineSimulator(self._line(), bandwidth_bits=16)

        def step(machine, rnd, inbox):
            if rnd == 0 and machine == 0:
                return [(1, "hello", 8)]
            return []

        sim.run(step, rounds=1)
        inbox = sim.inbox(1)
        assert len(inbox) == 1
        assert inbox[0].payload == "hello"
        assert sim.total_bits == 8

    def test_cap_enforced(self):
        sim = MachineSimulator(self._line(), bandwidth_bits=16)
        with pytest.raises(ModelViolation, match="exceeds cap"):
            sim.run_round(lambda m, r, i: [(1, "x", 99)] if m == 0 else [])

    def test_non_neighbor_rejected(self):
        sim = MachineSimulator(self._line(), bandwidth_bits=16)
        with pytest.raises(ModelViolation, match="non-neighbor"):
            sim.run_round(lambda m, r, i: [(2, "x", 4)] if m == 0 else [])

    def test_one_message_per_link_per_round(self):
        sim = MachineSimulator(self._line(), bandwidth_bits=16)
        with pytest.raises(ModelViolation, match="twice"):
            sim.run_round(
                lambda m, r, i: [(1, "a", 4), (1, "b", 4)] if m == 0 else []
            )

    def test_flood_reaches_everyone(self):
        # broadcast by flooding: round counter equals eccentricity
        g = CommGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        sim = MachineSimulator(g, bandwidth_bits=16)
        informed = {0}

        def step(machine, rnd, inbox):
            if inbox:
                informed.add(machine)
            if machine in informed:
                return [(u, "token", 4) for u in g.neighbors(machine)]
            return []

        sim.run(step, rounds=5)
        assert informed == {0, 1, 2, 3, 4}
