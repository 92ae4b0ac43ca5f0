"""Tests for the heterogeneous network model (repro.network.hetnet).

The load-bearing properties, mirroring docs/NETWORK.md:

* **Determinism** -- identical (graph, spec, seed) always samples the
  identical fabric; the fabric RNG is spawned off the workload RNG, so
  the sampled *graph* is bit-identical with or without the net knobs.
* **Purity** -- the model prices a run's round histogram after the run;
  pricing one histogram twice gives the same answer, and the price equals
  the per-charge running sum over the run.
* **Monotonicity** -- slowing any single link (less bandwidth or more
  latency) never decreases the simulated makespan of a histogram.
* **Degeneracy** -- a skew-1 fabric is uniform: makespan is exactly
  ``effective rounds x round_time`` per width, a constant multiple.
* **Merge/absorb consistency** -- split accounting folds the histograms
  by integer addition, so it equals the unsplit histogram exactly.
* **Invisibility** -- the net knobs change no coloring, counter, or RNG
  draw; a run on a skewed fabric only prices higher.  (The golden table,
  tests/test_golden_runs.py, runs every row with the knobs on.)
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import color_cluster_graph
from repro.dynamic.harness import run_stream
from repro.network import HetNetModel, HetNetSpec
from repro.network.hetnet import BASE_BANDWIDTH_MBPS, BASE_LATENCY_MS
from repro.network.ledger import BandwidthLedger
from repro.workloads import GENERATORS, PARAM_SPECS, STREAMS
from repro.workloads.specs import NET_PARAM_NAMES

SLOW = settings(
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)

#: One small cluster graph shared by the fabric-level tests (identity
#: clusters: every support tree is a single machine, so the envelope is
#: exactly the slowest designated H-link's ``latency + w/bandwidth``).
GRAPH = GENERATORS["congest"](np.random.default_rng(7), n=40).graph

#: A clustered graph (multi-machine support trees) for root-path lines.
TREE_GRAPH = GENERATORS["low_degree"](
    np.random.default_rng(7), n_vertices=60, target_degree=5, cluster_size=3
).graph


def sample_model(graph=GRAPH, *, skew=10.0, fill=0.2, seed=5):
    spec = HetNetSpec(skew=skew, fill=fill)
    return HetNetModel.sample(graph, spec, np.random.default_rng(seed))


class TestSpecValidation:
    def test_skew_below_one_rejected(self):
        with pytest.raises(ValueError, match="skew"):
            HetNetSpec(skew=0.5)

    def test_nan_skew_rejected(self):
        with pytest.raises(ValueError, match="skew"):
            HetNetSpec(skew=float("nan"))

    @pytest.mark.parametrize("fill", [-0.1, 1.5, float("nan")])
    def test_fill_out_of_range_rejected(self, fill):
        with pytest.raises(ValueError, match="fill"):
            HetNetSpec(fill=fill)

    def test_machine_types_apply_skew(self):
        # a standard machine's links keep the base link; a link touching a
        # slow machine divides the bandwidth by the skew and multiplies the
        # latency by it
        model = sample_model(fill=0.3, skew=10.0)
        link_u, link_v = GRAPH.comm.link_arrays()
        slow = (model.machine_type[link_u] | model.machine_type[link_v]).astype(bool)
        assert slow.any() and not slow.all()
        assert np.all(model.link_bandwidth_mbps[~slow] == BASE_BANDWIDTH_MBPS)
        assert np.all(model.link_latency_ms[~slow] == BASE_LATENCY_MS)
        assert np.all(model.link_bandwidth_mbps[slow] == BASE_BANDWIDTH_MBPS / 10.0)
        assert np.all(model.link_latency_ms[slow] == BASE_LATENCY_MS * 10.0)



class TestSampling:
    def test_same_seed_same_fabric(self):
        a = sample_model(seed=11)
        b = sample_model(seed=11)
        assert np.array_equal(a.machine_type, b.machine_type)
        assert np.array_equal(a.link_bandwidth_mbps, b.link_bandwidth_mbps)
        assert np.array_equal(a.link_latency_ms, b.link_latency_ms)
        assert a.element_names == b.element_names

    def test_fill_zero_is_all_standard(self):
        model = sample_model(fill=0.0)
        assert model.n_slow_machines == 0
        assert np.all(model.link_bandwidth_mbps == BASE_BANDWIDTH_MBPS)
        assert np.all(model.link_latency_ms == BASE_LATENCY_MS)

    def test_fill_one_is_all_slow(self):
        model = sample_model(fill=1.0, skew=8.0)
        assert model.n_slow_machines == GRAPH.comm.n
        # a slow link divides the standard bandwidth by the skew and
        # multiplies the standard latency by it
        assert np.all(model.link_bandwidth_mbps == BASE_BANDWIDTH_MBPS / 8.0)
        assert np.all(model.link_latency_ms == BASE_LATENCY_MS * 8.0)

    def test_link_slow_iff_either_endpoint_slow(self):
        model = sample_model(fill=0.3, skew=10.0)
        link_u, link_v = GRAPH.comm.link_arrays()
        slow = model.machine_type[link_u] | model.machine_type[link_v]
        assert np.array_equal(
            np.isclose(model.link_bandwidth_mbps, 10.0), slow.astype(bool)
        )

    def test_from_links_rejects_wrong_shapes(self):
        m = GRAPH.comm.num_links
        with pytest.raises(ValueError, match="links"):
            HetNetModel.from_links(GRAPH, np.ones(m - 1), np.zeros(m - 1))
        with pytest.raises(ValueError, match="bandwidth"):
            HetNetModel.from_links(GRAPH, np.zeros(m), np.zeros(m))


class TestSimulatedClock:
    def test_zero_rounds_advance_no_time(self):
        model = sample_model()
        assert model.price({})["makespan_ms"] == 0.0
        assert model.element_times_ms({64: 0}).sum() == 0.0
        assert model.element_times({}) == []

    def test_uniform_fabric_degenerates_to_rounds(self):
        # skew 1: every link identical, so makespan == rounds x constant
        model = sample_model(skew=1.0, fill=0.5)
        per_round = BASE_LATENCY_MS + 32 / (BASE_BANDWIDTH_MBPS * 1e3)
        assert model.price({32: 1})["makespan_ms"] == pytest.approx(per_round)
        assert model.price({32: 7})["makespan_ms"] == pytest.approx(7 * per_round)

    def test_account_accumulates_critical_element(self):
        model = sample_model(skew=100.0, fill=0.3)
        by_width = {64: 3, 8: 1}
        times = model.element_times_ms(by_width)
        tops = model.element_times(by_width, top=3)
        assert tops[0] == (model.price(by_width)["critical_link"], times.max())
        assert all(a[1] >= b[1] for a, b in zip(tops, tops[1:]))
        assert sum(ms for _name, ms in tops) <= times.sum() + 1e-9

    def test_tree_graph_has_root_path_elements(self):
        model = sample_model(TREE_GRAPH)
        assert any(n.startswith("tree[") for n in model.element_names)
        assert any(n.startswith("link[") for n in model.element_names)

    @SLOW
    @given(
        seed=st.integers(0, 10_000),
        idx_frac=st.floats(0.0, 1.0),
        bw_factor=st.floats(1.0, 100.0),
        lat_add=st.floats(0.0, 5.0),
    )
    def test_slowing_any_link_never_decreases_makespan(
        self, seed, idx_frac, bw_factor, lat_add
    ):
        m = TREE_GRAPH.comm.num_links
        rng = np.random.default_rng(seed)
        bw = rng.uniform(1.0, 200.0, m)
        lat = rng.uniform(0.0, 2.0, m)
        idx = min(m - 1, int(idx_frac * m))
        by_width = {8: 3, 64: 1, 32: 5, 1: 2}

        def total(bandwidth, latency):
            model = HetNetModel.from_links(TREE_GRAPH, bandwidth, latency)
            return model.element_times_ms(by_width).sum()

        base = total(bw, lat)
        slower_bw = bw.copy()
        slower_bw[idx] /= bw_factor
        assert total(slower_bw, lat) >= base - 1e-9
        later = lat.copy()
        later[idx] += lat_add
        assert total(bw, later) >= base - 1e-9

    @SLOW
    @given(width=st.integers(1, 512), rounds=st.integers(1, 50))
    def test_account_is_rounds_times_envelope(self, width, rounds):
        model = sample_model(TREE_GRAPH, skew=25.0, fill=0.4)
        envelope = float((model.line_a + model.line_b * width).max())
        assert model.element_times_ms({width: rounds}).sum() == pytest.approx(
            rounds * envelope
        )


class TestPricing:
    def test_pricing_one_histogram_twice_gives_equal_results(self):
        # a model that accumulated time across runs once reported a
        # critical element holding twice the run's whole makespan
        model = sample_model(skew=100.0, fill=0.3)
        runs = [
            color_cluster_graph(GRAPH, rng=np.random.default_rng(1234))
            for _ in range(2)
        ]
        prices = [model.price(run.rounds_by_width) for run in runs]
        assert prices[0] == prices[1] == model.price(runs[0].rounds_by_width)
        (_name, critical_ms), = model.element_times(runs[1].rounds_by_width, top=1)
        assert 0 < critical_ms <= model.element_times_ms(runs[1].rounds_by_width).sum()

    def test_price_matches_a_per_charge_running_sum(self, monkeypatch):
        model = sample_model(skew=100.0, fill=0.1)
        charges = []
        real = BandwidthLedger.charge

        def charge(ledger, op, message_bits, **kwargs):
            rounds = real(ledger, op, message_bits, **kwargs)
            charges.append((min(message_bits, ledger.bandwidth_bits), rounds))
            return rounds

        monkeypatch.setattr(BandwidthLedger, "charge", charge)
        result = color_cluster_graph(GRAPH, rng=np.random.default_rng(1234))
        running = 0.0
        for width, rounds in charges:
            running += rounds * float((model.line_a + model.line_b * width).max())
        assert running > 0
        assert model.price(result.rounds_by_width)["makespan_ms"] == pytest.approx(
            running, abs=1e-5
        )


class TestLedgerIntegration:
    def charge_seq(self, ledger, tag=""):
        ledger.charge(f"a{tag}", 8, rounds_h=2)
        ledger.charge(f"b{tag}", 60, rounds_h=1)
        ledger.charge(f"c{tag}", 1, rounds_h=4)
        ledger.charge(f"d{tag}", 200, rounds_h=1, pipelined=True)

    def test_summary_keeps_its_five_keys(self):
        ledger = BandwidthLedger(bandwidth_bits=64)
        self.charge_seq(ledger)
        assert set(ledger.summary()) == {
            "rounds_h", "rounds_g", "total_message_bits", "max_message_bits",
            "num_operations",
        }
        # a pipelined charge lands at the capped width, once per piece
        assert ledger.rounds_by_width == {8: 2, 60: 1, 1: 4, 64: 4}
        assert sum(ledger.rounds_by_width.values()) == ledger.rounds_h

    def test_window_carries_makespan(self):
        model = sample_model()
        ledger = BandwidthLedger(bandwidth_bits=64)
        ledger.charge("before", 16, rounds_h=3)
        with ledger.window() as window:
            self.charge_seq(ledger)
        assert window.rounds_by_width == {8: 2, 60: 1, 1: 4, 64: 4}
        assert model.price(window.rounds_by_width)["makespan_ms"] < model.price(
            ledger.rounds_by_width
        )["makespan_ms"]

    def test_zero_round_charge_advances_no_clock(self):
        ledger = BandwidthLedger(bandwidth_bits=64)
        ledger.charge("piggyback", 32, rounds_h=0)
        assert ledger.rounds_by_width == {}
        assert sample_model().price(ledger.rounds_by_width)["makespan_ms"] == 0.0

    def test_absorb_matches_unsplit_accounting(self):
        # split: A absorbs B's summary and histogram
        a = BandwidthLedger(bandwidth_bits=64)
        b = BandwidthLedger(bandwidth_bits=64)
        self.charge_seq(a, "1")
        self.charge_seq(b, "2")
        b.charge("e", 16, rounds_h=2)
        a.absorb(b.summary(), op="scratch", rounds_by_width=b.rounds_by_width)
        # unsplit: one ledger
        single = BandwidthLedger(bandwidth_bits=64)
        self.charge_seq(single, "1")
        self.charge_seq(single, "2")
        single.charge("e", 16, rounds_h=2)
        assert a.rounds_by_width == single.rounds_by_width
        model = sample_model(seed=3)
        assert model.price(a.rounds_by_width) == model.price(single.rounds_by_width)
        assert a.rounds_h == single.rounds_h
        assert a.total_message_bits == single.total_message_bits


class TestGeneratorKnobs:
    def test_every_generator_registers_net_knobs(self):
        for name, specs in PARAM_SPECS.items():
            for knob in NET_PARAM_NAMES:
                assert knob in specs, f"{name} misses {knob}"
                assert specs[knob].allow_none, f"{name}.{knob} must default off"
                assert specs[knob].default is None
                assert specs[knob].fuzz, f"{name}.{knob} not fuzzable"

    def test_knobs_attach_model_without_touching_graph(self):
        plain = GENERATORS["congest"](np.random.default_rng(3), n=40)
        knobbed = GENERATORS["congest"](
            np.random.default_rng(3), n=40, net_skew=10.0, net_fill=0.2
        )
        assert plain.netmodel is None
        assert isinstance(knobbed.netmodel, HetNetModel)
        assert knobbed.netmodel.spec == HetNetSpec(skew=10.0, fill=0.2)
        # the fabric RNG is spawned, not drawn: identical sampled graph
        assert np.array_equal(
            np.array(plain.graph.comm.link_arrays()),
            np.array(knobbed.graph.comm.link_arrays()),
        )
        assert np.array_equal(plain.graph.assignment, knobbed.graph.assignment)

    def test_partial_knobs_fill_defaults(self):
        w = GENERATORS["congest"](np.random.default_rng(3), n=40, net_skew=5.0)
        assert w.netmodel.spec == HetNetSpec(skew=5.0, fill=0.1)
        w = GENERATORS["congest"](np.random.default_rng(3), n=40, net_fill=0.3)
        assert w.netmodel.spec == HetNetSpec(skew=1.0, fill=0.3)

    def test_stream_workload_reports_makespan(self):
        kw = dict(n_vertices=120, avg_degree=5.0, batches=3)
        hot = STREAMS["sliding_window"](
            np.random.default_rng(2), net_skew=10.0, net_fill=0.2, **kw
        )
        _, _, metrics = run_stream(hot, seed=4)
        assert metrics["makespan_ms"] > 0
        assert isinstance(metrics["critical_link"], str)
        cold = STREAMS["sliding_window"](np.random.default_rng(2), **kw)
        _, _, cold_metrics = run_stream(cold, seed=4)
        assert "makespan_ms" not in cold_metrics
        assert "critical_link" not in cold_metrics


class TestPipelineIntegration:
    def run(self, **knobs):
        w = GENERATORS["congest"](np.random.default_rng(7), n=40, **knobs)
        return w, color_cluster_graph(w.graph, rng=np.random.default_rng(1234))

    def test_homogeneous_run_reports_no_makespan(self):
        _w, result = self.run()
        assert result.proper
        assert "makespan_ms" not in result.ledger_summary

    def test_skew_raises_makespan_not_colorings(self):
        base_w, base = self.run(net_skew=1.0, net_fill=0.1)
        skewed_w, skewed = self.run(net_skew=100.0, net_fill=0.1)
        assert base.colors.tolist() == skewed.colors.tolist()
        assert base.rounds_h == skewed.rounds_h
        assert base.rounds_by_width == skewed.rounds_by_width
        assert (
            skewed_w.netmodel.price(skewed.rounds_by_width)["makespan_ms"]
            > base_w.netmodel.price(base.rounds_by_width)["makespan_ms"]
            > 0
        )


class TestSuitesAndRunner:
    def test_hetnet_suites_cover_the_grid(self):
        from repro.experiments.spec import HETNET_FILLS, HETNET_SKEWS, SUITES

        cells = SUITES["hetnet"].cells()
        assert len(cells) == 4 * len(HETNET_SKEWS) * len(HETNET_FILLS)
        for cell in cells:
            kwargs = dict(cell.workload_kwargs)
            assert kwargs["net_skew"] in HETNET_SKEWS
            assert kwargs["net_fill"] in HETNET_FILLS

    def test_run_cell_reports_makespan_and_critical_link(self):
        from repro.experiments.runner import run_cell
        from repro.experiments.spec import SUITES

        cell = next(
            c for c in SUITES["hetnet"].cells()
            if c.workload == "congest"
            and dict(c.workload_kwargs)["net_skew"] == 100.0
        )
        record = run_cell(cell.to_dict())
        assert record["status"] == "ok", record["error"]
        assert record["metrics"]["makespan_ms"] > 0
        assert record["metrics"]["critical_link"]

    def test_makespan_objective_scores_records(self):
        from repro.fuzz import get_objective, score_record

        objective = get_objective("makespan")
        assert objective.deterministic
        assert objective.metric == "makespan_ms"
        record = {"status": "ok", "metrics": {"makespan_ms": 12.5}}
        assert score_record(objective, record) == 12.5
        homogeneous = {"status": "ok", "metrics": {}}
        assert score_record(objective, homogeneous) is None


class TestNetsimCLI:
    def test_netsim_names_critical_stage_and_link(self, capsys):
        from repro.cli import main

        rc = main([
            "netsim", "figure1", "--skew", "100", "--fill", "0.5",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "critical stage:" in out
        assert "critical link:" in out
        assert "makespan=" in out

    def test_netsim_json(self, capsys):
        from repro.cli import main

        rc = main([
            "netsim", "figure1", "--skew", "10", "--fill", "0.5", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["proper"] is True
        assert payload["makespan_ms"] > 0
        assert payload["critical_link"]
        assert payload["critical_stage"]
