"""Cluster-level accounting vs faithful machine-level execution
(docs/ARCHITECTURE.md, D1): the charged primitives must be realizable on the wire."""

import numpy as np
import pytest

from repro.aggregation import bfs_forest
from repro.cluster import ClusterGraph
from repro.network import CommGraph, MachineSimulator
from tests.conftest import make_runtime


def _small_cluster_graph():
    """Three clusters on an 8-machine network with a doubled link."""
    edges = [
        (0, 1), (1, 2),        # cluster 0 internal (path)
        (3, 4),                # cluster 1 internal
        (5, 6), (6, 7),        # cluster 2 internal
        (2, 3),                # 0-1
        (4, 5), (4, 7),        # 1-2 doubled
        (0, 5),                # 0-2
    ]
    comm = CommGraph(8, edges)
    return ClusterGraph.from_assignment(comm, [0, 0, 0, 1, 1, 2, 2, 2])


class TestMaxAggregationOnWire:
    def test_flooded_max_equals_cluster_max(self):
        """One fingerprint coordinate: every machine floods the max value it
        has seen along its support tree + inter-cluster links restricted to
        one hop; after (dilation + 1 + dilation) rounds every cluster leader
        knows max over the cluster's H-neighborhood -- must equal the
        centrally computed neighborhood max."""
        h = _small_cluster_graph()
        comm = h.comm
        rng = np.random.default_rng(0)
        machine_value = {v: int(rng.integers(0, 1000)) for v in range(h.n_vertices)}

        # machine state: best value per *cluster of origin* seen so far
        known = [dict() for _ in range(comm.n)]
        for m in range(comm.n):
            known[m][h.assignment[m]] = machine_value[h.assignment[m]]

        sim = MachineSimulator(comm, bandwidth_bits=64)

        def step(machine, rnd, inbox):
            for msg in inbox:
                src_cluster, value = msg.payload
                if value > known[machine].get(src_cluster, -1):
                    known[machine][src_cluster] = value
            out = []
            for nbr in comm.neighbors(machine):
                best = max(known[machine].values())
                origin = max(known[machine], key=lambda c: known[machine][c])
                out.append((nbr, (origin, best), 32))
            return out

        rounds = 2 * h.dilation + 2
        sim.run(step, rounds=rounds)

        for v in range(h.n_vertices):
            leader = h.leader(v)
            wire_max = max(known[leader].values())
            central_max = max(
                machine_value[u] for u in list(h.neighbors(v)) + [v]
            )
            assert wire_max == central_max

    def test_wire_rounds_within_charged_budget(self):
        """The cluster-level BFS charge (O(depth) H-rounds, each worth
        O(dilation) G-rounds) must cover a real flooding execution."""
        h = _small_cluster_graph()
        runtime = make_runtime(h)
        before_g = runtime.ledger.rounds_g
        (tree,) = bfs_forest(runtime, [(0, [0, 1, 2])])
        charged_g = runtime.ledger.rounds_g - before_g
        # actual BFS depth on H is 2 (0 -> 1 -> 2 or 0 -> 2 direct = 1);
        # wire cost <= depth * dilation; the charge must be >= 1 H-round
        # worth of G-rounds and cover depth * dilation
        assert charged_g >= tree.height * 1
        assert charged_g >= h.dilation


class TestBatchedTryColorOnWire:
    def test_batched_resolution_matches_wire_execution(self):
        """One TryColor round (Algorithm 17), executed faithfully on the
        wire: every cluster floods its proposal and current color along
        support trees + one inter-cluster hop; each leader then applies the
        step-4 rule from what reached it.  The set of adopters must equal
        what the batched CSR kernel (resolve_proposals) computes."""
        from repro.coloring.try_color import resolve_proposals
        from repro.coloring.types import UNCOLORED, PartialColoring
        from tests.conftest import make_runtime

        h = _small_cluster_graph()
        comm = h.comm
        rng = np.random.default_rng(3)
        num_colors = h.max_degree + 1
        coloring = PartialColoring.empty(h.n_vertices, num_colors)
        coloring.assign(0, 1)  # one pre-colored cluster constrains the rest
        proposals = {1: 1, 2: int(rng.integers(0, num_colors))}

        # wire state: per machine, what it knows per origin cluster:
        # (proposal or None, current color or UNCOLORED)
        known = [dict() for _ in range(comm.n)]
        for m in range(comm.n):
            c = h.assignment[m]
            known[m][c] = (proposals.get(c), int(coloring.colors[c]))

        # one message per link per round: bundle the per-origin knowledge
        # (a pipelined O(vertices * log) payload, like the palette bitmaps)
        sim = MachineSimulator(comm, bandwidth_bits=32 * h.n_vertices)

        def step(machine, rnd, inbox):
            for msg in inbox:
                for origin, payload in msg.payload:
                    known[machine].setdefault(origin, payload)
            bundle = tuple(known[machine].items())
            return [
                (int(nbr), bundle, 32 * len(bundle))
                for nbr in comm.neighbors(machine)
            ]

        sim.run(step, rounds=2 * h.dilation + 2)

        wire_adopted = []
        for v, c in proposals.items():
            leader = h.leader(v)
            blocked = False
            for u in h.neighbors(v):
                u_proposal, u_color = known[leader][u]
                if u_color != UNCOLORED and u_color == c:
                    blocked = True
                elif u_proposal == c and u < v:
                    blocked = True
            if not blocked:
                wire_adopted.append(v)

        runtime = make_runtime(h)
        batched = resolve_proposals(
            runtime, coloring, list(proposals), list(proposals.values())
        ).tolist()
        assert batched == wire_adopted
        for v in batched:
            assert int(coloring.colors[v]) == proposals[v]

    def test_batched_matches_legacy_per_vertex_loop(self):
        """The batched kernel path must reproduce the legacy per-vertex
        resolution exactly (both rules) on random states."""
        from repro.coloring.try_color import resolve_proposals
        from repro.coloring.types import UNCOLORED, PartialColoring
        from tests.conftest import make_runtime

        h = _small_cluster_graph()
        for seed in range(25):
            rng = np.random.default_rng(seed)
            for symmetric in (False, True):
                num_colors = h.max_degree + 1
                colors = rng.integers(-1, num_colors, size=h.n_vertices)
                proposals = {
                    v: int(rng.integers(0, num_colors))
                    for v in range(h.n_vertices)
                    if colors[v] == UNCOLORED and rng.random() < 0.7
                }
                proposal_arr = np.full(h.n_vertices, -2, dtype=np.int64)
                for v, c in proposals.items():
                    proposal_arr[v] = c
                legacy = []
                for v, c in proposals.items():
                    nbrs = np.asarray(h.adj[v], dtype=np.int64)
                    if nbrs.size:
                        if (colors[nbrs] == c).any():
                            continue
                        same = proposal_arr[nbrs] == c
                        if symmetric and same.any():
                            continue
                        if not symmetric and (same & (nbrs < v)).any():
                            continue
                    legacy.append(v)
                coloring = PartialColoring(
                    num_colors=num_colors, colors=colors.astype(np.int64).copy()
                )
                runtime = make_runtime(h)
                got = resolve_proposals(
                    runtime,
                    coloring,
                    list(proposals),
                    list(proposals.values()),
                    symmetric=symmetric,
                )
                assert got.tolist() == legacy


class TestBandwidthRealism:
    def test_charged_widths_fit_on_wire(self):
        """Any message the ledger accepted un-pipelined must transmit in one
        machine-level round."""
        h = _small_cluster_graph()
        runtime = make_runtime(h)
        runtime.h_rounds("probe", count=1)
        cap = runtime.ledger.bandwidth_bits
        sim = MachineSimulator(h.comm, bandwidth_bits=cap)
        # a cap-width message crosses any single link fine
        sim.run_round(
            lambda m, r, i: [(h.comm.neighbors(m)[0], "payload", cap)]
            if m == 0
            else []
        )
        assert runtime.ledger.max_message_bits <= cap
