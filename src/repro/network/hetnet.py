"""Heterogeneous network model: per-link speeds and simulated-time makespan.

The paper (and the :class:`~repro.network.ledger.BandwidthLedger`) treats
every link of ``G`` as identical: a round is a round.  Real clusters are
not like that -- machines come in types, links have bandwidth and latency,
and a fraction of links is simply slow (the cluster-generator idiom of
Helix-style simulators: node-type percentages plus link statistics with a
``fill_with_slow_link`` fraction).  This module adds that layer *after*
the run:

* :class:`HetNetSpec` -- the distribution knobs (bandwidth skew and
  slow-link fill fraction, over the standard link of
  :data:`BASE_BANDWIDTH_MBPS` / :data:`BASE_LATENCY_MS`), carried by a
  workload's sampled model when its generator was asked for
  ``net_skew`` / ``net_fill``;
* :class:`HetNetModel` -- a concrete sampled fabric: a machine type per
  node and a bandwidth/latency per G-link, drawn deterministically from a
  generator spawned off the workload RNG (spawning consumes no draws, so
  the sampled graph is bit-identical with or without the model);
* pricing -- a run leaves a histogram of effective H-rounds per capped
  message width on its ledger (``BandwidthLedger.rounds_by_width``);
  every round of width ``w`` costs ``envelope(w)`` milliseconds, where
  ``envelope`` is the upper envelope of one affine line ``A + B*w`` per
  *element*:

  - one line per support-tree **root path** (machine ``m`` of cluster
    ``c``): ``A`` = summed latency, ``B`` = summed inverse bandwidth along
    root->m -- a broadcast-and-aggregate round completes when its slowest
    root path does, so stragglers and deep trees surface here;
  - one line per **H-edge designated link** (the first realizing G-link,
    the one the inter-cluster computation step pays).

  The active envelope segment names the element the round waited on;
  per-element time makes ``critical_link`` a measurement, not a guess.

The model is priced *after* a run and never enters it: the algorithms,
the runtime and the ledger do not know it exists, so a run on a sampled
fabric is the same run as on the homogeneous one, and its price is a
pure function of the histogram.  See docs/NETWORK.md.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BASE_BANDWIDTH_MBPS",
    "BASE_LATENCY_MS",
    "HetNetModel",
    "HetNetSpec",
]

#: Capacity of a ``standard`` link, in Mbit/s.
BASE_BANDWIDTH_MBPS = 100.0

#: Per-hop propagation delay of a ``standard`` link, in ms.
BASE_LATENCY_MS = 0.1


@dataclass(frozen=True)
class HetNetSpec:
    """Distribution knobs for sampling a heterogeneous fabric.

    Parameters
    ----------
    skew:
        Bandwidth ratio standard:slow (``>= 1``).  ``1.0`` is the
        homogeneous fabric -- every link identical, makespan degenerates to
        a constant multiple of effective rounds.
    fill:
        Fraction of machines typed ``slow`` (the ``fill_with_slow_link``
        idiom: a link is slow when either endpoint is).

    A ``standard`` link has :data:`BASE_BANDWIDTH_MBPS` and
    :data:`BASE_LATENCY_MS`; a ``slow`` link divides that bandwidth by
    ``skew`` and multiplies that latency by ``skew``.
    """

    skew: float = 1.0
    fill: float = 0.1

    def __post_init__(self) -> None:
        # written so that NaN fails each test
        if not self.skew >= 1.0:
            raise ValueError(f"skew must be >= 1, got {self.skew:g}")
        if not 0.0 <= self.fill <= 1.0:
            raise ValueError(f"fill must be in [0, 1], got {self.fill:g}")


def _mbps_to_bits_per_ms(mbps: np.ndarray | float) -> np.ndarray | float:
    """Mbit/s -> bits/ms (the unit transfer times are computed in)."""
    return mbps * 1e3


@dataclass(frozen=True)
class HetNetModel:
    """A sampled fabric: the immutable pricer of round histograms.

    Construction paths:

    * :meth:`sample` -- draw machine types and per-link statistics from a
      :class:`HetNetSpec` (the workload path);
    * :meth:`from_links` -- explicit per-link arrays (the property-test
      path: monotonicity and degeneracy tests build exact fabrics).

    A run never sees the model.  Its ledger counts effective H-rounds per
    capped width (``BandwidthLedger.rounds_by_width``), a sufficient
    statistic for the price: :meth:`price` turns that histogram into the
    run's ``makespan_ms`` and ``critical_link`` afterwards.  Histograms are
    integers, so one folded from sub-runs (``BandwidthLedger.absorb``) is
    exactly the unsplit one, and so is its price.
    """

    #: Machine type index per node (0 = standard, 1 = slow).
    machine_type: np.ndarray
    #: Per-G-link arrays, indexed like ``CommGraph.link_arrays()``.
    link_bandwidth_mbps: np.ndarray
    link_latency_ms: np.ndarray
    #: Affine time lines ``A + B*w`` (ms, ms/bit) per element.
    line_a: np.ndarray
    line_b: np.ndarray
    #: Human-readable element names, aligned with the line arrays.
    element_names: list[str]
    #: The spec this fabric was sampled from (None for explicit fabrics).
    spec: HetNetSpec | None = None

    def __post_init__(self) -> None:
        if not (
            self.line_a.size == self.line_b.size == len(self.element_names)
        ):
            raise ValueError("line arrays and element names disagree in length")

    # ---- construction --------------------------------------------------------

    @classmethod
    def sample(cls, graph, spec: HetNetSpec, rng: np.random.Generator) -> "HetNetModel":
        """Draw a fabric for ``graph`` (a ClusterGraph) from ``spec``.

        ``rng`` must be dedicated to the fabric -- callers spawn it off the
        workload generator's RNG (``rng.spawn(1)[0]``), which perturbs no
        existing stream.  Identical ``(graph, spec, rng seed)`` always
        yields identical arrays (pinned by the determinism tests).
        """
        comm = graph.comm
        machine_type = (rng.random(comm.n) < spec.fill).astype(np.int8)
        link_u, link_v = comm.link_arrays()
        link_slow = (machine_type[link_u] | machine_type[link_v]).astype(bool)
        bandwidth = np.where(
            link_slow, BASE_BANDWIDTH_MBPS / spec.skew, BASE_BANDWIDTH_MBPS
        ).astype(np.float64)
        latency = np.where(
            link_slow, BASE_LATENCY_MS * spec.skew, BASE_LATENCY_MS
        ).astype(np.float64)
        return cls.from_links(
            graph, bandwidth, latency, machine_type=machine_type, spec=spec
        )

    @classmethod
    def from_links(
        cls,
        graph,
        bandwidth_mbps: np.ndarray,
        latency_ms: np.ndarray,
        *,
        machine_type: np.ndarray | None = None,
        spec: HetNetSpec | None = None,
    ) -> "HetNetModel":
        """Build the time lines for explicit per-link arrays.

        ``bandwidth_mbps`` / ``latency_ms`` are indexed like
        ``graph.comm.link_arrays()``.  One line per non-root machine of
        every support tree (root-path sums) and one per H-edge designated
        realizing link.
        """
        comm = graph.comm
        bandwidth_mbps = np.asarray(bandwidth_mbps, dtype=np.float64)
        latency_ms = np.asarray(latency_ms, dtype=np.float64)
        if bandwidth_mbps.size != comm.num_links or latency_ms.size != comm.num_links:
            raise ValueError(
                f"per-link arrays cover {bandwidth_mbps.size}/{latency_ms.size} "
                f"links; G has {comm.num_links}"
            )
        if (bandwidth_mbps <= 0).any() or (latency_ms < 0).any():
            raise ValueError("bandwidth must be positive, latency >= 0")
        inv_bw = 1.0 / np.asarray(
            _mbps_to_bits_per_ms(bandwidth_mbps), dtype=np.float64
        )
        # support-tree root paths: prefix sums down each tree, one depth
        # level at a time (a parent is one level above its children); the
        # lines follow the trees' BFS discovery order, roots skipped
        forest = graph.forest
        nodes = forest.order[forest.depth[forest.order] > 0]
        parents = forest.parent[nodes]
        depths = forest.depth[nodes]
        idx = comm.link_indices(nodes, parents)
        path_a = np.zeros(comm.n, dtype=np.float64)
        path_b = np.zeros(comm.n, dtype=np.float64)
        for level in range(1, int(depths.max(initial=0)) + 1):
            at = depths == level
            path_a[nodes[at]] = path_a[parents[at]] + latency_ms[idx[at]]
            path_b[nodes[at]] = path_b[parents[at]] + inv_bw[idx[at]]
        line_a = path_a[nodes].tolist()
        line_b = path_b[nodes].tolist()
        names = [
            f"tree[{cluster}] root->{machine}"
            for cluster, machine in zip(
                graph.assignment[nodes].tolist(), nodes.tolist()
            )
        ]
        # H-edge designated links: the first realizing G-link, the one the
        # inter-cluster computation step of every H-round pays
        u, v, gu, gv = graph.realizing_links()
        first = np.ones(u.size, dtype=bool)
        first[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
        u, v, gu, gv = (col[first] for col in (u, v, gu, gv))
        idx = comm.link_indices(gu, gv)
        line_a += latency_ms[idx].tolist()
        line_b += inv_bw[idx].tolist()
        names += [
            f"link[{a}-{b}] via {x}-{y}"
            for a, b, x, y in zip(u.tolist(), v.tolist(), gu.tolist(), gv.tolist())
        ]
        if not names:  # single isolated cluster of one machine: no links
            line_a, line_b, names = [0.0], [0.0], ["(no links)"]
        if machine_type is None:
            machine_type = np.zeros(comm.n, dtype=np.int8)
        return cls(
            machine_type=np.asarray(machine_type, dtype=np.int8),
            link_bandwidth_mbps=bandwidth_mbps,
            link_latency_ms=latency_ms,
            line_a=np.asarray(line_a, dtype=np.float64),
            line_b=np.asarray(line_b, dtype=np.float64),
            element_names=names,
            spec=spec,
        )

    # ---- pricing -----------------------------------------------------------

    def element_times_ms(self, rounds_by_width: Mapping[int, int]) -> np.ndarray:
        """Simulated milliseconds per element for a round histogram.

        ``rounds_by_width`` maps a capped message width to the effective
        H-rounds charged at it.  A round of width ``w`` lasts
        ``envelope(w)`` and is booked on the element attaining it (ties go
        to the lowest index), so the array sums to the makespan.  Widths
        are visited in order, so equal histograms price bitwise equal.
        """
        times = np.zeros(self.line_a.size, dtype=np.float64)
        for width, rounds in sorted(rounds_by_width.items()):
            lines = self.line_a + self.line_b * float(width)
            idx = int(np.argmax(lines))
            times[idx] += float(lines[idx]) * rounds
        return times

    def price(self, rounds_by_width: Mapping[int, int]) -> dict[str, object]:
        """``{"makespan_ms", "critical_link"}`` of a round histogram: the
        simulated wall-clock total (rounded to 6 decimals) and the element
        that took the most of it -- the two record metrics of a run on
        this fabric."""
        times = self.element_times_ms(rounds_by_width)
        return {
            "makespan_ms": round(float(times.sum()), 6),
            "critical_link": self.element_names[int(np.argmax(times))],
        }

    def element_times(
        self, rounds_by_width: Mapping[int, int], top: int = 5
    ) -> list[tuple[str, float]]:
        """The ``top`` slowest elements of a round histogram as
        ``(name, ms)``, descending (ties in element order, so the first is
        :meth:`price`'s ``critical_link``), only those with any time."""
        times = self.element_times_ms(rounds_by_width)
        order = np.argsort(-times, kind="stable")[:top]
        return [
            (self.element_names[i], float(times[i]))
            for i in order.tolist()
            if times[i] > 0
        ]

    @property
    def n_slow_machines(self) -> int:
        """Number of machines typed ``slow`` in the sampled fabric."""
        return int(self.machine_type.sum())
