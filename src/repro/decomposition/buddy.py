"""The distributed buddy predicate (Lemma 5.8).

For each H-edge, the incident machines must decide:

* YES if ``|N(u) ∩ N(v)| >= (1 - xi) Delta``;
* NO  if ``|N(u) ∩ N(v)| <  (1 - 2 xi) Delta``;
* anything in between.

The trick of Lemma 5.8: intersections are not aggregatable, but *unions*
are -- ``Y^{uv} = max(Y^u, Y^v)`` is the fingerprint of ``N(u) ∪ N(v)``
because max tolerates overlap.  Combined with degree estimates,
``|N ∩| = deg(u) + deg(v) - |N ∪|`` separates the two cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.aggregation.runtime import ClusterRuntime
from repro.graphcore import kernels
from repro.sketch.fingerprint import FingerprintTable
from repro.sketch.streaming import UnionPlanes, neighborhood_planes


@dataclass
class BuddyResult:
    """Per-edge YES/NO answers plus the degree estimates (reused by the
    ACD construction so the same randomness serves both phases, as in the
    paper's single pass).

    ``yes_u``/``yes_v`` hold the YES edges as parallel int64 arrays with
    ``u < v`` in lexicographic order -- the form the vectorized ACD steps
    consume.
    """

    yes_u: np.ndarray
    yes_v: np.ndarray
    degree_estimates: np.ndarray
    trials: int

    def yes_edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """YES edges as parallel ``(u, v)`` arrays."""
        return self.yes_u, self.yes_v


def buddy_predicate(
    runtime: ClusterRuntime, xi: float, *, op: str = "buddy"
) -> BuddyResult:
    """Solve the ``xi``-buddy predicate on every H-edge (Lemma 5.8).

    Cost: ``O(xi^-2)`` rounds -- one degree-estimation fingerprint pass, one
    neighborhood-fingerprint pass, one link exchange of encoded maxima.
    """
    graph = runtime.graph
    n_v = graph.n_vertices
    delta = graph.max_degree
    trials = runtime.params.fingerprint_trials(runtime.n, max(xi / 2.0, 1e-3))
    tracer = runtime.tracer
    # sub-span names are the op in the tracer's dotted form: compute_acd's
    # "acd_buddy" op runs inside its "acd.buddy" span
    span = op.replace("_", ".")

    with tracer.span(span + ".draw"):
        table = FingerprintTable(n_v, trials, runtime.rng)
    # The neighborhood maxima exist only as their threshold planes
    # [M_v < k], ORed from the neighbors' own planes over the few levels
    # the probes read; their popcounts give the per-row (K*, Z) that serve
    # both the degree estimates and the union probes.
    with tracer.span(span + ".maxima"):
        stack, first = neighborhood_planes(graph.csr, table.rows)
        del table  # no later step reads the draws, only their planes
    with tracer.span(span + ".planes"):
        planes = UnionPlanes(stack, first, trials, graph.csr.degrees == 0)
        del stack  # UnionPlanes holds only the kept levels
        degree_estimates = planes.row_estimates()
    # Charge: fingerprint convergecast + broadcast (pipelined wide messages).
    bits = 2 * trials + 16
    runtime.wide_message(op + "_degree", bits)
    runtime.wide_message(op + "_nbhd", bits)
    runtime.wide_message(op + "_exchange", bits, depth=1)

    # Vertices whose estimated degree is clearly below Delta answer NO to all
    # incident edges: they cannot carry friendly edges (Lemma 5.8 first step).
    low_degree = degree_estimates < (1 - 2.0 * xi) * delta
    threshold = (1 - 1.5 * xi) * delta

    edge_u, edge_v = graph.csr.edge_arrays()
    yes = [np.empty(0, dtype=np.int64)]
    with tracer.span(span + ".probes") as probes:
        probes.counter("pairs", int(edge_u.size))
        # |N(u) ∩ N(v)| = deg(u) + deg(v) - |N(u) ∪ N(v)|, every term
        # estimated by a fingerprint; accept when the intersection clears
        # the midpoint between the YES ((1-xi)Delta) and NO ((1-2xi)Delta)
        # cases.  The union term runs on the packed bit-plane index:
        # per-edge union order statistics from ANDed plane popcounts, so
        # nothing of size (edges x trials) is ever materialized (see
        # docs/ESTIMATORS.md).  Edges go in blocks, and a block keeps only
        # the positions of its YES edges: every answer is its edge's own.
        block = kernels._GATHER_CHUNK
        for start in range(0, edge_u.size, block):
            eu = edge_u[start : start + block]
            ev = edge_v[start : start + block]
            union_estimates = planes.union_estimates(eu, ev)
            intersections = (
                degree_estimates[eu] + degree_estimates[ev]
            ) - union_estimates
            accept = intersections >= threshold
            accept &= ~(low_degree[eu] | low_degree[ev])
            yes.append(np.flatnonzero(accept) + start)
    yes = np.concatenate(yes)
    yes_u, yes_v = edge_u[yes], edge_v[yes]
    return BuddyResult(
        yes_u=yes_u,
        yes_v=yes_v,
        degree_estimates=degree_estimates,
        trials=trials,
    )
