"""Output checks: every timed operation is verified before it counts.

A check returns a list of problems (empty when the output is correct); the
harness counts an operation with any problem as failed.  The checks use the
program's ground-truth checkers on the outputs the operation returned, and
a digest pins each output so that repeats, and the traced run, must agree
exactly.
"""

from __future__ import annotations

import hashlib

import numpy as np


def digest(*parts) -> str:
    """Short stable hash of arrays and scalars."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=np.int64).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()[:16]


def graph_digest(graph) -> str:
    """Digest of a cluster graph's structure: same seed, same instance."""
    return digest(
        graph.csr.indptr, graph.csr.indices, np.asarray(graph.assignment)
    )


def coloring_digest(colors, ledger_summary: dict) -> str:
    """Digest of one coloring and the ledger totals that produced it."""
    return digest(
        np.asarray(colors),
        ledger_summary["rounds_h"],
        ledger_summary["total_message_bits"],
    )


def check_coloring(graph, colors, ledger_summary: dict, bandwidth_bits: int) -> list[str]:
    """A one-shot coloring must be proper, use colors ``0..Δ`` only, and
    never put more than ``bandwidth_bits`` bits on a link in a round."""
    from repro.verify.checker import is_proper

    colors = np.asarray(colors)
    problems = []
    if colors.size != graph.n_vertices:
        problems.append(f"{colors.size} colors for {graph.n_vertices} vertices")
    elif not is_proper(graph, colors):
        problems.append("coloring is not proper")
    palette = graph.max_degree + 1
    if colors.size and (colors.min() < 0 or colors.max() >= palette):
        problems.append(f"colors outside the Δ+1 palette [0, {palette})")
    widest = ledger_summary["max_message_bits"]
    if widest > bandwidth_bits:
        problems.append(f"message of {widest} bits exceeds {bandwidth_bits}")
    return problems


def check_batch(report) -> list[str]:
    """One applied stream batch must end checker-proper."""
    return [] if report.proper else [f"batch {report.batch_index} left a monochromatic edge"]


def check_stream(engine) -> list[str]:
    """After a whole stream: live vertices colored inside the Δ+1 palette,
    no monochromatic edge, and the stream ledger within its bandwidth."""
    from repro.graphcore import is_proper_edges

    problems = []
    alive = engine.delta.alive_mask
    live = engine.colors[alive]
    palette = engine.delta.max_degree + 1
    if live.size and (live.min() < 0 or live.max() >= palette):
        problems.append(f"colors outside the Δ+1 palette [0, {palette})")
    edge_u, edge_v = engine.delta.edge_arrays()
    if not is_proper_edges(edge_u, edge_v, engine.colors):
        problems.append("stream coloring is not proper")
    ledger = engine.ledger
    if ledger.max_message_bits > ledger.bandwidth_bits:
        problems.append(
            f"message of {ledger.max_message_bits} bits exceeds {ledger.bandwidth_bits}"
        )
    return problems
