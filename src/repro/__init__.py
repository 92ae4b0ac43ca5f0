"""repro: a reproduction of "Decentralized Distributed Graph Coloring:
Cluster Graphs" (Flin, Halldorsson, Nolin; PODC 2025, arXiv:2405.07725).

Public API highlights
---------------------

* :func:`repro.color_cluster_graph` -- the end-to-end (Delta+1)-coloring
  pipeline of Theorems 1.1/1.2.
* :mod:`repro.cluster` -- cluster graphs (Definition 3.1), builders, virtual
  graphs (Appendix A).
* :mod:`repro.sketch` -- fingerprinting (Section 5).
* :mod:`repro.baselines` -- greedy, Luby-style, and palette-sparsification
  comparators.
* :mod:`repro.verify` -- proper-coloring checkers and the palette and
  link-budget check behind every run's ``proper`` flag.
"""

from repro.params import AlgorithmParameters, DEFAULT, log_star, paper, scaled

__version__ = "1.0.0"

__all__ = [
    "AlgorithmParameters",
    "DEFAULT",
    "log_star",
    "paper",
    "scaled",
    "color_cluster_graph",
    "__version__",
]


def color_cluster_graph(*args, **kwargs):
    """Convenience entry point; see :func:`repro.coloring.pipeline.color_cluster_graph`."""
    from repro.coloring.pipeline import color_cluster_graph as _impl

    return _impl(*args, **kwargs)
