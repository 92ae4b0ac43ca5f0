"""Cluster-graph formalism: Definition 3.1, support trees, builders, virtual graphs."""

from repro.cluster.cluster_graph import ClusterGraph
from repro.cluster.support_tree import SupportForest, SupportTree, build_forest
from repro.cluster.builders import blowup, contraction_clusters, voronoi_clusters
from repro.cluster.virtual_graph import (
    VirtualGraph,
    distance2_virtual_graph,
    power_graph_degree_bound,
)

__all__ = [
    "ClusterGraph",
    "SupportForest",
    "SupportTree",
    "build_forest",
    "blowup",
    "contraction_clusters",
    "voronoi_clusters",
    "VirtualGraph",
    "distance2_virtual_graph",
    "power_graph_degree_bound",
]
