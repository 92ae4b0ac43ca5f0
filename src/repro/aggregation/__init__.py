"""Aggregation primitives of Section 3.3 with cost accounting."""

from repro.aggregation.runtime import ClusterRuntime
from repro.aggregation.bfs import HTree, bfs_forest
from repro.aggregation.groups import RandomGroups, random_groups

__all__ = [
    "ClusterRuntime",
    "HTree",
    "bfs_forest",
    "RandomGroups",
    "random_groups",
]
