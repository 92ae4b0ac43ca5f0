"""Instance generators with planted ground truth (docs/ARCHITECTURE.md).

Importing this package registers both the static families
(:mod:`repro.workloads.generators`) and the churn streams
(:mod:`repro.workloads.streams`) in the shared ``GENERATORS`` registry, so
every surface -- CLI listings, sweeps, the stream runner -- resolves
workload names through the same table.
"""

from repro.workloads.generators import (
    GENERATORS,
    Workload,
    bridge_pathology,
    cabal_instance,
    congest_instance,
    contraction_instance,
    figure1_example,
    high_degree_instance,
    low_degree_instance,
    planted_acd_instance,
    voronoi_instance,
)
from repro.workloads.specs import (
    PARAM_SPECS,
    ParamSpec,
    clamp_params,
    fuzzable_params,
    validate_params,
)
from repro.workloads.streams import (
    STREAMS,
    StreamWorkload,
    cluster_churn_stream,
    hotspot_churn_stream,
    sliding_window_stream,
)

__all__ = [
    "GENERATORS",
    "PARAM_SPECS",
    "ParamSpec",
    "STREAMS",
    "clamp_params",
    "fuzzable_params",
    "validate_params",
    "StreamWorkload",
    "Workload",
    "cluster_churn_stream",
    "hotspot_churn_stream",
    "sliding_window_stream",
    "bridge_pathology",
    "cabal_instance",
    "congest_instance",
    "contraction_instance",
    "figure1_example",
    "high_degree_instance",
    "low_degree_instance",
    "planted_acd_instance",
    "voronoi_instance",
]
