"""Fingerprinting and pseudo-random tools (Section 5, Appendix C)."""

from repro.sketch.geometric import (
    DEFAULT_LAMBDA,
    EMPTY_MAX,
    argmax_with_uniqueness,
    geometric_half_from_uniform,
    merge_maxima,
    non_unique_max_bound,
    prob_max_below,
    sample_geometric,
    sample_geometric_half,
    sample_max_of_geometrics,
    sample_max_of_geometrics_batch,
)
from repro.sketch.fingerprint import (
    Fingerprint,
    FingerprintTable,
    batch_count_estimates,
    direct_count_fingerprint,
    estimate_cardinality,
    failure_probability_bound,
    trials_for,
)
from repro.sketch.encoding import (
    best_baseline,
    decode_maxima,
    encode_maxima,
    encoded_size_bits,
)
from repro.sketch.minwise import MinwiseHash, sample_minwise
from repro.sketch.representative import RepresentativeFamily, RepresentativeSet
from repro.sketch.streaming import (
    UnionPlanes,
    estimates_from_counts,
    fused_topk_counts,
    threshold_index,
)

__all__ = [
    "DEFAULT_LAMBDA",
    "EMPTY_MAX",
    "argmax_with_uniqueness",
    "geometric_half_from_uniform",
    "merge_maxima",
    "non_unique_max_bound",
    "prob_max_below",
    "sample_geometric",
    "sample_geometric_half",
    "sample_max_of_geometrics",
    "sample_max_of_geometrics_batch",
    "Fingerprint",
    "FingerprintTable",
    "batch_count_estimates",
    "direct_count_fingerprint",
    "estimate_cardinality",
    "failure_probability_bound",
    "trials_for",
    "best_baseline",
    "decode_maxima",
    "encode_maxima",
    "encoded_size_bits",
    "MinwiseHash",
    "sample_minwise",
    "RepresentativeFamily",
    "RepresentativeSet",
    "UnionPlanes",
    "estimates_from_counts",
    "fused_topk_counts",
    "threshold_index",
]
