"""Cost-guided pathological-instance fuzzing (docs/FUZZING.md).

Hunts the instances where the pipeline's round/bit/wall-time behavior
degrades: typed mutators perturb generator parameters inside registered
bounds (:mod:`repro.workloads.specs`), a time-boxed loop scores each
candidate through the ordinary ``run_cell`` path against a baseline
corpus, finds are greedily minimized, and the corpus records every find
as a fully reproducible JSON entry that can be promoted into the pinned
``pathology`` suite -- turning each discovered blow-up into a permanent
regression test under sweep/compare.
"""

from repro.fuzz.corpus import (
    CORPUS_DIR,
    load_entries,
    load_entry,
    make_entry,
    promote_entry,
    replay_entry,
    resolve_entry,
    save_entry,
)
from repro.fuzz.loop import DEFAULT_BASES, FuzzConfig, FuzzReport, run_fuzz
from repro.fuzz.minimize import minimize_find, normalized, param_weight
from repro.fuzz.mutators import MUTATORS, mutate, splice
from repro.fuzz.objectives import METRIC_OBJECTIVES, Objective, get_objective, score_record

__all__ = [
    "CORPUS_DIR",
    "DEFAULT_BASES",
    "FuzzConfig",
    "FuzzReport",
    "METRIC_OBJECTIVES",
    "MUTATORS",
    "Objective",
    "get_objective",
    "load_entries",
    "load_entry",
    "make_entry",
    "minimize_find",
    "mutate",
    "normalized",
    "param_weight",
    "promote_entry",
    "replay_entry",
    "resolve_entry",
    "run_fuzz",
    "save_entry",
    "score_record",
    "splice",
]
