"""Ground-truth validation of colorings, decompositions and model compliance."""

from repro.verify.checker import (
    check_acd,
    check_colorful_matching,
    check_put_aside,
    invariant_problem,
    is_proper,
    violations,
)

__all__ = [
    "check_acd",
    "check_colorful_matching",
    "check_put_aside",
    "invariant_problem",
    "is_proper",
    "violations",
]
