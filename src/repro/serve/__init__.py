"""Always-on coloring service: trace replay driver + SLO evaluation.

:mod:`repro.serve.driver` replays open-loop update traces against a live
:class:`~repro.dynamic.engine.DynamicColoring` on a virtual clock;
:mod:`repro.serve.slo` declares and checks service-level objectives over
the collected metrics.  See docs/SERVICE.md.
"""

from repro.serve.driver import (
    ColoringService,
    ServiceEntry,
    run_service,
)
from repro.serve.slo import (
    DEFAULT_SLOS,
    SLOReport,
    SLOResult,
    SLOTarget,
    evaluate_slos,
    parse_slo,
    render_slo_report,
)

__all__ = [
    "ColoringService",
    "DEFAULT_SLOS",
    "SLOReport",
    "SLOResult",
    "SLOTarget",
    "ServiceEntry",
    "evaluate_slos",
    "parse_slo",
    "render_slo_report",
    "run_service",
]
