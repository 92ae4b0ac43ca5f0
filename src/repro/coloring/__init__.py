"""The (Δ+1)-coloring engine: Sections 4, 6, 7, 8, 9 of the paper.

The engine symbols (``color_cluster_graph`` and friends) are exported
lazily (PEP 562): the engine imports :mod:`repro.decomposition`, which in
turn reaches :mod:`repro.aggregation` and -- through the shared
``PartialColoring`` vocabulary in :mod:`repro.coloring.types` -- back into
this package.  Resolving the pipeline on first attribute access instead of
at package-import time keeps that cycle open: importing *any* ``repro.*``
package first (including ``repro.decomposition``) now works in isolation
(``tests/test_imports.py`` pins this).
"""

from repro.coloring.types import UNCOLORED, CliquePaletteView, PartialColoring
from repro.coloring.errors import StageFailure
from repro.coloring.stats import ColoringResult, ColoringStats

#: Engine symbols resolved on first access: name -> (module, attribute).
_LAZY_EXPORTS = {
    "color_cluster_graph": ("repro.coloring.pipeline", "color_cluster_graph"),
    "fallback_color": ("repro.coloring.pipeline", "fallback_color"),
    "color_polylog": ("repro.coloring.polylog", "color_polylog"),
    "find_relays": ("repro.coloring.relays", "find_relays"),
}

__all__ = [
    "UNCOLORED",
    "CliquePaletteView",
    "PartialColoring",
    "StageFailure",
    "ColoringResult",
    "ColoringStats",
    "color_cluster_graph",
    "fallback_color",
    "color_polylog",
    "find_relays",
]


def __getattr__(name: str):
    """Resolve an engine symbol on first access (PEP 562 lazy export)."""
    try:
        module_name, attr = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value  # cache: __getattr__ only fires on misses
    return value

