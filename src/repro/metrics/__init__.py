"""Statistics helpers for simulation output."""

from .._exports import lazy_exports

_EXPORTS = {
    "CensoredSummary": "stats",
    "SummaryStats": "stats",
    "Z_95": "stats",
    "kaplan_meier": "stats",
    "km_restricted_mean": "stats",
    "summarize": "stats",
    "summarize_censored": "stats",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
