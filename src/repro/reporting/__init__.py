"""Rendering of result tables, figure series and perf-trend reports."""

from .._exports import lazy_exports

_EXPORTS = {
    "collect_trends": "trends",
    "find_regressions": "trends",
    "format_quantity": "tables",
    "load_baseline": "trends",
    "render_failure_manifest": "tables",
    "render_series_table": "tables",
    "render_table": "tables",
    "render_trend_table": "trends",
    "trend_report": "trends",
    "write_baseline": "trends",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
