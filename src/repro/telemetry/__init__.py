"""End-to-end telemetry: counters, spans, progress, snapshots.

The observability substrate of the engine (ROADMAP items 1–2 report
through it): per-run counter structs sampled by the simulation layer
(:class:`RunMetrics`), frozen campaign snapshots of counters, gauges
and the steps histogram (:mod:`repro.telemetry.registry`), monotonic
span timers with a JSONL trace sink (:mod:`repro.telemetry.spans`), and
live progress lines off the streaming result hook
(:mod:`repro.telemetry.progress`).

Design contract: telemetry is RNG-neutral and estimate-neutral (it can
never change an outcome), zero-overhead when disabled (plain integer
increments on hot paths; spans collapse to a shared no-op), and
fan-out-invariant (per-run samples merge by addition through the
existing executor result path).
"""

from .._exports import lazy_exports

_EXPORTS = {
    "MetricsSnapshot": "registry",
    "ProgressReporter": "progress",
    "RunMetrics": "registry",
    "TraceSink": "spans",
    "disable_tracing": "spans",
    "enable_tracing": "spans",
    "fold_run_metrics": "registry",
    "span": "spans",
    "tracing_enabled": "spans",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
