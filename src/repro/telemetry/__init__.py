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

from .progress import ProgressReporter
from .registry import MetricsSnapshot, RunMetrics, fold_run_metrics
from .spans import (
    TraceSink,
    disable_tracing,
    enable_tracing,
    span,
    tracing_enabled,
)

__all__ = [
    "MetricsSnapshot",
    "ProgressReporter",
    "RunMetrics",
    "TraceSink",
    "disable_tracing",
    "enable_tracing",
    "fold_run_metrics",
    "span",
    "tracing_enabled",
]
