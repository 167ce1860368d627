"""Discrete-event simulation kernel: clock, events, processes, RNG
streams, event tracing."""

from .._exports import lazy_exports

_EXPORTS = {
    "Event": "engine",
    "Simulator": "engine",
    "ProcessState": "process",
    "SimProcess": "process",
    "RngRegistry": "rng",
    "derive_seed": "rng",
    "TraceEvent": "trace",
    "TraceRecorder": "trace",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
