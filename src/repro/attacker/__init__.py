"""Attack substrate: key tracking, probe streams, campaign orchestration."""

from .._exports import lazy_exports

_EXPORTS = {
    "AttackerProcess": "agent",
    "IndirectProber": "driver",
    "ProbeDriver": "driver",
    "KeyGuessTracker": "keytracker",
    "connection_probe": "probe",
    "is_intrusion_ack": "probe",
    "request_probe": "probe",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
