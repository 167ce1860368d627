"""Fault injection: timed crash/partition/loss plans for torture tests."""

from .._exports import lazy_exports

_EXPORTS = {
    "CrashFault": "injector",
    "FaultEvent": "injector",
    "FaultInjector": "injector",
    "MessageLossFault": "injector",
    "PartitionFault": "injector",
    "crash_storm": "plans",
    "lossy_window": "plans",
    "partition_schedule": "plans",
    "rolling_outages": "plans",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
