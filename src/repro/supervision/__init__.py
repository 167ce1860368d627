"""Fault-tolerant campaign supervision.

The policy and records that make a long campaign survive the failures
the paper itself is about: hung workers (timeouts), transient faults
(seeded-backoff retries), poison tasks (quarantine + failure manifest)
and broken transports (recycle strikes, then an in-process drain).  The
loop that applies a :class:`SupervisionPolicy` is
:meth:`repro.mc.executor.TaskExecutor.map`; operator interrupts keep
every finished grid point in the result cache, so re-running the same
command resumes.  :class:`ChaosBackend` injects all of those faults
deterministically so every recovery path is testable — and because
retries replay exact per-task seeds, a supervised campaign under any
recoverable fault pattern folds to bit-identical estimates vs. the
fault-free run.
"""

from .._exports import lazy_exports

_EXPORTS = {
    "ChaosBackend": "chaos",
    "ChaosCrash": "chaos",
    "ChaosSpec": "chaos",
    "FailureManifest": "policy",
    "Quarantined": "policy",
    "SupervisionPolicy": "policy",
    "TaskFailure": "policy",
    "chaos_events": "chaos",
    "deliver_sigterm_as_interrupt": "signals",
    "retry_delay": "policy",
    "task_seed_of": "policy",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
