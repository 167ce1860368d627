"""Supervision policy: retry/backoff/timeout knobs and failure records.

The policy is deliberately a frozen dataclass with an ``as_dict``: it
participates in campaign records (so a supervised run documents the
contract it ran under) and its jitter is *derived from the task seed*,
never drawn from a global RNG — two supervised runs of the same campaign
retry on identical schedules, which is what makes recovery reproducible
enough to assert bit-identical estimates under injected faults.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass, field
from typing import Any, Optional

from ..cache.store import atomic_write_text
from ..errors import ConfigurationError
from ..sim.rng import derive_seed


@dataclass(frozen=True)
class SupervisionPolicy:
    """How a supervised :class:`~repro.mc.executor.TaskExecutor` treats failure.

    Attributes
    ----------
    max_attempts:
        Total tries per task (first run + retries).  A task that fails
        this many times is *quarantined* — recorded as a
        :class:`TaskFailure` instead of killing the campaign.
    task_timeout:
        Per-task wall-clock budget in seconds; a task still running at
        its deadline counts as a timeout failure and is retried.
        ``None`` disables hung-task detection (and is the only option on
        synchronous backends, which cannot be interrupted mid-task).
    backoff_base, backoff_cap:
        Exponential-backoff schedule: attempt ``k`` waits
        ``min(base * 2**(k-1), cap)`` seconds, scaled by the jitter.
    backoff_jitter:
        Fractional jitter width: the delay is scaled by a factor in
        ``[1 - jitter, 1 + jitter]`` derived deterministically from the
        task seed and attempt number (see :func:`retry_delay`).
    poll_interval:
        Longest single wait of the supervised dispatch loop, in seconds.
    transport_strikes:
        Backend-transport failures (pool refused to start, broken pool)
        tolerated (each one recycles the transport) before the executor
        stops re-submitting and drains the remaining tasks in-process.
    """

    max_attempts: int = 3
    task_timeout: Optional[float] = None
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    backoff_jitter: float = 0.25
    poll_interval: float = 0.02
    transport_strikes: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ConfigurationError(
                f"task_timeout must be positive, got {self.task_timeout}"
            )
        if self.backoff_base < 0 or self.backoff_cap < self.backoff_base:
            raise ConfigurationError(
                "need 0 <= backoff_base <= backoff_cap, got "
                f"{self.backoff_base}, {self.backoff_cap}"
            )
        if not 0.0 <= self.backoff_jitter < 1.0:
            raise ConfigurationError(
                f"backoff_jitter must be in [0, 1), got {self.backoff_jitter}"
            )
        if self.poll_interval <= 0:
            raise ConfigurationError(
                f"poll_interval must be positive, got {self.poll_interval}"
            )
        if self.transport_strikes < 0:
            raise ConfigurationError(
                f"transport_strikes must be >= 0, got {self.transport_strikes}"
            )

    def as_dict(self) -> dict:
        return {
            "max_attempts": self.max_attempts,
            "task_timeout": self.task_timeout,
            "backoff_base": self.backoff_base,
            "backoff_cap": self.backoff_cap,
            "backoff_jitter": self.backoff_jitter,
            "poll_interval": self.poll_interval,
            "transport_strikes": self.transport_strikes,
        }


def task_seed_of(task: Any, fallback: int = 0) -> int:
    """The task's own seed, for deterministic jitter derivation.

    Campaign tasks carry their seeds (``seeds`` batches on
    :class:`~repro.core.experiment.ProtocolTask`, ``seed`` on
    :class:`~repro.mc.executor.MCTask`); anything else falls back to the
    task's index so the schedule stays deterministic regardless.
    """
    seeds = getattr(task, "seeds", None)
    if seeds:
        return int(seeds[0])
    seed = getattr(task, "seed", None)
    if isinstance(seed, int):
        return seed
    return fallback


def retry_delay(policy: SupervisionPolicy, attempt: int, task_seed: int) -> float:
    """Backoff before retry number ``attempt`` (1-based), with jitter.

    The jitter factor comes from a throwaway RNG seeded from
    ``(task_seed, attempt)`` via the same :func:`~repro.sim.rng.derive_seed`
    discipline the simulator uses — the recovery schedule of a supervised
    campaign is a pure function of its seeds.
    """
    if attempt < 1:
        raise ConfigurationError(f"attempt must be >= 1, got {attempt}")
    base = min(policy.backoff_base * 2.0 ** (attempt - 1), policy.backoff_cap)
    if policy.backoff_jitter == 0.0 or base == 0.0:
        return base
    draw = random.Random(derive_seed(task_seed, f"retry:{attempt}")).random()
    return base * (1.0 - policy.backoff_jitter + 2.0 * policy.backoff_jitter * draw)


def describe_task(task: Any) -> str:
    """Short human label for a task in failure records."""
    spec = getattr(task, "spec", None)
    label = getattr(spec, "label", None)
    if label is not None:
        return str(label)
    return type(task).__name__


@dataclass(frozen=True)
class TaskFailure:
    """One quarantined task: what it was and how it died.

    Recorded in the :class:`FailureManifest` after a task exhausts its
    :attr:`SupervisionPolicy.max_attempts`; quarantined work is
    *manifested*, never a silent gap in the campaign.
    """

    index: int
    label: str
    seeds: tuple[int, ...]
    attempts: int
    kind: str  # "error" | "timeout"
    error: str

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "label": self.label,
            "seeds": list(self.seeds),
            "attempts": self.attempts,
            "kind": self.kind,
            "error": self.error,
        }


class Quarantined:
    """Result-slot placeholder for a quarantined task.

    A supervised ``map`` still returns exactly one slot per task, in
    input order; quarantined slots hold this wrapper around the
    :class:`TaskFailure` so callers can account for the lost work
    explicitly instead of mis-indexing the survivors.
    """

    __slots__ = ("failure",)

    def __init__(self, failure: TaskFailure) -> None:
        self.failure = failure

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Quarantined({self.failure.label}, kind={self.failure.kind})"


@dataclass
class FailureManifest:
    """Mutable tally of everything a supervised run absorbed.

    One manifest spans a whole campaign (many ``map`` rounds); the
    campaign result and record surface its counters, and :meth:`write`
    persists the full typed failure list with the same atomic-write
    discipline as the result cache.
    """

    failures: list[TaskFailure] = field(default_factory=list)
    retries: int = 0
    timeouts: int = 0
    transport_failures: int = 0
    degradations: int = 0

    @property
    def quarantined(self) -> int:
        return len(self.failures)

    def record(self, failure: TaskFailure) -> None:
        self.failures.append(failure)

    def quarantine(
        self, index: int, task: Any, attempts: int, kind: str, error: BaseException
    ) -> Quarantined:
        """Record a task that exhausted its attempts; returns its slot marker."""
        failure = TaskFailure(
            index=index,
            label=describe_task(task),
            seeds=tuple(getattr(task, "seeds", ()) or ()),
            attempts=attempts,
            kind=kind,
            error=f"{type(error).__name__}: {error}",
        )
        self.record(failure)
        warnings.warn(
            f"task {index} ({failure.label}) quarantined after "
            f"{attempts} attempts ({failure.error}); campaign continues "
            "without it — see the failure manifest",
            RuntimeWarning,
            stacklevel=2,
        )
        return Quarantined(failure)

    def as_dict(self) -> dict:
        return {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "transport_failures": self.transport_failures,
            "degradations": self.degradations,
            "quarantined": self.quarantined,
            "failures": [failure.as_dict() for failure in self.failures],
        }

    def write(self, path) -> None:
        """Persist the manifest as JSON (atomic temp-file + rename)."""
        import json
        from pathlib import Path

        atomic_write_text(Path(path), json.dumps(self.as_dict(), indent=2) + "\n")
