"""Deterministic fault injection: :class:`ChaosBackend`.

A seeded wrapper around any async-capable :class:`ExecutorBackend` that
afflicts tasks with crashes, hangs and transient failures — the
first-class generalisation of the test-only ``FlakyPool`` monkeypatch.
Every fault decision derives from ``derive_seed(chaos_seed,
f"chaos:{task_seed}:{attempt}")``, so a fault pattern is a pure function
of ``(chaos seed, task seeds)``: the same campaign under the same chaos
spec fails in exactly the same places on every run, which is what lets
the test battery assert that supervised recovery folds to bit-identical
estimates.

Fault kinds
-----------
``crash``
    The task raises :class:`ChaosCrash` *instead of* running
    (crash-before-run) or *after* running, discarding the result
    (crash-after-run) — both look identical to a supervisor, but
    crash-after-run also proves retried work re-derives the same result.
``hang``
    The returned future simply never completes; only a supervised
    executor with a ``task_timeout`` can recover, so
    :class:`~repro.mc.executor.TaskExecutor` refuses a spec that can hang
    without one.  Hangs are simulated at the dispatch layer (the future
    is parked, no worker is tied up), so a recycled backend is not
    actually poisoned.
``transient``
    The first :attr:`ChaosSpec.transient_attempts` attempts of an
    afflicted task fail; later attempts succeed — the retry path's bread
    and butter.
``poison``
    Every attempt fails; the only correct outcome is quarantine.

All kinds except ``poison`` are recoverable, so a supervised campaign
under any such pattern must produce bit-identical estimates to the
fault-free run.
"""

from __future__ import annotations

import random
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable

from ..errors import ConfigurationError
from ..mc.executor import ExecutorBackend, SerialBackend
from ..sim.rng import derive_seed
from .policy import task_seed_of

_FAULT_KINDS = ("crash", "hang", "transient", "poison")


class ChaosCrash(RuntimeError):
    """The injected task failure (never raised by real task code)."""


@dataclass(frozen=True)
class ChaosSpec:
    """A seeded fault pattern: which kinds, how often, how persistent.

    Probabilities are per-task (a task is either afflicted by one kind
    or clean, decided once from its seed); they must sum to at most 1.
    ``transient_attempts`` is how many attempts a ``crash``/``transient``
    affliction ruins before the task recovers (hangs always afflict only
    the first attempt — a retried hang would need a timeout per retry and
    proves nothing new; poison afflicts every attempt, by definition).
    """

    seed: int = 0
    crash: float = 0.0
    hang: float = 0.0
    transient: float = 0.0
    poison: float = 0.0
    transient_attempts: int = 1

    def __post_init__(self) -> None:
        for kind in _FAULT_KINDS:
            p = getattr(self, kind)
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(
                    f"chaos probability {kind} must be in [0, 1], got {p}"
                )
        total = self.crash + self.hang + self.transient + self.poison
        if total > 1.0 + 1e-9:
            raise ConfigurationError(
                f"chaos probabilities must sum to <= 1, got {total}"
            )
        if self.transient_attempts < 1:
            raise ConfigurationError(
                "transient_attempts must be >= 1, got "
                f"{self.transient_attempts}"
            )

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "crash": self.crash,
            "hang": self.hang,
            "transient": self.transient,
            "poison": self.poison,
            "transient_attempts": self.transient_attempts,
        }

    @classmethod
    def parse(cls, text: str) -> "ChaosSpec":
        """Build a spec from CLI syntax ``key=value[,key=value...]``.

        Example: ``seed=7,crash=0.2,hang=0.1,transient=0.3``.
        """
        fields = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep or key not in (
                "seed",
                "transient_attempts",
                *_FAULT_KINDS,
            ):
                raise ConfigurationError(
                    f"bad chaos spec component {part!r}; expected "
                    "seed=<int>, transient_attempts=<int>, or "
                    "crash/hang/transient/poison=<probability>"
                )
            try:
                fields[key] = (
                    int(value)
                    if key in ("seed", "transient_attempts")
                    else float(value)
                )
            except ValueError as exc:
                raise ConfigurationError(
                    f"bad chaos spec value in {part!r}: {exc}"
                ) from None
        return cls(**fields)

    def fault_for(self, task_seed: int) -> str | None:
        """The fault kind afflicting a task, or ``None`` if clean.

        One uniform draw per task from a derived RNG stream; the kinds
        partition ``[0, crash + hang + transient + poison)``.
        """
        draw = random.Random(
            derive_seed(self.seed, f"chaos:{task_seed}")
        ).random()
        threshold = 0.0
        for kind in _FAULT_KINDS:
            threshold += getattr(self, kind)
            if draw < threshold:
                return kind
        return None

    def afflicts(self, task_seed: int, attempt: int) -> str | None:
        """The fault kind hitting attempt number ``attempt`` (1-based)."""
        kind = self.fault_for(task_seed)
        if kind is None:
            return None
        if kind == "poison":
            return kind
        if kind == "hang":
            return kind if attempt == 1 else None
        return kind if attempt <= self.transient_attempts else None


class ChaosBackend(ExecutorBackend):
    """Inject seeded faults between the executor and the real backend.

    Task functions run un-afflicted through ``inner``; the chaos layer
    decides *before* dispatch whether this attempt crashes (raise
    instead of run), crashes-after-run (run, then discard the result and
    raise), hangs (return a future that never resolves), or proceeds.
    Attempt counting is per task seed and lives here, so retries by a
    supervised :class:`~repro.mc.executor.TaskExecutor` naturally advance a
    transient fault towards recovery.
    """

    supports_submit = True

    def __init__(
        self, spec: ChaosSpec, inner: ExecutorBackend | None = None
    ) -> None:
        self.spec = spec
        self.inner = inner if inner is not None else SerialBackend()
        self.may_hang = spec.hang > 0.0
        self._attempts: dict[int, int] = {}
        self._parked: list[Future] = []

    def open(self) -> None:
        self.inner.open()

    def close(self) -> None:
        for future in self._parked:
            future.cancel()
        self._parked.clear()
        self.inner.close()

    def recycle(self) -> None:
        self.inner.recycle()

    def _next_attempt(self, task_seed: int) -> int:
        attempt = self._attempts.get(task_seed, 0) + 1
        self._attempts[task_seed] = attempt
        return attempt

    def _crash_side(self, task_seed: int, attempt: int) -> str:
        """Crash-before-run vs crash-after-run, seed-derived."""
        draw = random.Random(
            derive_seed(self.spec.seed, f"chaos-side:{task_seed}:{attempt}")
        ).random()
        return "before" if draw < 0.5 else "after"

    def submit(self, fn: Callable, task) -> Future:
        task_seed = task_seed_of(task)
        attempt = self._next_attempt(task_seed)
        kind = self.spec.afflicts(task_seed, attempt)
        if kind == "hang":
            future: Future = Future()
            self._parked.append(future)
            return future
        if kind in ("crash", "poison", "transient"):
            side = self._crash_side(task_seed, attempt)
            if side == "before" or not self.inner.supports_submit:
                future = Future()
                future.set_exception(
                    ChaosCrash(
                        f"injected {kind} fault "
                        f"(attempt {attempt}, task seed {task_seed})"
                    )
                )
                return future
            # Crash-after-run: the work really happens (and really costs
            # a worker slot) but its result is discarded.
            inner_future = self.inner.submit(fn, task)
            future = Future()

            def discard(done: Future, future=future, kind=kind) -> None:
                exc = done.exception()
                future.set_exception(
                    exc
                    if exc is not None
                    else ChaosCrash(
                        f"injected {kind} fault after run "
                        f"(attempt {attempt}, task seed {task_seed})"
                    )
                )

            inner_future.add_done_callback(discard)
            return future
        if self.inner.supports_submit:
            return self.inner.submit(fn, task)
        future = Future()
        try:
            future.set_result(fn(task))
        except BaseException as exc:  # noqa: BLE001 - future carries it
            future.set_exception(exc)
        return future


def chaos_events(spec: ChaosSpec, task_seeds: list[int]) -> dict[str, int]:
    """Tally which fault kinds a spec will inject over the given seeds.

    Purely predictive (no execution): used by benchmarks and reports to
    show what a chaos run is about to absorb.
    """
    tally = {kind: 0 for kind in _FAULT_KINDS}
    tally["clean"] = 0
    for task_seed in task_seeds:
        kind = spec.fault_for(task_seed)
        tally[kind if kind is not None else "clean"] += 1
    return tally


__all__ = [
    "ChaosBackend",
    "ChaosCrash",
    "ChaosSpec",
    "chaos_events",
]
