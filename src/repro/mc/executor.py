"""Task execution engine: process fan-out, streaming, early stopping.

Four cooperating pieces sit behind the figure sweeps and the
protocol-level campaigns:

* :class:`StreamingMoments` — a mergeable running-moments accumulator
  (Chan/Welford) so estimates can be built batch by batch without ever
  materializing the full trial array;
* :func:`estimate_to_precision` — streaming sampling with CI-width-based
  early stopping: callers ask for a target relative precision instead of
  a trial count;
* :class:`TaskExecutor` — the generic seeded fan-out and the package's
  only dispatch loop: maps a picklable function over a sequence of
  picklable tasks, returning one result per task in input order.  Tasks
  carry their own seeds, fixed *before* dispatch, so results are
  bit-identical for any worker count.  The same loop owns recovery:
  when the transport breaks it keeps every finished result and runs the
  rest in-process, and under a
  :class:`~repro.supervision.SupervisionPolicy` it adds seeded retries,
  per-task timeouts, transport strikes and poison quarantine;
* :class:`ExecutorBackend` — *where* tasks run, as a bare transport:
  :class:`SerialBackend` has none (tasks run in-process),
  :class:`LocalPoolBackend` submits them to a local process pool.  A
  new transport implements ``submit`` / ``recycle`` / ``close`` and
  inherits ordering, exactly-once results and every recovery path;
* :class:`SweepExecutor` — the Monte-Carlo instantiation: one
  :class:`MCTask` per sweep grid point.

The sweeps assign per-point seeds as simple root-seed offsets
(preserving the pre-engine seed layout); that is already deterministic
and worker-count independent, and ``np.random.default_rng`` hashes
integer seeds through ``SeedSequence``, so adjacent offsets still get
decorrelated PCG64 streams.  :func:`derive_point_seed` is the utility
for callers who additionally want structural (multi-index) derivation.
"""

from __future__ import annotations

import heapq
import math
import os
import queue
import time
import warnings
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence, TypeVar

import numpy as np

from ..core.specs import SystemSpec
from ..errors import ConfigurationError
from ..log import get_logger
from ..metrics.stats import SummaryStats, Z_95
from .models import LifetimeModel, model_for
from .montecarlo import MCEstimate, run_model

if TYPE_CHECKING:  # pragma: no cover
    from ..supervision.policy import FailureManifest, SupervisionPolicy

#: Trials drawn per streaming batch (small enough to stop promptly once
#: the target precision is reached, large enough to amortize dispatch).
DEFAULT_BATCH = 16_384


def derive_point_seed(root_seed: int, *indices: int) -> int:
    """Deterministic seed for one grid point from its grid indices.

    The root seed and the point's indices are hashed through
    ``np.random.SeedSequence``, so the result depends only on the grid
    position — never on which process evaluates the point.  (Named
    distinctly from :func:`repro.sim.rng.derive_seed`, which derives
    ``random.Random`` seeds from component *names*.)
    """
    if root_seed < 0 or any(i < 0 for i in indices):
        raise ConfigurationError(
            f"seed components must be non-negative, got {root_seed}, {indices}"
        )
    sequence = np.random.SeedSequence([root_seed, *indices])
    return int(sequence.generate_state(1, np.uint64)[0])


@dataclass
class StreamingMoments:
    """Running mean/variance/extrema with O(1) state (mergeable)."""

    count: int = 0
    mean: float = 0.0
    sum_sq_dev: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")

    def update(self, values: np.ndarray) -> None:
        """Fold a batch of samples into the running moments."""
        n = int(values.size)
        if n == 0:
            return
        batch = StreamingMoments(
            count=n,
            mean=float(values.mean()),
            sum_sq_dev=float(((values - values.mean()) ** 2).sum()),
            minimum=float(values.min()),
            maximum=float(values.max()),
        )
        self.merge(batch)

    def merge(self, other: "StreamingMoments") -> None:
        """Chan et al. parallel-merge of two moment accumulators."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self.sum_sq_dev = other.sum_sq_dev
            self.minimum = other.minimum
            self.maximum = other.maximum
            return
        total = self.count + other.count
        delta = other.mean - self.mean
        self.sum_sq_dev += (
            other.sum_sq_dev + delta * delta * self.count * other.count / total
        )
        self.mean += delta * other.count / total
        self.count = total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    @property
    def std(self) -> float:
        """Sample (n-1) standard deviation."""
        if self.count < 2:
            return 0.0
        return float(np.sqrt(self.sum_sq_dev / (self.count - 1)))

    @property
    def ci_halfwidth(self) -> float:
        """Half-width of the 95% normal interval for the mean."""
        if self.count < 2:
            return float("inf")
        return Z_95 * self.std / float(np.sqrt(self.count))

    def to_stats(self) -> SummaryStats:
        """Freeze the accumulator into a :class:`SummaryStats`.

        A single-sample accumulator reports an *infinite* CI half-width
        (``ci_low = -inf``, ``ci_high = +inf``): one draw carries no
        spread information, and a zero-width interval there is
        indistinguishable from a converged estimate — a ``precision=``
        stopping rule must never be satisfiable by a 1-sample batch.
        """
        if self.count == 0:
            raise ConfigurationError("cannot summarize an empty accumulator")
        half = self.ci_halfwidth
        return SummaryStats(
            n=self.count,
            mean=self.mean,
            std=self.std,
            ci_low=self.mean - half,
            ci_high=self.mean + half,
            minimum=self.minimum,
            maximum=self.maximum,
        )


def estimate_to_precision(
    model: LifetimeModel,
    rel_halfwidth: float = 0.01,
    seed: int = 0,
    *,
    min_trials: int = 1_000,
    max_trials: int = 10_000_000,
    batch_size: int = DEFAULT_BATCH,
    vectorized: bool = True,
) -> MCEstimate:
    """Sample until the 95% CI half-width is ``rel_halfwidth × |mean|``.

    Batches stream into a :class:`StreamingMoments` accumulator, so
    memory stays O(batch) regardless of how many trials the target
    precision ends up costing.  ``converged=False`` on the returned
    estimate means the ``max_trials`` budget ran out first.
    """
    if rel_halfwidth <= 0:
        raise ConfigurationError(f"rel_halfwidth must be positive, got {rel_halfwidth}")
    if not 2 <= min_trials <= max_trials:
        raise ConfigurationError(
            f"need 2 <= min_trials <= max_trials, got {min_trials}, {max_trials}"
        )
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    rng = np.random.default_rng(seed)
    moments = StreamingMoments()
    converged = False
    while moments.count < max_trials:
        take = min(batch_size, max_trials - moments.count)
        if vectorized:
            values = model.sample_batch(take, rng)
        else:
            values = model.sample(take, rng)
        moments.update(values.astype(np.float64))
        if moments.count < min_trials:
            continue
        scale = max(abs(moments.mean), np.finfo(float).tiny)
        if moments.ci_halfwidth <= rel_halfwidth * scale:
            converged = True
            break
    return MCEstimate(
        label=model.label,
        spec=model.spec,
        stats=moments.to_stats(),
        trials=moments.count,
        converged=converged,
    )


# ----------------------------------------------------------------------
# Grid fan-out
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MCTask:
    """One grid point of a sweep: a spec plus its sampling policy.

    ``seed`` is fixed by the caller before dispatch, which is what makes
    sweep results independent of the worker count.
    """

    spec: SystemSpec
    seed: int
    trials: int = 10_000
    step_level: bool = False
    vectorized: bool = True
    precision: float | None = None
    max_trials: int = 10_000_000

    def run(self) -> MCEstimate:
        """Evaluate this point in the current process."""
        model = model_for(self.spec, step_level=self.step_level)
        if self.precision is not None:
            return estimate_to_precision(
                model,
                rel_halfwidth=self.precision,
                seed=self.seed,
                max_trials=self.max_trials,
                vectorized=self.vectorized,
            )
        return run_model(model, self.trials, self.seed, vectorized=self.vectorized)


def run_task(task: MCTask) -> MCEstimate:
    """Module-level task runner (picklable for process pools)."""
    return task.run()


def resolve_workers(workers: int | None) -> int:
    """Normalize a worker request: None/0/1 → serial; -1 → all cores."""
    if workers is None:
        return 1
    if workers < 0:
        return max(os.cpu_count() or 1, 1)
    return max(workers, 1)


TaskT = TypeVar("TaskT")
ResultT = TypeVar("ResultT")

#: Transport-level failures (a pool that will not start or has broken):
#: never the task's own fault, so never charged against it.
_TRANSPORT_ERRORS = (OSError, PermissionError, BrokenProcessPool)

#: Operational narration (transport strikes, recycles) goes to the
#: logger; caller-facing contract warnings (serial fallback, quarantine,
#: ignored timeouts) stay ``warnings.warn`` — see :mod:`repro.log`.
logger = get_logger(__name__)


class ExecutorBackend:
    """Where a :class:`TaskExecutor`'s tasks run: a transport, not a loop.

    A backend that can dispatch one task asynchronously sets
    :attr:`supports_submit` and implements :meth:`submit`, returning a
    ``Future``.  :meth:`recycle` drops the transport after a fault —
    cancelling queued work, without waiting — so the next submit starts
    a fresh one; :meth:`close` releases it gracefully.  :meth:`open` /
    :meth:`close` bracket a persistent ``with TaskExecutor(...)`` scope.
    A backend that cannot submit has its tasks run in-process.

    Ordering, exactly-once results, the in-process fallback, retries,
    timeouts and quarantine all live in :meth:`TaskExecutor.map`, so
    every transport gets them; determinism stays the caller's contract
    (every task carries its own pre-derived seed).
    """

    #: Whether :meth:`submit` is available (asynchronous dispatch).
    supports_submit = False
    #: Whether a submitted future may never resolve (injected hangs): the
    #: executor then refuses to run without a ``task_timeout``.
    may_hang = False

    def submit(self, fn: Callable[[TaskT], ResultT], task) -> Future:
        """Dispatch one task, returning its ``Future``."""
        raise NotImplementedError(f"{type(self).__name__} cannot submit")

    def recycle(self) -> None:
        """Drop transport resources after a fault (fresh ones next submit)."""

    def open(self) -> None:
        """Enter a persistent scope (keep resources across rounds)."""

    def close(self) -> None:
        """Release the transport's resources."""


class SerialBackend(ExecutorBackend):
    """No transport: every task runs in-process, in input order.

    The explicit choice for ``workers=1`` — no pool start-up, no
    pickling — and bit-identical to every other backend by the seeding
    contract.
    """


class LocalPoolBackend(ExecutorBackend):
    """Submits tasks to a local :class:`ProcessPoolExecutor`.

    The pool starts on the first :meth:`submit` and lives until
    :meth:`recycle` or :meth:`close`; the executor closes it after every
    round unless the round runs inside a ``with TaskExecutor(...)``
    block.  Start-up refusals and broken pools surface as transport
    errors for the executor's loop to absorb.
    """

    supports_submit = True

    def __init__(self, workers: int) -> None:
        if workers < 2:
            raise ConfigurationError(
                f"LocalPoolBackend needs >= 2 workers, got {workers} "
                "(use SerialBackend for in-process execution)"
            )
        self.workers = workers
        self._pool: ProcessPoolExecutor | None = None

    def submit(self, fn: Callable[[TaskT], ResultT], task) -> Future:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool.submit(fn, task)

    def recycle(self) -> None:
        """Discard the pool without waiting, cancelling queued work.

        A suspect pool (broken, or starved by hung workers) would block a
        graceful shutdown on exactly the tasks that failed it.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()


def backend_for(workers: int) -> ExecutorBackend:
    """The default backend for a resolved worker count."""
    if workers <= 1:
        return SerialBackend()
    return LocalPoolBackend(workers)


class TaskExecutor:
    """Maps a picklable function over picklable tasks, in order.

    The generic seeded fan-out behind both the Monte-Carlo sweeps and
    the protocol-level campaigns, and the one dispatch loop in the
    package.  *Where* tasks run is a pluggable :class:`ExecutorBackend`:
    ``workers`` ≤ 1 (or ``None``) selects the in-process
    :class:`SerialBackend`, larger values a :class:`LocalPoolBackend`,
    and ``backend=`` installs any other transport.  Determinism is the
    caller's contract: every task carries its own pre-derived seed, so
    all backends return bit-identical results.

    Without a ``policy``, task exceptions propagate unchanged and the
    first transport failure recycles the transport, keeps every result
    already finished and runs the rest in-process with a
    ``RuntimeWarning``.  With a
    :class:`~repro.supervision.SupervisionPolicy`, failed tasks retry on
    a seed-derived backoff, hung tasks time out, transport failures are
    absorbed up to ``transport_strikes`` recycles before the rest drains
    in-process, and a task that exhausts ``max_attempts`` is quarantined:
    its slot holds a :class:`~repro.supervision.Quarantined` marker and
    :attr:`manifest` (a :class:`~repro.supervision.FailureManifest`
    spanning every round) records it.
    """

    def __init__(
        self,
        workers: int | None = None,
        *,
        backend: ExecutorBackend | None = None,
        policy: "SupervisionPolicy | None" = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        self.backend = backend if backend is not None else backend_for(self.workers)
        self.policy = policy
        self.manifest: "FailureManifest | None" = None
        self._scoped = False
        if self.backend.may_hang and (policy is None or policy.task_timeout is None):
            raise ConfigurationError(
                f"{type(self.backend).__name__} may hang tasks; it needs a "
                "SupervisionPolicy with a task_timeout, or map() could block "
                "forever"
            )
        if policy is None:
            return
        from ..supervision.policy import FailureManifest  # deferred: cycle

        self.manifest = FailureManifest()
        if policy.task_timeout is not None and not self.backend.supports_submit:
            warnings.warn(
                f"{type(self.backend).__name__} runs tasks in-process; "
                "task_timeout cannot interrupt them and is ignored",
                RuntimeWarning,
                stacklevel=2,
            )

    @property
    def _pool(self) -> ProcessPoolExecutor | None:
        """The live process pool, if the backend holds one (tests peek)."""
        return getattr(self.backend, "_pool", None)

    def __enter__(self) -> "TaskExecutor":
        """Hold the backend's resources open across :meth:`map` calls.

        Streaming callers (CI-width early stopping) dispatch many small
        rounds; without a persistent pool every round would pay full
        pool startup.  Outside a ``with`` block every round closes its
        transport when it ends.
        """
        self._scoped = True
        self.backend.open()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Leave the persistent scope and release the backend."""
        self._scoped = False
        self.backend.close()

    def map(
        self,
        fn: Callable[[TaskT], ResultT],
        tasks: Sequence[TaskT],
        on_result: Callable[[int, ResultT], None] | None = None,
    ) -> list[ResultT]:
        """Apply ``fn`` to every task; one result per task, in input order.

        ``fn`` must be a module-level function (picklable) when the
        backend ships tasks out of process.  ``on_result(index, result)``
        fires exactly once per task as its result lands (in completion
        order, quarantine markers included), so callers can persist
        finished work before the round ends — an interrupt then loses
        only the tasks in flight.
        """
        try:
            return _Round(self, fn, list(tasks), on_result).run()
        except BaseException:
            # A task error or an interrupt: never wait on in-flight work.
            self.backend.recycle()
            raise
        finally:
            if not self._scoped:
                self.backend.close()


class _Round:
    """State of one :meth:`TaskExecutor.map` call and its dispatch loop.

    Every task index is in exactly one place until its result lands:
    ``ready`` (a heap of ``(eligible time, index)`` awaiting submission
    or retry) or ``waiting`` (submitted, ``future -> index``).
    Completions arrive through a queue fed by future callbacks, so each
    one costs O(1); deadlines are kept in submission order, which is
    deadline order because every task gets the same timeout.
    """

    def __init__(self, executor: TaskExecutor, fn, tasks: list, on_result) -> None:
        self.backend = executor.backend
        self.policy = executor.policy
        self.manifest = executor.manifest
        self.fn = fn
        self.tasks = tasks
        self.on_result = on_result
        n = len(tasks)
        self.results: list = [None] * n
        self.left = n
        self.attempts = [0] * n
        self.ready = [(0.0, index) for index in range(n)]
        self.waiting: dict[Future, int] = {}
        self.deadlines: deque[tuple[float, Future]] = deque()
        self.completed: queue.SimpleQueue = queue.SimpleQueue()
        self.strikes = 0
        self.abandoned = 0
        # A lone unsupervised task is not worth a pool start-up.
        self.remote = self.backend.supports_submit and (
            self.policy is not None or n > 1
        )

    def run(self) -> list:
        while self.left:
            if not self.remote:
                self._run_in_process()
                break
            self._submit_ready()
            if self.remote:
                self._wait()
        return self.results

    # ------------------------------------------------------------------
    def _land(self, index: int, result) -> None:
        self.results[index] = result
        self.left -= 1
        if self.on_result is not None:
            self.on_result(index, result)

    def _fail(self, index: int, kind: str, error: BaseException) -> float | None:
        """Charge a failed attempt: the backoff before its retry, or
        ``None`` once the task is quarantined."""
        from ..supervision.policy import retry_delay, task_seed_of

        self.attempts[index] += 1
        attempts = self.attempts[index]
        task = self.tasks[index]
        if attempts >= self.policy.max_attempts:
            marker = self.manifest.quarantine(index, task, attempts, kind, error)
            self._land(index, marker)
            return None
        self.manifest.retries += 1
        return retry_delay(self.policy, attempts, task_seed_of(task, index))

    def _retry_later(self, index: int, kind: str, error: BaseException) -> None:
        delay = self._fail(index, kind, error)
        if delay is not None:
            heapq.heappush(self.ready, (time.monotonic() + delay, index))

    # ------------------------------------------------------------------
    def _submit_ready(self) -> None:
        """Submit every task whose backoff has elapsed."""
        now = time.monotonic()
        timeout = self.policy.task_timeout if self.policy is not None else None
        while self.ready and self.ready[0][0] <= now:
            _, index = heapq.heappop(self.ready)
            try:
                future = self.backend.submit(self.fn, self.tasks[index])
            except _TRANSPORT_ERRORS as exc:
                heapq.heappush(self.ready, (now, index))
                self._transport_failed(exc, "at submit")
                return
            self.waiting[future] = index
            if timeout is not None:
                self.deadlines.append((now + timeout, future))
            future.add_done_callback(self.completed.put)

    def _wait(self) -> None:
        """Block until a completion, the next deadline or backoff expiry."""
        if not self.waiting:
            time.sleep(max(0.0, self.ready[0][0] - time.monotonic()))
            return
        timeout = None
        if self.policy is not None:
            wake = self.ready[0][0] if self.ready else math.inf
            if self.deadlines:
                wake = min(wake, self.deadlines[0][0])
            pause = wake - time.monotonic()
            timeout = max(0.0, min(pause, self.policy.poll_interval))
        try:
            future = self.completed.get(timeout=timeout)
        except queue.Empty:
            pass
        else:
            self._settle(future)
        if self.deadlines:
            self._expire()

    def _settle(self, future: Future) -> None:
        index = self.waiting.pop(future, None)
        if index is None:
            return  # timed out, or from a recycled transport
        try:
            result = future.result()
        except _TRANSPORT_ERRORS as exc:
            heapq.heappush(self.ready, (time.monotonic(), index))
            self._transport_failed(exc, "mid-task")
            return
        except Exception as exc:
            if self.policy is None:
                raise
            self._retry_later(index, "error", exc)
            return
        self._land(index, result)

    def _expire(self) -> None:
        """Charge a timeout to every task past its deadline."""
        now = time.monotonic()
        while self.deadlines:
            deadline, future = self.deadlines[0]
            if future in self.waiting and deadline > now:
                break
            self.deadlines.popleft()
            if future.done() or future not in self.waiting:
                continue  # settled, or its completion is queued
            index = self.waiting.pop(future)
            if not future.cancel():
                self.abandoned += 1  # already running: a hung worker
            self.manifest.timeouts += 1
            error = TimeoutError(f"no result within {self.policy.task_timeout:g}s")
            self._retry_later(index, "timeout", error)
        width = getattr(self.backend, "workers", None)
        if width is not None and self.abandoned >= width:
            # Hung workers fill the pool: only a fresh one makes progress.
            self.manifest.degradations += 1
            self.abandoned = 0
            logger.warning("%d hung tasks starved the pool; recycled it", width)
            self._recycle()

    # ------------------------------------------------------------------
    def _recycle(self) -> None:
        """Drop the transport, keep finished results, requeue the rest.

        The backend is recycled *first* — queued work cancelled — so no
        requeued task can still start on the old transport.  Requeued
        tasks are not charged an attempt: the transport failed, not them.
        """
        self.backend.recycle()
        now = time.monotonic()
        for future, index in self.waiting.items():
            finished = future.done() and not future.cancelled()
            if finished and future.exception() is None:
                self._land(index, future.result())
            else:
                heapq.heappush(self.ready, (now, index))
        self.waiting.clear()
        self.deadlines.clear()

    def _transport_failed(self, exc: BaseException, where: str) -> None:
        self._recycle()
        if self.policy is None:
            warnings.warn(
                f"process pool unavailable ({exc!r}); running the "
                f"{len(self.ready)} remaining tasks serially",
                RuntimeWarning,
                stacklevel=2,
            )
            self.remote = False
            return
        self.strikes += 1
        self.manifest.transport_failures += 1
        logger.warning(
            "backend transport failed %s (%r); recycled (strike %d/%d)",
            where,
            exc,
            self.strikes,
            self.policy.transport_strikes,
        )
        if self.strikes > self.policy.transport_strikes:
            self.manifest.degradations += 1
            logger.warning(
                "backend transport exhausted its strikes; running %d "
                "remaining tasks in-process",
                len(self.ready),
            )
            self.remote = False

    def _run_in_process(self) -> None:
        """Run every unfinished task here, in index order (retries sleep)."""
        pending = sorted(index for _, index in self.ready)
        self.ready.clear()
        for index in pending:
            while True:
                try:
                    result = self.fn(self.tasks[index])
                except Exception as exc:
                    if self.policy is None:
                        raise
                    delay = self._fail(index, "error", exc)
                    if delay is None:
                        break
                    time.sleep(delay)
                    continue
                self._land(index, result)
                break


class SweepExecutor(TaskExecutor):
    """Evaluates a batch of :class:`MCTask` grid points, in order.

    The Monte-Carlo face of :class:`TaskExecutor`: every grid point
    carries its own pre-derived seed, so sweep results are bit-identical
    for any worker count.
    """

    def map(
        self,
        fn_or_tasks,
        tasks: Sequence | None = None,
        on_result: Callable[[int, object], None] | None = None,
    ) -> list:
        """Run tasks, preserving input order.

        ``map(tasks)`` is the Monte-Carlo shorthand (each task an
        :class:`MCTask`); the generic ``map(fn, tasks)`` form still
        works, so a :class:`SweepExecutor` remains substitutable
        anywhere a :class:`TaskExecutor` is accepted.
        """
        if tasks is None:
            return super().map(run_task, fn_or_tasks, on_result=on_result)
        return super().map(fn_or_tasks, tasks, on_result=on_result)
