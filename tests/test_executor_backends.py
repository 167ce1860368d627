"""Tests for the executor's dispatch loop and its transport backends.

Locks down the :class:`~repro.mc.executor.ExecutorBackend` transport
split and, with real worker processes and real faults, the
exactly-once / in-order guarantees of
:meth:`~repro.mc.executor.TaskExecutor.map`'s recovery:

* a worker that dies mid-task breaks the pool: its futures fail with
  ``BrokenProcessPool``, finished results are kept and the rest run
  in-process, in input order;
* submit-time breakage shuts the pool down *before* the serial re-run;
* a pool whose workers cannot fork falls back to serial execution;
* a task whose result cannot be pickled fails only its own future;
* a task abandoned on timeout never holds up its round: the worker
  running it is killed;
* a stress test of the state the pool's reader thread shares with
  ``submit``;
* a property test over task count, workers, break point and policy
  (deterministic fake pools behind the ``WorkerPool`` seam): one
  result per task in input order, ``on_result`` once per index, every
  kept result from a task that ran exactly once.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
import warnings
from collections import Counter
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.mc.pool import WorkerPool
from repro.mc.executor import (
    ExecutorBackend,
    LocalPoolBackend,
    SerialBackend,
    TaskExecutor,
    backend_for,
)
from repro.supervision import Quarantined, SupervisionPolicy

PARENT = os.getpid()
SRC = Path(__file__).resolve().parents[1] / "src"


def _square(x: int) -> int:
    return x * x


def _pid_task(task: int) -> tuple[int, int]:
    return task, os.getpid()


def _dying_task(task: int) -> tuple[int, int]:
    """Runs like :func:`_pid_task`, but task 2 kills its worker after a
    pause (the other tasks finish first); in the parent it is inert."""
    if task == 2 and os.getpid() != PARENT:
        time.sleep(0.5)
        os._exit(13)
    return _pid_task(task)


# ----------------------------------------------------------------------
# Strategy selection and delegation
# ----------------------------------------------------------------------
def test_backend_for_selects_by_worker_count():
    assert isinstance(backend_for(1), SerialBackend)
    assert isinstance(backend_for(0), SerialBackend)
    pool = backend_for(3)
    assert isinstance(pool, LocalPoolBackend)
    assert pool.workers == 3


def test_local_pool_backend_rejects_serial_counts():
    with pytest.raises(ConfigurationError):
        LocalPoolBackend(1)


def test_serial_backend_maps_in_order():
    assert TaskExecutor(backend=SerialBackend()).map(_square, [3, 1, 2]) == [9, 1, 4]


def test_executor_delegates_to_injected_backend():
    class RecordingBackend(ExecutorBackend):
        supports_submit = True

        def __init__(self):
            self.calls = []
            self.closed = False

        def submit(self, fn, task):
            self.calls.append(task)
            future = Future()
            future.set_result(fn(task))
            return future

        def close(self):
            self.closed = True

    backend = RecordingBackend()
    with TaskExecutor(backend=backend) as executor:
        assert executor.map(_square, [2, 5]) == [4, 25]
        assert not backend.closed  # the scope keeps the transport open
    assert backend.calls == [2, 5]
    assert backend.closed


# ----------------------------------------------------------------------
# Real-process transport battery
# ----------------------------------------------------------------------
def test_worker_exit_fails_its_futures_as_broken_pool():
    backend = LocalPoolBackend(2)
    try:
        futures = [backend.submit(_dying_task, task) for task in range(5)]
        outcomes = []
        for future in futures:
            error = future.exception(timeout=30)
            outcomes.append(type(error) if error else future.result())
        assert outcomes[2] is BrokenProcessPool
        # The quick tasks finished on a worker before the pool broke.
        assert outcomes[0][0] == 0 and outcomes[0][1] != PARENT
        with pytest.raises(BrokenProcessPool):
            backend.submit(_square, 3)
    finally:
        backend.close()
    assert multiprocessing.active_children() == []


def test_midmap_breakage_keeps_results_ordered_exactly_once():
    landed = Counter()
    with pytest.warns(RuntimeWarning, match="process pool unavailable"):
        results = TaskExecutor(2).map(
            _dying_task,
            list(range(5)),
            on_result=lambda index, result: landed.update([index]),
        )
    # In order, nothing lost, nothing duplicated.
    assert [task for task, _ in results] == [0, 1, 2, 3, 4]
    assert landed == Counter(range(5))
    # The dying task re-ran in the parent after the pool broke; the
    # result a worker finished before it is kept, not re-run.
    assert results[2][1] == PARENT
    assert results[0][1] != PARENT
    assert multiprocessing.active_children() == []


def _unpicklable_result(task: int):
    if task == 1:
        return threading.Lock()  # cannot travel back to the orchestrator
    return task


def test_unpicklable_result_fails_only_its_own_future():
    backend = LocalPoolBackend(2)
    try:
        futures = [backend.submit(_unpicklable_result, task) for task in range(4)]
        error = futures[1].exception(timeout=30)
        assert isinstance(error, TypeError) and "pickle" in str(error)
        assert [futures[i].result(timeout=30) for i in (0, 2, 3)] == [0, 2, 3]
        # The pool is intact: it serves the next task.
        assert backend.submit(_square, 4).result(timeout=30) == 16
    finally:
        backend.close()
    # Through the executor it is an ordinary task error.
    with pytest.raises(TypeError, match="pickle"):
        TaskExecutor(2).map(_unpicklable_result, list(range(4)))


def test_submit_breakage_cancels_pool_before_serial_rerun(monkeypatch):
    events = []
    shutdown = WorkerPool.shutdown

    def recorded_shutdown(pool):
        events.append("shutdown")
        shutdown(pool)

    monkeypatch.setattr(WorkerPool, "shutdown", recorded_shutdown)

    def tracked(task):
        events.append(("run", task))
        return _square(task)

    with TaskExecutor(2) as executor:
        worker_pids = {pid for _, pid in executor.map(_pid_task, [0, 1, 2, 3])}
        pool = executor._pool
        os.kill(worker_pids.pop(), signal.SIGKILL)
        deadline = time.monotonic() + 30
        while pool._broken is None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert pool._broken is not None  # the reader saw the worker die
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            results = executor.map(tracked, [2, 3, 4])
    assert results == [4, 9, 16]
    # The broken pool was shut down BEFORE any serial execution.  (The
    # scope's close finds no pool left to shut down.)
    assert events == ["shutdown", ("run", 2), ("run", 3), ("run", 4)]
    assert multiprocessing.active_children() == []


def test_pool_start_failure_falls_back_serially(monkeypatch):
    """The second fork is refused: the pool kills the worker it did
    start and the round runs serially, with a warning."""
    forks = []
    real_fork = os.fork

    def fork_once():
        if forks:
            raise OSError("no more processes")
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork_once)
    executor = TaskExecutor(backend=LocalPoolBackend(2))
    with pytest.warns(RuntimeWarning, match="process pool unavailable"):
        assert executor.map(_pid_task, [1, 2, 3]) == [(t, PARENT) for t in (1, 2, 3)]
    assert forks == [1]
    assert multiprocessing.active_children() == []


def test_persistent_flaky_pool_is_replaced_next_round():
    """A broken persistent pool is discarded; the next map() round gets
    a fresh one instead of resubmitting into the corpse."""
    with TaskExecutor(2) as executor:
        with pytest.warns(RuntimeWarning):
            first = executor.map(_dying_task, list(range(5)))
        assert executor._pool is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            second = executor.map(_pid_task, list(range(4)))
        assert executor._pool is not None
    assert [task for task, _ in first] == [0, 1, 2, 3, 4]
    fresh = {pid for _, pid in second}
    assert PARENT not in fresh
    assert fresh.isdisjoint(pid for _, pid in first)


def test_single_task_short_circuits_the_pool(monkeypatch):
    def no_fork():  # pragma: no cover - must not be hit
        raise AssertionError("single-task map must not build a pool")

    monkeypatch.setattr(os, "fork", no_fork)
    executor = TaskExecutor(backend=LocalPoolBackend(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert executor.map(_square, [7]) == [49]
        assert executor.map(_square, []) == []


def test_pool_lives_only_inside_the_with_block():
    executor = TaskExecutor(2)
    assert [task for task, _ in executor.map(_pid_task, [1, 2])] == [1, 2]
    # Outside a with block the round closes its pool.
    assert executor._pool is None
    assert multiprocessing.active_children() == []
    with executor:
        first = executor.map(_pid_task, list(range(6)))
        pool = executor._pool
        second = executor.map(_pid_task, list(range(6)))
        assert executor._pool is pool  # one pool served both rounds
        assert multiprocessing.active_children() != []
    pids = {pid for _, pid in first + second}
    assert PARENT not in pids and len(pids) <= 2
    assert executor._pool is None
    assert multiprocessing.active_children() == []


def _picky(task: int) -> int:
    if task == 3:
        raise KeyError("task-level failure")
    return task


def test_unsupervised_task_errors_propagate_unchanged():
    executor = TaskExecutor(2)
    with pytest.raises(KeyError, match="task-level failure") as caught:
        executor.map(_picky, [1, 2, 3, 4])
    # The worker's traceback rides along as the cause.
    assert "_picky" in str(caught.value.__cause__)
    # The round's pool is dropped, workers and all.
    assert executor._pool is None
    assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# A task abandoned on timeout never holds up its round
# ----------------------------------------------------------------------
_TIMEOUT_SCRIPT = textwrap.dedent(
    """
    import time
    import warnings

    from repro.mc.executor import TaskExecutor
    from repro.supervision import SupervisionPolicy


    def nap(task):
        if task == 3:
            time.sleep(6.0)
        return task


    if __name__ == "__main__":
        policy = SupervisionPolicy(task_timeout=0.5, max_attempts=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            TaskExecutor(2, policy=policy).map(nap, [0, 1, 2, 3])
    """
)


def _nap(task: int) -> int:
    if task == 3:
        time.sleep(6.0)
    return task


def test_timed_out_task_is_killed_not_waited_for(tmp_path):
    policy = SupervisionPolicy(task_timeout=0.5, max_attempts=1)
    start = time.monotonic()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the quarantine notice
        results = TaskExecutor(2, policy=policy).map(_nap, [0, 1, 2, 3])
    elapsed = time.monotonic() - start
    assert results[:3] == [0, 1, 2]
    assert isinstance(results[3], Quarantined) and results[3].failure.kind == "timeout"
    assert elapsed < 2.0
    assert multiprocessing.active_children() == []
    # Nor does the interpreter wait for it at exit.
    script = tmp_path / "abandon.py"
    script.write_text(_TIMEOUT_SCRIPT)
    start = time.monotonic()
    subprocess.run(
        [sys.executable, str(script)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
        timeout=30,
    )
    assert time.monotonic() - start < 4.0


# ----------------------------------------------------------------------
# Reader thread vs submit: shared-state stress
# ----------------------------------------------------------------------
def test_reader_and_submit_share_state_safely():
    """Four workers on a small machine, ~2,000 tiny tasks and a very
    short switch interval: every index lands exactly once, in order."""
    tasks = list(range(2000))
    landed = Counter()
    rounds = []
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with TaskExecutor(4) as executor:
            results = executor.map(
                _square, tasks, on_result=lambda i, r: landed.update([i])
            )
            pool = executor._pool
            for start in range(0, 500, 20):  # short rounds: bursts meet results
                chunk = tasks[start : start + 20]
                rounds.append(executor.map(abs, [-t for t in chunk]))
                # Nothing outstanding between rounds: no update was lost.
                assert not pool._backlog
                assert all(not worker.futures for worker in pool._workers)
    finally:
        sys.setswitchinterval(previous)
    assert results == [t * t for t in tasks]
    assert [t for chunk in rounds for t in chunk] == tasks[:500]
    assert landed == Counter(tasks)
    assert not pool._reader.is_alive()  # close() joined it
    assert multiprocessing.active_children() == []


class _BreakingPool:
    """A fake worker pool for the property test: tasks run (counted) at
    submit until ``complete_first`` submits, then the pool is broken —
    either raising at submit or handing back futures that fail
    mid-round without ever running their task."""

    def __init__(self, complete_first, at_submit):
        self.complete_first = complete_first
        self.at_submit = at_submit
        self.submitted = 0

    def submit(self, fn, task):
        if self.submitted >= self.complete_first and self.at_submit:
            raise BrokenProcessPool("pool died while idle")
        self.submitted += 1
        future = Future()
        if self.submitted <= self.complete_first:
            future.set_result(fn(task))
        else:
            future.set_exception(BrokenProcessPool("worker died"))
        return future

    def shutdown(self):
        pass


@settings(max_examples=80, deadline=None)
@given(
    n_tasks=st.integers(0, 12),
    workers=st.integers(1, 4),
    break_after=st.integers(0, 12),
    at_submit=st.booleans(),
    later_pools_heal=st.booleans(),
    supervised=st.booleans(),
)
def test_dispatch_loop_keeps_one_result_per_task_in_order(
    n_tasks, workers, break_after, at_submit, later_pools_heal, supervised
):
    runs = Counter()
    pools = []

    def factory(workers):
        healthy = pools and later_pools_heal
        pools.append(_BreakingPool(10**6 if healthy else break_after, at_submit))
        return pools[-1]

    def tracked(task):
        runs[task] += 1
        return 10 * task

    landed = []
    policy = (
        SupervisionPolicy(transport_strikes=2, backoff_base=0.0, backoff_cap=0.0)
        if supervised
        else None
    )
    with mock.patch("repro.mc.pool.WorkerPool", factory):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            executor = TaskExecutor(workers, policy=policy)
            results = executor.map(
                tracked,
                list(range(n_tasks)),
                on_result=lambda index, result: landed.append(index),
            )
    assert results == [10 * task for task in range(n_tasks)]
    assert sorted(landed) == list(range(n_tasks))
    assert all(runs[task] == 1 for task in range(n_tasks))
