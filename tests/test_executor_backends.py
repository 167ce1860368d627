"""Tests for the executor's dispatch loop and its transport backends.

Locks down the :class:`~repro.mc.executor.ExecutorBackend` transport
split and — with a monkeypatched flaky pool — the exactly-once /
in-order guarantees of :meth:`~repro.mc.executor.TaskExecutor.map`'s
pool-breakage recovery:

* mid-map breakage keeps every result a worker already computed and
  re-runs only the unfinished tasks, serially, in input order;
* submit-time breakage shuts the pool down (cancelling queued work)
  *before* the serial re-run, so no task's result can be produced by
  both a worker and the fallback;
* a property test over task count, workers, break point and policy:
  one result per task in input order, ``on_result`` once per index,
  every kept result from a task that ran exactly once.
"""

from __future__ import annotations

import warnings
from collections import Counter
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.mc.executor import (
    ExecutorBackend,
    LocalPoolBackend,
    SerialBackend,
    TaskExecutor,
    backend_for,
)
from repro.supervision import SupervisionPolicy


def _square(x: int) -> int:
    return x * x


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
            self.opened = self.closed = False

        def submit(self, fn, task):
            self.calls.append(task)
            future = Future()
            future.set_result(fn(task))
            return future

        def open(self):
            self.opened = True

        def close(self):
            self.closed = True

    backend = RecordingBackend()
    with TaskExecutor(backend=backend) as executor:
        assert executor.map(_square, [2, 5]) == [4, 25]
        assert not backend.closed  # the scope keeps the transport open
    assert backend.calls == [2, 5]
    assert backend.opened and backend.closed


# ----------------------------------------------------------------------
# Flaky-pool regression battery
# ----------------------------------------------------------------------
class FlakyPool:
    """A fake process pool that breaks after ``complete_first`` tasks.

    Completed futures carry real results (computed in-process, counted
    per task); the rest raise :class:`BrokenProcessPool` from
    ``result()`` — exactly how a pool whose worker died mid-campaign
    behaves.  ``events`` records the interleaving of executions and
    shutdown so tests can assert recovery ordering.
    """

    def __init__(self, fn_log, events, complete_first):
        self.fn_log = fn_log
        self.events = events
        self.complete_first = complete_first
        self.submitted = 0
        self.shutdown_args = None

    def submit(self, fn, task):
        future = Future()
        if self.submitted < self.complete_first:
            self.fn_log.append(("pool", task))
            future.set_result(fn(task))
        else:
            future.set_exception(BrokenProcessPool("worker died"))
        self.submitted += 1
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        self.events.append("shutdown")
        self.shutdown_args = {"wait": wait, "cancel_futures": cancel_futures}


def _flaky_backend(monkeypatch, fn_log, events, *, complete_first):
    pools = []

    def factory(max_workers=None):
        pool = FlakyPool(fn_log, events, complete_first)
        pools.append(pool)
        return pool

    monkeypatch.setattr("repro.mc.executor.ProcessPoolExecutor", factory)
    return TaskExecutor(backend=LocalPoolBackend(2)), pools


def test_midmap_breakage_keeps_results_ordered_exactly_once(monkeypatch):
    fn_log, events = [], []
    backend, pools = _flaky_backend(monkeypatch, fn_log, events, complete_first=2)
    tasks = [5, 6, 7, 8]

    def tracked(task):
        events.append(("run", task))
        return _square(task)

    with pytest.warns(RuntimeWarning, match="process pool unavailable"):
        results = backend.map(tracked, tasks)
    # In order, nothing lost, nothing duplicated.
    assert results == [25, 36, 49, 64]
    pool_ran = [task for kind, task in fn_log if kind == "pool"]
    tracked_ran = [event[1] for event in events if event != "shutdown"]
    assert pool_ran == [5, 6]
    assert tracked_ran == [5, 6, 7, 8]  # tracked fn ran once per task
    assert [pool.shutdown_args for pool in pools] == [
        {"wait": False, "cancel_futures": True}
    ]


def test_submit_breakage_cancels_pool_before_serial_rerun(monkeypatch):
    fn_log, events = [], []
    backend, pools = _flaky_backend(monkeypatch, fn_log, events, complete_first=0)
    # Break at submit time: the pool raises on the first submit call.
    pools_submit = FlakyPool.submit

    def raising_submit(self, fn, task):
        raise BrokenProcessPool("pool died while idle")

    monkeypatch.setattr(FlakyPool, "submit", raising_submit)
    tasks = [2, 3, 4]

    def tracked(task):
        events.append(("run", task))
        return _square(task)

    with pytest.warns(RuntimeWarning, match="process pool unavailable"):
        results = backend.map(tracked, tasks)
    monkeypatch.setattr(FlakyPool, "submit", pools_submit)
    assert results == [4, 9, 16]
    # The broken pool was shut down with cancellation BEFORE any serial
    # execution — queued tasks cannot race the fallback.  (A second,
    # idempotent shutdown from the cleanup path may trail the runs.)
    assert events[0] == "shutdown"
    assert [e for e in events if e != "shutdown"] == [
        ("run", 2),
        ("run", 3),
        ("run", 4),
    ]
    assert pools[0].shutdown_args == {"wait": False, "cancel_futures": True}


def test_pool_start_failure_falls_back_serially(monkeypatch):
    def no_pools(max_workers=None):
        raise OSError("no more processes")

    monkeypatch.setattr("repro.mc.executor.ProcessPoolExecutor", no_pools)
    executor = TaskExecutor(backend=LocalPoolBackend(2))
    with pytest.warns(RuntimeWarning, match="process pool unavailable"):
        assert executor.map(_square, [1, 2, 3]) == [1, 4, 9]


def test_persistent_flaky_pool_is_replaced_next_round(monkeypatch):
    """A broken persistent pool is discarded; the next map() round gets
    a fresh one instead of resubmitting into the corpse."""
    fn_log, events = [], []
    executor, pools = _flaky_backend(monkeypatch, fn_log, events, complete_first=1)
    with executor:
        with pytest.warns(RuntimeWarning):
            assert executor.map(_square, [1, 2]) == [1, 4]
        assert executor._pool is None
        # Second round: fresh pool (its first task completes again).
        with pytest.warns(RuntimeWarning):
            assert executor.map(_square, [3, 4]) == [9, 16]
    assert len(pools) == 2


def test_single_task_short_circuits_the_pool(monkeypatch):
    def no_pools(max_workers=None):  # pragma: no cover - must not be hit
        raise AssertionError("single-task map must not build a pool")

    monkeypatch.setattr("repro.mc.executor.ProcessPoolExecutor", no_pools)
    executor = TaskExecutor(backend=LocalPoolBackend(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert executor.map(_square, [7]) == [49]
        assert executor.map(_square, []) == []


def test_pool_lives_only_inside_the_with_block(monkeypatch):
    fn_log, events = [], []
    executor, pools = _flaky_backend(monkeypatch, fn_log, events, complete_first=99)
    assert executor.map(_square, [1, 2]) == [1, 4]
    # Outside a with block the round closes its pool (gracefully).
    assert executor._pool is None
    assert pools[0].shutdown_args == {"wait": True, "cancel_futures": False}
    with executor:
        executor.map(_square, [3, 4])
        executor.map(_square, [5, 6])
        assert executor._pool is pools[1]  # one pool served both rounds
    assert executor._pool is None and len(pools) == 2


def test_unsupervised_task_errors_propagate_unchanged(monkeypatch):
    fn_log, events = [], []
    executor, pools = _flaky_backend(monkeypatch, fn_log, events, complete_first=99)

    def picky(task):
        if task == 3:
            raise KeyError("task-level failure")
        return task

    with pytest.raises(KeyError, match="task-level failure"):
        executor.map(picky, [1, 2, 3, 4])
    # The round's pool is dropped without waiting on queued work.
    assert pools[0].shutdown_args == {"wait": False, "cancel_futures": True}


class _BreakingPool:
    """FlakyPool variant for the property test: tasks run (counted) at
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

    def shutdown(self, wait=True, cancel_futures=False):
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

    def factory(max_workers=None):
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
    with mock.patch("repro.mc.executor.ProcessPoolExecutor", factory):
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
