"""The process pool behind :class:`~repro.mc.executor.LocalPoolBackend`.

:class:`WorkerPool` forks its workers, gives each its own duplex pipe
and resolves every task's ``Future`` from one reader thread.  It is a
bare transport: ordering, retries and every recovery path stay in
:meth:`~repro.mc.executor.TaskExecutor.map`, which sees a dead worker
as ``BrokenProcessPool``, exactly as with the standard library's pool.
The executor imports this module on the first pool start only.
"""

from __future__ import annotations

import multiprocessing
import pickle
import selectors
import signal
import threading
import traceback
from collections import deque
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from typing import Callable

#: A worker holds at most this many tasks: the one it runs and one
#: queued behind it in its pipe, so it never waits on the orchestrator.
_DEPTH = 2
#: Only a task pickled smaller than this queues behind a running one.
#: The reader thread sends it while the worker may be writing a result,
#: so it must fit the pipe's buffer; a larger task waits for an idle
#: worker, which is reading.
_QUEUE_BYTES = 1 << 15
#: Seconds a stopped idle worker gets to exit before it is killed.
_STOP_GRACE = 5.0


def _serve(conn, stale: list) -> None:
    """A worker's loop: run each pickled ``(fn, task)`` and send back
    ``(None, result)`` or ``(traceback text, exception)``, until the
    empty stop message or EOF.

    ``stale`` holds every other pipe end the fork copied in; closing
    them lets each pipe report EOF as soon as its own worker dies.
    """
    # The orchestrator owns interrupts and stops its workers itself; a
    # forked copy of its SIGTERM handler would raise KeyboardInterrupt.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    for other in stale:
        other.close()
    while True:
        try:
            payload = conn.recv_bytes()
        except EOFError:
            return
        if not payload:
            return
        try:
            fn, task = pickle.loads(payload)
            reply = (None, fn(task))
        except Exception as exc:  # the future carries it
            reply = (_format_exception(exc), exc)
        try:
            data = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # an unpicklable result or exception
            data = pickle.dumps((_format_exception(exc), exc), pickle.HIGHEST_PROTOCOL)
        conn.send_bytes(data)


def _format_exception(exc: BaseException) -> str:
    return "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))


class _RemoteTraceback(Exception):
    """A worker's formatted traceback, chained as an exception's cause."""

    def __str__(self) -> str:
        return f'\n"""\n{self.args[0]}"""'


class _Worker:
    """One forked worker: its process, the orchestrator's end of its
    pipe, and the futures of the tasks sent to it, running one first."""

    __slots__ = ("process", "conn", "futures")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.futures: deque[Future] = deque()


def _held(worker: _Worker) -> int:
    return len(worker.futures)


class WorkerPool:
    """``workers`` forked processes, each with its own duplex pipe.

    :meth:`submit` pickles a task in the calling thread and sends it
    straight to a worker with room; otherwise the task waits in the
    backlog.  One reader thread receives every result, refills that
    worker from the backlog and resolves the task's future.  A worker
    holds the task it runs plus — while at least as many tasks wait as
    there are workers — one queued behind it, so it never idles between
    tasks, yet the last tasks of a round go to whichever worker frees
    first.  ``_lock`` guards the backlog, every worker's futures and
    every send.

    Workers fork (not spawn: a spawned worker re-imports the package,
    which every pool start would pay) before the reader thread starts,
    so no fork copies a thread of the pool.  They are daemons, so an
    interpreter that exits without closing the pool terminates them
    instead of waiting on their tasks.  A worker that dies breaks
    the pool, as it would break the standard library's process pool:
    every outstanding future and every later :meth:`submit` fails with
    ``BrokenProcessPool``.
    """

    def __init__(self, workers: int) -> None:
        context = multiprocessing.get_context("fork")
        pipes = [context.Pipe() for _ in range(workers)]
        ends = [end for pair in pipes for end in pair]
        self._workers: list[_Worker] = []
        try:
            for own, child in pipes:
                stale = [end for end in ends if end is not child]
                process = context.Process(
                    target=_serve, args=(child, stale), name="repro-worker", daemon=True
                )
                process.start()
                self._workers.append(_Worker(process, own))
        except BaseException:
            for worker in self._workers:
                worker.process.kill()
                worker.process.join()
            for end in ends:
                end.close()
            raise
        for _, child in pipes:
            child.close()
        self._lock = threading.Lock()
        self._backlog: deque[tuple[Future, bytes]] = deque()
        self._broken: str | None = None
        self._closing = False
        self._reader = threading.Thread(
            target=self._read, name="repro-pool-reader", daemon=True
        )
        self._reader.start()

    def submit(self, fn: Callable, task) -> Future:
        self._check()
        future: Future = Future()
        try:
            payload = pickle.dumps((fn, task), pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # the task's own fault: fail its future only
            future.set_exception(exc)
            return future
        with self._lock:
            self._check()  # it may have broken while the task was pickled
            self._backlog.append((future, payload))
            self._dispatch()
        return future

    def _check(self) -> None:
        if self._broken is not None:
            raise BrokenProcessPool(self._broken)

    def _dispatch(self) -> None:
        """Send waiting tasks to workers with room (``_lock`` held)."""
        backlog, workers = self._backlog, self._workers
        while backlog:
            worker = min(workers, key=_held)
            held = len(worker.futures)
            if held and (
                held >= _DEPTH
                or len(backlog) < len(workers)
                or len(backlog[0][1]) > _QUEUE_BYTES
            ):
                return
            future, payload = backlog.popleft()
            if not future.set_running_or_notify_cancel():
                continue  # cancelled while it waited
            worker.futures.append(future)
            try:
                worker.conn.send_bytes(payload)
            except OSError:
                return  # a dead worker: its EOF breaks the pool

    def _read(self) -> None:
        """The reader thread: resolve every result until all pipes close."""
        selector = selectors.DefaultSelector()
        for worker in self._workers:
            selector.register(worker.conn, selectors.EVENT_READ, worker)
        try:
            while selector.get_map():
                for key, _ in selector.select():
                    worker = key.data
                    try:
                        data = worker.conn.recv_bytes()
                    except (EOFError, OSError):
                        selector.unregister(worker.conn)
                        self._lost(worker)
                        continue
                    with self._lock:
                        if not worker.futures:
                            continue  # already failed by a broken pool
                        future = worker.futures.popleft()
                        self._dispatch()
                    _resolve(future, data)
        finally:
            selector.close()

    def _lost(self, worker: _Worker) -> None:
        """Fail the futures of a worker whose pipe closed.  Unless the
        pool is shutting down, that breaks it: every other worker is
        killed and every outstanding future fails."""
        with self._lock:
            running = list(worker.futures)
            worker.futures.clear()
            waiting = []
            if not self._closing and self._broken is None:
                self._broken = f"worker {worker.process.pid} terminated abruptly"
                for other in self._workers:
                    running += other.futures
                    other.futures.clear()
                    other.process.kill()
                waiting = [future for future, _ in self._backlog]
                self._backlog.clear()
        error = BrokenProcessPool(self._broken or "the worker pool was shut down")
        for future in running:
            future.set_exception(error)
        for future in waiting:
            if future.set_running_or_notify_cancel():
                future.set_exception(error)

    def shutdown(self) -> None:
        """Cancel waiting tasks, stop idle workers, kill busy ones and
        join everything.  Nobody waits for a busy worker's task: the
        round abandoned it on timeout, or requeues it after a fault."""
        with self._lock:
            self._closing = True
            waiting = [future for future, _ in self._backlog]
            self._backlog.clear()
            for worker in self._workers:
                if worker.futures:
                    worker.process.kill()
                    continue
                try:
                    worker.conn.send_bytes(b"")
                except OSError:
                    pass  # already gone
        for future in waiting:
            future.cancel()
        for worker in self._workers:
            worker.process.join(_STOP_GRACE)
            if worker.process.exitcode is None:
                worker.process.kill()
                worker.process.join()
            worker.process.close()
        self._reader.join()  # every pipe has closed, so the reader has ended
        for worker in self._workers:
            worker.conn.close()


def _resolve(future: Future, data: bytes) -> None:
    """Settle a future from a worker's reply."""
    try:
        error, value = pickle.loads(data)
    except Exception as exc:  # a result that cannot be rebuilt here
        future.set_exception(exc)
        return
    if error is None:
        future.set_result(value)
        return
    value.__cause__ = _RemoteTraceback(error)
    future.set_exception(value)
