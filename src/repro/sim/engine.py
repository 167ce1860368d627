"""Discrete-event simulation kernel.

The kernel is a classic event-heap scheduler: callbacks are scheduled at
simulated times and executed in time order (FIFO among equal times).  All
higher layers — network delivery, protocol timers, re-randomization
epochs, attacker probe pacing — are built on :class:`Simulator`.

Hot-path design (every protocol probe, message and timer passes through
here, so single-run campaign throughput is bounded by this file):

* heap entries are plain 4-slot lists ``[time, seq, fn, args]`` — heap
  sifting compares floats and ints at C speed instead of calling a
  rich-comparison method per element;
* per-event storage is a single small list whose allocation hits
  CPython's built-in C-level list free list — measurably faster than a
  Python-level entry-recycling pool (which was tried and removed), and
  no rich Python object is allocated per event;
* :meth:`Simulator.schedule_fast` (relative delay) and
  :meth:`Simulator.schedule_at` (absolute time) serve the many call
  sites that never cancel (message delivery, probe pacing, respawns,
  fault plans): no :class:`Event` handle is allocated at all;
* :meth:`Simulator.run` pops the heap inline instead of peeking through
  a helper and re-popping in :meth:`Simulator.step`: it pops first and
  pushes back the one entry that lies past ``until`` (or past the event
  budget), so a live event costs one heap operation, not a peek and a
  pop;
* no per-event counter is kept for :attr:`Simulator.pending_events`: it
  is the heap length less the cancelled entries still in the heap, a
  count that changes only on cancel, on a cancelled pop and on
  compaction;
* mass cancellation compacts the heap in place once cancelled entries
  outnumber live ones, so abandoned timers cannot grow it without bound.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from ..errors import SimulationError
from .rng import RngRegistry

#: Heap-entry slot indices (an entry is ``[time, seq, fn, args]``; a
#: ``fn`` of ``None`` marks the entry cancelled or already fired).
_TIME, _SEQ, _FN, _ARGS = 0, 1, 2, 3

#: Compaction threshold: rebuild the heap in place once more than this
#: many cancelled entries linger *and* they outnumber the live ones.
_COMPACT_MIN_CANCELLED = 64


class Event:
    """Cancellation handle for a scheduled callback.

    Handles are views onto kernel heap entries.  The kernel recycles
    entries after they fire, so a handle guards every operation with its
    sequence number: once the underlying entry has fired (or has been
    reused for a later event), :meth:`cancel` is a safe no-op — a late
    ``cancel()`` can never corrupt the cancelled count or kill an
    unrelated event that happens to occupy the recycled slot.
    """

    __slots__ = ("time", "seq", "cancelled", "_sim", "_entry")

    def __init__(self, sim: "Simulator", entry: list) -> None:
        self.time: float = entry[_TIME]
        self.seq: int = entry[_SEQ]
        self.cancelled = False
        self._sim = sim
        self._entry = entry

    def cancel(self) -> None:
        """Prevent the event from firing; safe to call more than once
        (and after the event has already fired)."""
        if self.cancelled:
            return
        self.cancelled = True
        entry = self._entry
        self._entry = None
        # Generation guard: only a live entry still carrying our
        # sequence number is ours to cancel.
        if entry[_SEQ] == self.seq and entry[_FN] is not None:
            entry[_FN] = None
            entry[_ARGS] = None
            self._sim._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "scheduled"
        return f"<Event #{self.seq} t={self.time:.3f} {state}>"


class Simulator:
    """Event-driven simulator with a virtual clock.

    Parameters
    ----------
    seed:
        Root seed for the registry of named RNG streams
        (see :class:`repro.sim.rng.RngRegistry`).

    Examples
    --------
    >>> sim = Simulator(seed=1)
    >>> fired = []
    >>> _ = sim.schedule(2.0, fired.append, "a")
    >>> _ = sim.schedule(1.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    """

    __slots__ = (
        "now",
        "rng",
        "_heap",
        "_seq",
        "_events_executed",
        "_running",
        "_stopped",
        "_cancelled_in_heap",
        "_compactions",
    )

    def __init__(self, seed: int = 0) -> None:
        self.now: float = 0.0
        self.rng = RngRegistry(seed)
        self._heap: list[list] = []
        self._seq = 0
        self._events_executed = 0
        self._running = False
        self._stopped = False
        self._cancelled_in_heap = 0  # dead entries awaiting pop/compaction
        self._compactions = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _push(self, time: float, fn: Callable[..., None], args: tuple) -> list:
        """Allocate and push one heap entry."""
        seq = self._seq = self._seq + 1
        entry = [time, seq, fn, args]
        heapq.heappush(self._heap, entry)
        return entry

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return Event(self, self._push(self.now + delay, fn, args))

    def schedule_at(self, time: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute simulated ``time``.

        No :class:`Event` handle is made: every caller (fault plans,
        heartbeat grid points, duty-cycle wake-ups) is fire-and-forget.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self.now}"
            )
        self._push(time, fn, args)

    def schedule_fast(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """No-handle fast path: schedule ``fn(*args)`` ``delay`` from now.

        Identical semantics to :meth:`schedule` except that no
        :class:`Event` handle is allocated, so the event cannot be
        cancelled.  Hot call sites that fire-and-forget (message
        delivery, probe pacing, respawn timers) use this to keep the
        per-event cost down to one recycled heap entry.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        # _push, inlined: this is the single hottest call in the stack.
        seq = self._seq = self._seq + 1
        heapq.heappush(self._heap, [self.now + delay, seq, fn, args])

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event."""
        event.cancel()

    def _note_cancel(self) -> None:
        """Bookkeeping for one cancelled-in-heap entry (+ compaction)."""
        cancelled = self._cancelled_in_heap = self._cancelled_in_heap + 1
        heap = self._heap
        if cancelled > _COMPACT_MIN_CANCELLED and cancelled * 2 > len(heap):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, preserving identity.

        In place (slice assignment) so that a ``run()`` loop holding a
        local reference to the heap keeps seeing the live structure even
        when a callback's cancellations trigger compaction mid-run.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[_FN] is not None]
        heapq.heapify(heap)
        self._cancelled_in_heap = 0
        self._compactions += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event.

        Returns ``True`` if an event ran, ``False`` if the heap is empty.
        """
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            fn = entry[_FN]
            if fn is None:  # cancelled: no longer in the heap
                self._cancelled_in_heap -= 1
                continue
            time = entry[_TIME]
            if time < self.now:  # pragma: no cover - defensive
                raise SimulationError("event heap yielded an event from the past")
            entry[_FN] = None
            self.now = time
            fn(*entry[_ARGS])
            self._events_executed += 1
            return True
        return False

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> None:
        """Run events until the heap empties, ``until`` is reached, or
        ``max_events`` have executed (whichever comes first).

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fired earlier, so periodic processes can be
        resumed cleanly -- unless ``max_events`` ran out while a live event
        at or before ``until`` was still waiting: the clock never passes a
        pending event.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        self._running = True
        self._stopped = False
        horizon = float("inf") if until is None else until
        budget = -1 if max_events is None else max_events
        executed = 0
        exhausted = False
        heap = self._heap
        pop = heapq.heappop
        # Entry slots are indexed by literal (0 time, 2 fn, 3 args): a
        # literal index is a constant load, the _TIME/_FN/_ARGS names a
        # global lookup each, four times per event.
        try:
            while heap and not self._stopped:
                entry = pop(heap)
                fn = entry[2]
                if fn is None:  # cancelled: discard
                    self._cancelled_in_heap -= 1
                    continue
                time = entry[0]
                if time > horizon or executed == budget:
                    # The entry goes back unchanged: (time, seq) keys
                    # are unique, so the pop order cannot change.  A
                    # budget spent before ``until`` keeps the clock here.
                    heapq.heappush(heap, entry)
                    exhausted = time <= horizon
                    break
                self.now = time
                # fn is cleared so a live Event handle's late cancel()
                # sees a consumed entry (args may keep their reference:
                # the entry itself is garbage after this pop).
                entry[2] = None
                fn(*entry[3])
                executed += 1
        finally:
            self._running = False
            self._events_executed += executed
            if (
                until is not None
                and self.now < until
                and not self._stopped
                and not exhausted
            ):
                self.now = until

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of scheduled, non-cancelled events.

        O(1) and without a per-event counter: every heap entry is live
        except the cancelled ones still in it, which the kernel counts
        (an entry that fired has left the heap).
        """
        return len(self._heap) - self._cancelled_in_heap

    @property
    def events_executed(self) -> int:
        """Total number of events executed so far."""
        return self._events_executed

    @property
    def heap_compactions(self) -> int:
        """Number of in-place heap compactions performed so far."""
        return self._compactions

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now:.3f}, pending={self.pending_events})"
