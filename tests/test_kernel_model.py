"""Model-based property test of the event kernel.

Random programs of ``schedule``, ``schedule_fast``, ``schedule_at``,
``cancel`` (also late, after the event fired, and from inside
callbacks), ``run(until=…)``, ``run(max_events=…)``, ``step`` and
``stop`` drive :class:`~repro.sim.engine.Simulator` and a
naive reference scheduler that keeps every entry in a sorted list.
After every operation both must agree on the firing order, ``now``,
``events_executed`` and ``heap_compactions``; ``pending_events`` must
equal the reference's live count and a scan of the kernel's heap.

The reference states the kernel's rules in the plainest form:

* entries fire in ``(time, seq)`` order, one sequence number per
  successful schedule call of any kind;
* a cancel marks a live entry dead; a dead entry leaves the list when it
  reaches the front, or when more than the compaction threshold of dead
  entries linger and they outnumber the live ones (one compaction);
* ``run`` stops at an empty list, a ``stop()``, the first live entry
  past ``until`` or after ``max_events`` events, and then advances the
  clock to ``until`` unless it was stopped or its budget ran out before
  a live entry at or before ``until``.
"""

from __future__ import annotations

import math
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import engine
from repro.sim.engine import Simulator


class _RefHandle:
    def __init__(self, ref: "Reference", entry: dict) -> None:
        self._ref = ref
        self._entry = entry

    def cancel(self) -> None:
        self._ref.cancel_entry(self._entry)


class Reference:
    """Sorted-list scheduler with the kernel's observable semantics."""

    def __init__(self, threshold: int) -> None:
        self.now = 0.0
        self.events_executed = 0
        self.heap_compactions = 0
        self._threshold = threshold
        self._seq = 0
        self._entries: list[dict] = []  # sorted by (time, seq)
        self._dead = 0
        self._stopped = False

    def _add(self, time: float, fn, args: tuple) -> dict:
        self._seq += 1
        entry = {"time": time, "seq": self._seq, "fn": fn, "args": args}
        entry["state"] = "live"
        self._entries.append(entry)
        self._entries.sort(key=lambda e: (e["time"], e["seq"]))
        return entry

    def schedule(self, delay: float, fn, *args) -> _RefHandle:
        if delay < 0:
            raise SimulationError("past")
        return _RefHandle(self, self._add(self.now + delay, fn, args))

    def schedule_fast(self, delay: float, fn, *args) -> None:
        self.schedule(delay, fn, *args)

    def schedule_at(self, time: float, fn, *args) -> None:
        if time < self.now:
            raise SimulationError("past")
        self._add(time, fn, args)

    def cancel_entry(self, entry: dict) -> None:
        if entry["state"] != "live":
            return
        entry["state"] = "dead"
        self._dead += 1
        if self._dead > self._threshold and self._dead * 2 > len(self._entries):
            self._entries = [e for e in self._entries if e["state"] == "live"]
            self._dead = 0
            self.heap_compactions += 1

    def _next_live(self) -> dict | None:
        while self._entries and self._entries[0]["state"] == "dead":
            self._entries.pop(0)
            self._dead -= 1
        return self._entries[0] if self._entries else None

    def _fire(self, entry: dict) -> None:
        self._entries.pop(0)
        self.now = entry["time"]
        entry["state"] = "fired"
        entry["fn"](*entry["args"])

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        self._stopped = False
        horizon = math.inf if until is None else until
        executed = 0
        exhausted = False
        while not self._stopped:
            entry = self._next_live()
            if entry is None or entry["time"] > horizon:
                break
            if executed == max_events:
                exhausted = True
                break
            self._fire(entry)
            executed += 1
        self.events_executed += executed
        if until is not None and self.now < until and not (self._stopped or exhausted):
            self.now = until

    def step(self) -> bool:
        entry = self._next_live()
        if entry is None:
            return False
        self._fire(entry)
        self.events_executed += 1
        return True

    def stop(self) -> None:
        self._stopped = True

    @property
    def pending_events(self) -> int:
        return sum(1 for e in self._entries if e["state"] == "live")


class Runner:
    """Applies one program to one scheduler and logs what fires."""

    def __init__(self, scheduler) -> None:
        self.s = scheduler
        self.handles: list = []
        self.log: list[tuple] = []

    def fire(self, tag: int, effect: tuple) -> None:
        self.log.append((tag, self.s.now))
        kind = effect[0]
        if kind == "stop":
            self.s.stop()
        elif kind == "chain":
            _, delay, fast = effect
            if fast:
                self.s.schedule_fast(delay, self.fire, -tag, ("record",))
            else:
                self.handles.append(
                    self.s.schedule(delay, self.fire, -tag, ("record",))
                )
        elif kind == "cancel" and self.handles:
            self.handles[effect[1] % len(self.handles)].cancel()

    def apply(self, tag: int, op: tuple) -> object:
        name = op[0]
        s = self.s
        if name == "schedule":
            self.handles.append(s.schedule(op[1], self.fire, tag, op[2]))
        elif name == "schedule_at":
            s.schedule_at(s.now + op[1], self.fire, tag, op[2])
        elif name == "schedule_fast":
            s.schedule_fast(op[1], self.fire, tag, op[2])
        elif name == "past":
            method = getattr(s, op[1])
            when = -1e-9 if op[1] in ("schedule", "schedule_fast") else s.now - 0.5
            try:
                method(when, self.fire, tag, ("record",))
            except SimulationError:
                return "refused"
            return "accepted"
        elif name == "cancel":
            if self.handles:
                self.handles[op[1] % len(self.handles)].cancel()
        elif name == "run":
            s.run(until=None if op[1] is None else s.now + op[1], max_events=op[2])
        elif name == "step":
            return s.step()
        elif name == "stop":
            s.stop()
        return None


delays = st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 4.0)
effects = st.one_of(
    st.just(("record",)),
    st.just(("stop",)),
    st.tuples(st.just("chain"), delays, st.booleans()),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
)
ops = st.one_of(
    st.tuples(
        st.sampled_from(["schedule", "schedule_fast", "schedule_at"]),
        delays,
        effects,
    ),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    st.tuples(
        st.just("run"),
        st.none() | delays,
        st.none() | st.integers(0, 6),
    ),
    st.tuples(st.just("step")),
    st.tuples(st.just("stop")),
    st.tuples(
        st.just("past"),
        st.sampled_from(["schedule", "schedule_fast", "schedule_at"]),
    ),
)


def _heap_scan(sim: Simulator) -> int:
    return sum(1 for entry in sim._heap if entry[2] is not None)


@given(
    program=st.lists(ops, max_size=70),
    threshold=st.sampled_from([0, 1, 3, engine._COMPACT_MIN_CANCELLED]),
)
@settings(max_examples=300, deadline=None)
def test_kernel_matches_sorted_list_reference(program, threshold):
    with mock.patch.object(engine, "_COMPACT_MIN_CANCELLED", threshold):
        kernel, model = Runner(Simulator(seed=0)), Runner(Reference(threshold))
        for tag, op in enumerate(program, start=1):
            assert kernel.apply(tag, op) == model.apply(tag, op), op
            sim, ref = kernel.s, model.s
            assert kernel.log == model.log, op
            assert sim.now == ref.now
            assert sim.events_executed == ref.events_executed
            assert sim.heap_compactions == ref.heap_compactions
            assert sim.pending_events == ref.pending_events == _heap_scan(sim)
        while kernel.s.pending_events:  # each run fires at least one event
            kernel.s.run()
            model.s.run()
        assert kernel.log == model.log
        assert model.s.pending_events == 0
        assert kernel.s.pending_events == 0 == _heap_scan(kernel.s)


def test_run_until_leaves_the_entry_past_the_horizon_in_place():
    """The pop-first loop pushes the one entry past ``until`` back: it
    still fires, and nothing else moves."""
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    late = sim.schedule(5.0, fired.append, "late")
    sim.schedule_fast(5.0, fired.append, "tie")
    sim.run(until=2.0)
    assert fired == ["a"] and sim.now == 2.0 and sim.pending_events == 2
    sim.run(until=3.0)
    assert sim.pending_events == 2 and len(sim._heap) == 2
    late.cancel()
    sim.run()
    assert fired == ["a", "tie"] and sim.pending_events == 0
