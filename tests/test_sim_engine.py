"""Unit tests for the discrete-event simulation kernel."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, fired.append, "c")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_ties_resolve_in_scheduling_order():
    sim = Simulator()
    fired = []
    for tag in "abcde":
        sim.schedule(1.0, fired.append, tag)
    sim.run()
    assert fired == list("abcde")


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(2.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.5]
    assert sim.now == 2.5


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(5.0, fired.append, "late")
    sim.run(until=2.0)
    assert fired == ["early"]
    assert sim.now == 2.0  # clock advanced to the horizon
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_advances_clock_even_with_no_events():
    sim = Simulator()
    sim.run(until=7.0)
    assert sim.now == 7.0


def test_max_events_bounds_execution():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i + 1), fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_exhausted_budget_does_not_move_clock_past_pending_events():
    sim = Simulator()
    fired = []
    for i in range(3):
        sim.schedule(0.0, fired.append, i)
    sim.run(until=0.5, max_events=1)
    assert fired == [0] and sim.now == 0.0 and sim.pending_events == 2
    assert sim.step() and fired == [0, 1]
    sim.run(until=0.5, max_events=1)
    assert fired == [0, 1, 2] and sim.now == 0.5


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    keep = sim.schedule(1.0, fired.append, "keep")
    drop = sim.schedule(1.0, fired.append, "drop")
    drop.cancel()
    sim.run()
    assert fired == ["keep"]
    assert not keep.cancelled


def test_cancel_via_simulator_method():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    sim.cancel(event)
    sim.run()
    assert fired == []


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def chain(n: int) -> None:
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(1.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 4.0


def test_stop_halts_run():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, sim.stop)
    sim.schedule(3.0, fired.append, "b")
    sim.run()
    assert fired == ["a"]
    sim.run()  # can resume afterwards
    assert fired == ["a", "b"]


def test_pending_and_executed_counters():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    e = sim.schedule(2.0, lambda: None)
    e.cancel()
    assert sim.pending_events == 1
    sim.run()
    assert sim.events_executed == 1


def test_step_returns_false_when_empty():
    sim = Simulator()
    assert sim.step() is False
    sim.schedule(1.0, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_run_is_not_reentrant():
    sim = Simulator()
    errors = []

    def reenter() -> None:
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, reenter)
    sim.run()
    assert len(errors) == 1


# ----------------------------------------------------------------------
# pending_events live counter (O(1), maintained on schedule/cancel/pop)
# ----------------------------------------------------------------------
def test_pending_events_counts_schedule_cancel_and_pop():
    sim = Simulator()
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(5)]
    assert sim.pending_events == 5
    events[0].cancel()
    events[3].cancel()
    assert sim.pending_events == 3
    sim.step()  # executes the event at t=2.0
    assert sim.pending_events == 2
    sim.run()
    assert sim.pending_events == 0


def test_double_cancel_decrements_once():
    sim = Simulator()
    e = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    e.cancel()
    e.cancel()
    sim.cancel(e)
    assert sim.pending_events == 1


def test_cancel_after_fire_does_not_corrupt_counter():
    sim = Simulator()
    e = sim.schedule(1.0, lambda: None)
    later = sim.schedule(2.0, lambda: None)
    sim.step()
    e.cancel()  # already fired: must be a no-op for the counter
    assert sim.pending_events == 1
    later.cancel()
    assert sim.pending_events == 0


def test_cancel_from_within_a_callback_keeps_counter_consistent():
    sim = Simulator()
    victim = sim.schedule(2.0, lambda: None)
    sim.schedule(1.0, victim.cancel)
    assert sim.pending_events == 2
    sim.run()
    assert sim.pending_events == 0
    assert sim.events_executed == 1


def test_pending_counter_matches_heap_scan_under_churn():
    import random as pyrandom

    sim = Simulator()
    rng = pyrandom.Random(9)
    live = []
    for _ in range(500):
        action = rng.random()
        if action < 0.5 or not live:
            live.append(sim.schedule(rng.uniform(0.0, 10.0), lambda: None))
        elif action < 0.8:
            live.pop(rng.randrange(len(live))).cancel()
        else:
            sim.run(until=sim.now + rng.uniform(0.0, 0.5))
            live = [e for e in live if not e.cancelled and e.time > sim.now]
    # Heap entries are [time, seq, fn, args] lists; fn is None for
    # cancelled (or already-fired) entries.
    scan = sum(1 for entry in sim._heap if entry[2] is not None)
    assert sim.pending_events == scan


# ----------------------------------------------------------------------
# Fast-path kernel edge cases (list-entry heap, recycled-slot guard,
# no-handle scheduling, in-place compaction)
# ----------------------------------------------------------------------
def test_cancel_after_fire_is_safe_even_after_later_scheduling():
    """A late cancel() must stay a no-op once the event fired — even if
    new events have since been scheduled (the sequence-number guard, not
    object identity, is what protects the pending count)."""
    sim = Simulator()
    fired = []
    stale = sim.schedule(1.0, fired.append, "a")
    sim.run()
    replacements = [sim.schedule(1.0, fired.append, i) for i in range(50)]
    pending_before = sim.pending_events
    stale.cancel()
    stale.cancel()
    assert sim.pending_events == pending_before
    sim.run()
    assert len(fired) == 1 + len(replacements)


def test_schedule_at_now_during_run_executes_in_same_run():
    sim = Simulator()
    fired = []

    def first() -> None:
        fired.append("first")
        sim.schedule_at(sim.now, fired.append, "same-time")
        sim.schedule(0.0, fired.append, "zero-delay")

    sim.schedule(1.0, first)
    sim.run()
    assert fired == ["first", "same-time", "zero-delay"]
    assert sim.now == 1.0


def test_schedule_fast_interleaves_fifo_with_schedule():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "handle-1")
    sim.schedule_fast(1.0, fired.append, "fast-1")
    sim.schedule(1.0, fired.append, "handle-2")
    sim.schedule_fast(1.0, fired.append, "fast-2")
    sim.run()
    assert fired == ["handle-1", "fast-1", "handle-2", "fast-2"]


def test_schedule_fast_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_fast(-1e-9, lambda: None)
    assert sim.pending_events == 0


def test_mass_cancellation_compacts_heap():
    """Cancelled entries must not accumulate: after cancelling the bulk
    of a large heap, the heap itself shrinks (in-place compaction) and
    the survivors still fire in order."""
    sim = Simulator()
    fired = []
    doomed = [sim.schedule(float(i + 1), lambda: None) for i in range(5000)]
    keep = [sim.schedule(10_000.0 + i, fired.append, i) for i in range(3)]
    for event in doomed:
        event.cancel()
    assert sim.pending_events == len(keep)
    assert len(sim._heap) < 1000  # compaction ran; dead entries dropped
    sim.run()
    assert fired == [0, 1, 2]
    assert all(not e.cancelled for e in keep)


def test_compaction_during_run_keeps_heap_identity():
    """A callback that mass-cancels mid-run triggers compaction while
    run() holds a local reference to the heap; the in-place rebuild must
    keep that reference valid (later events still execute)."""
    sim = Simulator()
    fired = []
    doomed = [sim.schedule(50.0 + i, lambda: None) for i in range(500)]

    def massacre() -> None:
        for event in doomed:
            event.cancel()

    sim.schedule(1.0, massacre)
    sim.schedule(2.0, fired.append, "after")
    sim.run()
    assert fired == ["after"]
    assert sim.pending_events == 0


def test_pending_events_invariant_under_mixed_fast_and_handle_churn():
    import random as pyrandom

    sim = Simulator()
    rng = pyrandom.Random(17)
    live = []
    for _ in range(800):
        action = rng.random()
        if action < 0.35:
            live.append(sim.schedule(rng.uniform(0.0, 10.0), lambda: None))
        elif action < 0.6:
            sim.schedule_fast(rng.uniform(0.0, 10.0), lambda: None)
        elif action < 0.8 and live:
            live.pop(rng.randrange(len(live))).cancel()
        else:
            sim.run(until=sim.now + rng.uniform(0.0, 0.4))
    scan = sum(1 for entry in sim._heap if entry[2] is not None)
    assert sim.pending_events == scan
    sim.run()
    assert sim.pending_events == 0
