"""Unit tests for the attacker's guess bookkeeping."""

from __future__ import annotations

import random

import pytest

from repro.attacker.keytracker import KeyGuessTracker
from repro.errors import ConfigurationError
from repro.randomization.keyspace import KeySpace


def make_tracker(entropy=6, seed=1):
    return KeyGuessTracker(KeySpace(entropy), random.Random(seed))


def test_guesses_never_repeat_until_exhaustion():
    tracker = make_tracker(entropy=6)  # 64 keys
    guesses = [tracker.next_guess() for _ in range(64)]
    assert len(set(guesses)) == 64
    assert sorted(guesses) == list(range(64))
    assert tracker.exhausted


def test_exhausted_tracker_raises():
    tracker = make_tracker(entropy=2)
    for _ in range(4):
        tracker.next_guess()
    with pytest.raises(ConfigurationError):
        tracker.next_guess()


def test_reset_forgets_eliminations():
    tracker = make_tracker(entropy=4)
    for _ in range(16):
        tracker.next_guess()
    tracker.reset()
    assert not tracker.exhausted
    assert tracker.tried_count == 0
    assert tracker.resets == 1
    # Can enumerate the full space again.
    assert len({tracker.next_guess() for _ in range(16)}) == 16


def test_order_randomized_per_seed():
    a = [make_tracker(seed=1).next_guess() for _ in range(1)]
    sequences = set()
    for seed in range(5):
        tracker = make_tracker(seed=seed)
        sequences.add(tuple(tracker.next_guess() for _ in range(10)))
    assert len(sequences) > 1  # different seeds, different orders


def test_materialized_tail_still_complete():
    """Crossing the rejection-sampling threshold must not lose keys."""
    tracker = make_tracker(entropy=8)  # 256 keys
    seen = {tracker.next_guess() for _ in range(256)}
    assert seen == set(range(256))


def test_total_guesses_counter():
    tracker = make_tracker(entropy=4)
    for _ in range(7):
        tracker.next_guess()
    assert tracker.total_guesses == 7
    tracker.reset()
    assert tracker.total_guesses == 0
