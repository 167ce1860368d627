"""Attacker-side bookkeeping of key guesses.

Phase 1 of a de-randomization attack enumerates candidate keys, never
repeating a guess against the same randomization instance (sampling
*without* replacement).  A :class:`KeyGuessTracker` holds that state for
one key **pool** — one randomization instance, possibly shared by several
nodes (the identically randomized PB servers of S1/S2 form a single
pool; each diversely randomized node is its own pool).

When the defender re-randomizes (PO), the attacker's eliminations become
worthless and the pool is :meth:`reset` — that is what turns the attack
into sampling *with* replacement across time-steps.

Guess-ordering randomness is drawn per probe, which makes the RNG
dispatch chain part of the probe hot path.  :class:`GuessBuffer`
amortizes it with chunked ``randrange`` pulls shared by every pool of
one attacker, *without* perturbing the draw sequence: buffered values
are served in exact stream order to whichever pool asks next, and the
refill size is capped so that no pool can reach its shuffle
(materialization) point while buffered values remain — the one
operation that would interleave differently than per-probe draws.
"""

from __future__ import annotations

import math
import random
from typing import Optional

from ..errors import ConfigurationError
from ..randomization.keyspace import KeySpace


class GuessBuffer:
    """Chunked ``randrange(size)`` pulls for one shared guess stream.

    All pools of one attacker draw guesses from a single RNG stream with
    a single call shape (``randrange(keyspace.size)``), so a buffer of
    pre-drawn values replays the identical sequence to interleaved
    consumers.  The only other consumer of the stream is the Fisher-Yates
    shuffle a pool runs when it materializes its remaining keys; a refill
    therefore never exceeds the *headroom* — the smallest number of
    successful guesses that could drive any pool (including a pool
    created mid-chunk) to its materialization threshold.  Reaching a
    shuffle consumes at least that many buffered values first, so the
    buffer is provably empty whenever a shuffle runs.
    """

    __slots__ = ("_rng", "_size", "_chunk", "_trackers", "_values")

    DEFAULT_CHUNK = 128

    def __init__(
        self, rng: random.Random, size: int, chunk: int = DEFAULT_CHUNK
    ) -> None:
        if size < 1:
            raise ConfigurationError(f"key space size must be >= 1, got {size}")
        self._rng = rng
        self._size = size
        self._chunk = chunk
        self._trackers: list["KeyGuessTracker"] = []
        self._values: list[int] = []

    def register(self, tracker: "KeyGuessTracker") -> None:
        """Track ``tracker``'s fill level for the headroom computation."""
        self._trackers.append(tracker)

    def __len__(self) -> int:
        return len(self._values)

    def _headroom(self) -> int:
        """Guesses guaranteed to precede any pool's shuffle.

        A pool registered later starts empty, so the shared threshold
        itself bounds the headroom of pools that do not exist yet.
        """
        trackers = self._trackers
        if not trackers:
            return 0
        headroom = trackers[0]._materialize_at  # all pools share one key space
        for tracker in trackers:
            if tracker._remaining is None:
                room = tracker._materialize_at - len(tracker._tried)
                if room < headroom:
                    headroom = room
        return headroom

    def draw(self) -> int:
        """Next ``randrange(size)`` value, in exact stream order."""
        values = self._values
        if not values:
            headroom = self._headroom()
            if headroom <= 0:
                # A pool sits at its shuffle threshold: stay unbuffered.
                return self._rng.randrange(self._size)
            # Replicate Random._randbelow_with_getrandbits exactly —
            # same getrandbits calls, same rejection loop — but chunked,
            # skipping two Python frames per draw.
            n = self._size
            k = n.bit_length()
            getrandbits = self._rng.getrandbits
            append = values.append
            for _ in range(min(self._chunk, headroom)):
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                append(r)
            values.reverse()  # pop() then serves in stream order
        return values.pop()


class KeyGuessTracker:
    """Enumerates untried keys of one key pool in random order.

    Parameters
    ----------
    keyspace:
        The key space being searched.
    rng:
        Attacker's RNG stream for guess ordering.
    buffer:
        Optional shared :class:`GuessBuffer` over the same ``rng`` and
        key-space size (pools of one attacker share one).  ``None``
        draws straight from ``rng`` — bit-identical either way.
    """

    __slots__ = (
        "keyspace",
        "_size",
        "_rng",
        "_buffer",
        "_materialize_at",
        "_tried",
        "_remaining",
        "known_key",
        "resets",
        "total_guesses",
    )

    # Below this fill ratio, rejection sampling is cheap; above it we
    # materialize the remaining keys once and shuffle them.
    _REJECTION_LIMIT = 0.5

    def __init__(
        self,
        keyspace: KeySpace,
        rng: random.Random,
        buffer: Optional[GuessBuffer] = None,
    ) -> None:
        self.keyspace = keyspace
        #: ``keyspace.size``, cached: every guess checks it, and it is a
        #: property.
        self._size = keyspace.size
        self._rng = rng
        self._buffer = buffer
        #: Integer form of the rejection→materialize threshold: the
        #: smallest tried-count satisfying ``tried >= size * LIMIT``.
        self._materialize_at = math.ceil(keyspace.size * self._REJECTION_LIMIT)
        self._tried: set[int] = set()
        self._remaining: list[int] | None = None
        #: The key, once a probe confirmed it.  Against SO systems the
        #: defender's recovery does not change keys, so a discovered key
        #: stays valid and re-exploitation is instant.
        self.known_key: int | None = None
        self.resets = 0
        self.total_guesses = 0

    # ------------------------------------------------------------------
    @property
    def tried_count(self) -> int:
        """Keys eliminated against the current randomization instance."""
        return len(self._tried)

    @property
    def exhausted(self) -> bool:
        """True when every key of the space has been tried."""
        return len(self._tried) >= self._size

    def next_guess(self) -> int:
        """Return a fresh, never-tried key guess.

        Raises
        ------
        ConfigurationError
            If the pool is exhausted (the attacker should have won long
            before; callers normally reset on re-randomization).
        """
        tried = self._tried
        if len(tried) >= self._size:
            raise ConfigurationError("key pool exhausted; reset the tracker")
        self.total_guesses += 1
        remaining = self._remaining
        if remaining is not None:
            guess = remaining.pop()
            tried.add(guess)
            return guess
        if len(tried) >= self._materialize_at:
            self._materialize()
            guess = self._remaining.pop()
            tried.add(guess)
            return guess
        buffer = self._buffer
        if buffer is not None:
            values = buffer._values  # pop buffered values without a frame
            draw = buffer.draw
            while True:
                guess = values.pop() if values else draw()
                if guess not in tried:
                    tried.add(guess)
                    return guess
        randrange = self._rng.randrange
        size = self._size
        while True:
            guess = randrange(size)
            if guess not in tried:
                tried.add(guess)
                return guess

    def _materialize(self) -> None:
        # The shuffle is the one draw shape the shared buffer cannot
        # replay; the refill headroom cap guarantees it drained first.
        remaining = [k for k in range(self.keyspace.size) if k not in self._tried]
        self._rng.shuffle(remaining)
        self._remaining = remaining

    def record_success(self, guess: int) -> None:
        """Remember the confirmed key of this pool's instance."""
        self.known_key = guess

    def reset(self) -> None:
        """Forget all eliminations — the defender re-randomized.

        The known key (if any) is forgotten too: a fresh key was drawn.
        """
        self._tried.clear()
        self._remaining = None
        self.known_key = None
        self.total_guesses = 0
        self.resets += 1
