"""The attacker-progress level function and its crossing probe.

Multilevel splitting needs an *importance function* Φ that (a) reaches
its maximum exactly on the rare event and (b) rises along the plausible
paths toward it, so that trajectories crossing a level really are
conditionally closer to compromise.  :func:`attacker_progress` builds Φ
from the attacker's own bookkeeping, per compromise path of the paper's
Definitions 1–3:

* **key-search paths** — the fraction of a pool's key space eliminated
  against the *current* randomization instance (a confirmed key counts
  as 1.0: against SO schemes it is re-exploitable at will, against PO it
  means compromise is one in-flight probe away).  Under PO this resets
  every epoch, and the per-trajectory *running maximum* recorded by the
  :class:`LevelProbe` is what nests the levels: a launch-pad window that
  drove server-pool coverage unusually high is remembered even after the
  refresh wipes the eliminations.
* **simultaneity paths** — compromise predicates that need several nodes
  down at once (S0's ``> f`` replicas, S2's all-proxies clause) progress
  as ``(nodes currently compromised + best key-search progress toward
  the next one) / nodes needed``.  Compromised nodes stay compromised
  until their next refresh, so this accumulates within an epoch exactly
  like coverage does.

Φ is the maximum over the paths available to the system class, 1.0 iff
the monitor has fired, and — crucially for unbiasedness — evaluated by a
read-only poller (:class:`LevelProbe`) that draws no randomness and
perturbs no event ordering, so an instrumented run replays bit-identical
to a bare one.

:func:`choose_levels` places the levels on pilot-run quantiles of the
running maximum, targeting a fixed per-stage crossing probability; a
degenerate pilot (no spread in Φ) yields no levels and splitting
gracefully collapses to plain conditional Monte-Carlo.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Sequence

from ..core.specs import SystemClass

if TYPE_CHECKING:  # pragma: no cover
    from ..attacker.keytracker import KeyGuessTracker
    from ..core.builders import DeployedSystem
    from ..core.specs import SystemSpec

#: Default level-poll interval as a fraction of the unit time-step.
#: Polls are read-only heap events (~4 per period against thousands of
#: probe events), and the half-phase offset in :class:`LevelProbe` keeps
#: them off the epoch-refresh instants where coverage resets.
DEFAULT_POLL_FRACTION = 0.25


def _pool_progress(tracker: "KeyGuessTracker") -> float:
    if tracker.known_key is not None:
        return 1.0
    return tracker.tried_count / tracker.keyspace.size


def attacker_progress(deployed: "DeployedSystem") -> float:
    """Φ — the attacker's progress toward system compromise, in [0, 1]."""
    if deployed.monitor.is_compromised:
        return 1.0
    attacker = deployed.attacker
    if attacker is None:
        return 0.0
    pools = attacker._pools
    system = deployed.spec.system
    if system is SystemClass.S1:
        # Single path: the shared server-tier key.
        best = 0.0
        for tracker in pools.values():
            progress = _pool_progress(tracker)
            if progress > best:
                best = progress
        return best
    if system is SystemClass.S0:
        # > f simultaneous replica compromises (Definition 1).
        needed = deployed.monitor.f + 1
        down = 0
        best_pool = 0.0
        for replica in deployed.servers:
            if replica.compromised:
                down += 1
            else:
                tracker = pools.get(replica.name)
                if tracker is not None:
                    progress = _pool_progress(tracker)
                    if progress > best_pool:
                        best_pool = progress
        return min((down + best_pool) / needed, 1.0)
    # S2 (Definition 3): a fortified server falls, or all proxies do.
    from ..core.builders import SERVER_POOL  # deferred: layering

    best = 0.0
    server_pool = pools.get(SERVER_POOL)
    if server_pool is not None:
        best = _pool_progress(server_pool)
    proxies = deployed.proxies
    if proxies:
        down = 0
        best_pool = 0.0
        for proxy in proxies:
            if proxy.compromised:
                down += 1
            else:
                tracker = pools.get(proxy.name)
                if tracker is not None:
                    progress = _pool_progress(tracker)
                    if progress > best_pool:
                        best_pool = progress
        simultaneity = (down + best_pool) / len(proxies)
        if simultaneity > best:
            best = simultaneity
    return min(best, 1.0)


class LevelProbe:
    """Periodic read-only sampler of Φ with level-crossing stop.

    The probe schedules itself on the deployment's own event heap
    (half-phase offset, so polls never tie with epoch-refresh instants),
    records the trajectory's running maximum of Φ, and — when a
    ``threshold`` is armed — stops the simulator the first time the
    maximum reaches it.  It draws no randomness and only *reads*
    deployment state, so instrumented dynamics are bit-identical to bare
    ones; and it is cloned along with the deployment (its pending tick
    lives in the heap), so a fork inherits the running maximum exactly.
    """

    __slots__ = ("deployed", "interval", "max_level", "threshold", "crossed", "_armed")

    def __init__(
        self, deployed: "DeployedSystem", poll_fraction: float = DEFAULT_POLL_FRACTION
    ) -> None:
        self.deployed = deployed
        self.interval = poll_fraction * deployed.spec.period
        self.max_level = 0.0
        self.threshold: Optional[float] = None
        self.crossed = False
        self._armed = False

    def arm(self) -> None:
        """Start polling (idempotent; call after ``deployed.start()``)."""
        if not self._armed:
            self._armed = True
            self.deployed.sim.schedule_fast(0.5 * self.interval, self._tick)

    def _tick(self) -> None:
        level = attacker_progress(self.deployed)
        if level > self.max_level:
            self.max_level = level
        threshold = self.threshold
        if threshold is not None and not self.crossed and self.max_level >= threshold:
            self.crossed = True
            self.deployed.sim.stop()
        # Keep ticking unconditionally: after a crossing stop, the next
        # splitting stage re-arms a higher threshold and resumes the run
        # with this same pending tick.
        self.deployed.sim.schedule_fast(self.interval, self._tick)


#: Sub-rung quarters between simultaneity rungs — see structural_levels.
_SUB_RUNGS = (0.25, 0.5, 0.75)


def structural_levels(spec: "SystemSpec") -> tuple[float, ...]:
    """The rungs Φ's simultaneity paths quantize to, from the spec alone.

    Simultaneity progress moves in jumps of ``1/nodes_needed`` (a node
    falls), so Φ clusters just above ``k / needed`` — and a pilot wave
    rarely reaches the deeper rungs, which is precisely when they make
    the best splitting levels.  Between rungs, Φ rises smoothly as the
    next node's keyspace coverage grows, and that continuum carries the
    decisive randomness: with the deterministic guess pacing, whether
    the next node falls before the epoch refresh is nearly a pure
    function of *when within the epoch* the previous one fell, so
    conditional compromise probabilities past a bare rung collapse
    toward 0 or 1 per trajectory and resplit offspring decide together.
    The quarter sub-rungs ``(k + q)/needed`` split exactly that timing
    — each marks the next node q of the way through its keyspace while
    k are down — restoring per-stage randomness and keeping offspring
    of one parent from being fate-correlated.

    Placing a rung no trajectory reaches is safe (the estimate stays
    unbiased, the CI falls back to the rule of three), and a rung below
    what a trajectory already crossed costs nothing (pre-crossed stages
    skip simulation entirely), so the ladder is merged into the level
    set wholesale by :func:`repro.rare.splitting.place_levels`.
    """
    if spec.system is SystemClass.S0:
        needed = spec.f + 1
    elif spec.system is SystemClass.S2 and spec.n_proxies > 1:
        needed = spec.n_proxies
    else:
        return ()
    levels = []
    for k in range(1, needed):
        levels.append(k / needed)
        levels.extend((k + q) / needed for q in _SUB_RUNGS)
    return tuple(levels)


def dedupe_levels(levels: Sequence[float], min_gap: float) -> tuple[float, ...]:
    """Collapse near-duplicate levels, keeping the deepest of each cluster.

    Pilot quantiles often land inside one dense cluster of Φ values
    (e.g. just above a simultaneity rung), producing levels a fraction
    of a percent apart.  Each such level costs a full stage of
    trajectory launches while splitting almost no probability mass, so
    levels closer than ``min_gap`` are merged into their deepest member
    — one stage with a crossing probability near the product of the
    cluster's, which is closer to the ``p0`` target anyway.
    """
    deduped: list[float] = []
    for level in sorted(levels):
        if deduped and level - deduped[-1] < min_gap:
            deduped[-1] = level
        else:
            deduped.append(level)
    return tuple(deduped)


def choose_levels(
    max_samples: Sequence[float],
    p0: float = 0.25,
    max_levels: int = 6,
    min_tail: int = 4,
) -> tuple[float, ...]:
    """Place splitting levels on pilot quantiles of the running max of Φ.

    Level ``k`` is the empirical ``p0**(k+1)`` upper quantile of the
    pilot maxima, so each stage's crossing probability is ≈ ``p0`` —
    the fixed-effort sweet spot between many cheap stages and few
    well-estimated ones.  Levels are strictly increasing, strictly below
    1.0 (the final stage is the compromise event itself, judged by the
    monitor, never by Φ), *selective* (at least one pilot run must fail
    to cross every level — probe pacing is deterministic, so on systems
    where Φ's spread collapses every pilot shares the same maximum and a
    level there would be crossed by construction), and never placed
    deeper than the pilot can resolve (at least ``min_tail`` pilot runs
    must sit at or above every level).  A pilot with no spread therefore
    yields no levels, and splitting collapses to plain conditional
    Monte-Carlo.
    """
    values = sorted(max_samples)
    n = len(values)
    levels: list[float] = []
    previous = 0.0
    tail = p0
    while len(levels) < max_levels and n:
        count = max(math.ceil(tail * n), min_tail)
        if count >= n:
            break  # even the loosest level would be crossed by everything
        candidate = values[n - count]  # count-th largest: P(M >= c) >= count/n
        if previous < candidate < 1.0 and candidate > values[0]:
            levels.append(candidate)
            previous = candidate
        if count == min_tail:
            break  # the pilot cannot resolve the tail any deeper
        tail *= p0
    return tuple(levels)
