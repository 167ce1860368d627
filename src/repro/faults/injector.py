"""Deterministic fault injection for protocol-level experiments.

The replication substrates claim crash tolerance (PB) and intrusion
tolerance (SMR); fault injection is how the test suite *earns* those
claims.  A :class:`FaultInjector` executes a plan of timed fault events
against a running deployment:

* :class:`CrashFault` — crash a process; either the forking daemon
  restores it (transient crash) or it stays down for ``down_for``
  simulated time (an outage);
* :class:`PartitionFault` — cut the link between two processes, healing
  after ``heal_after``;
* :class:`MessageLossFault` — raise the network's drop rate for a
  window, then restore it.

Plans are plain lists of events, so they can be hand-written in tests or
generated reproducibly by :mod:`repro.faults.plans`.

Overlap semantics (scenario plans compose freely, so overlaps are
legal, not operator error):

* overlapping **loss windows** nest: while any window is open the most
  recently applied rate is in force, and each window's expiry
  re-instates the next most recent still-open window (or the baseline
  rate once the last one closes) — a restore never clobbers the rate
  under a window that outlives it;
* overlapping **outages** on one target extend each other: the machine
  stays down until the *last* overlapping outage ends, and only that
  final end restores the forking daemon;
* overlapping **partitions** of one pair likewise: the link stays cut
  until the last overlapping window heals.

Fault applies and expiries are fire-and-forget — nothing ever cancels
them — so no :class:`~repro.sim.engine.Event` handle is made for them:
applies are pushed at their absolute times through
:meth:`~repro.sim.engine.Simulator.schedule_at`, expiries after
their durations through :meth:`~repro.sim.engine.Simulator.schedule_fast`.
A whole plan is pushed when it is scheduled, and it is validated first
(sorted, inside the horizon, rates in range) instead of failing mid-run
with the simulation half-executed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigurationError
from ..net.network import Network
from ..sim.engine import Simulator


@dataclass(frozen=True)
class CrashFault:
    """Crash ``target`` at ``time``.

    With ``down_for`` unset the forking daemon respawns the process as
    usual; with it set the daemon is suppressed and the process stays
    down for that long (a machine outage).
    """

    time: float
    target: str
    down_for: Optional[float] = None


@dataclass(frozen=True)
class PartitionFault:
    """Partition ``a`` from ``b`` at ``time``; heal after ``heal_after``."""

    time: float
    a: str
    b: str
    heal_after: float


@dataclass(frozen=True)
class MessageLossFault:
    """Set the network drop rate to ``rate`` for ``duration``."""

    time: float
    rate: float
    duration: float


FaultEvent = CrashFault | PartitionFault | MessageLossFault


def validate_plan(
    plan: list[FaultEvent],
    now: float = 0.0,
    horizon: Optional[float] = None,
) -> None:
    """Validate a whole plan before anything is scheduled.

    Checks that events are sorted by time, none is in the past, every
    event starts before ``horizon`` (when given), and per-event
    parameters are in range — so a bad plan fails at configuration time
    instead of aborting a half-executed simulation.
    """
    previous = None
    for fault in plan:
        if fault.time < now:
            raise ConfigurationError(
                f"fault at t={fault.time} is in the past (now={now})"
            )
        if previous is not None and fault.time < previous:
            raise ConfigurationError(
                f"fault plan is not sorted: t={fault.time} follows t={previous}"
            )
        if horizon is not None and fault.time >= horizon:
            raise ConfigurationError(
                f"fault at t={fault.time} starts at or beyond the horizon "
                f"({horizon})"
            )
        previous = fault.time
        _validate_event(fault)


def _validate_event(fault: FaultEvent) -> None:
    if isinstance(fault, MessageLossFault):
        if not 0.0 <= fault.rate < 1.0:
            raise ConfigurationError(f"loss rate must be in [0, 1), got {fault.rate}")
        if fault.duration <= 0:
            raise ConfigurationError(
                f"loss duration must be positive, got {fault.duration}"
            )
    elif isinstance(fault, CrashFault):
        if fault.down_for is not None and fault.down_for <= 0:
            raise ConfigurationError(
                f"outage down_for must be positive, got {fault.down_for}"
            )
    elif isinstance(fault, PartitionFault):
        if fault.heal_after <= 0:
            raise ConfigurationError(
                f"heal_after must be positive, got {fault.heal_after}"
            )


class FaultInjector:
    """Schedules and applies a fault plan against a deployment.

    Parameters
    ----------
    sim, network:
        The simulation substrates of the deployment under test.
    """

    def __init__(self, sim: Simulator, network: Network) -> None:
        self.sim = sim
        self.network = network
        self.applied: list[tuple[float, FaultEvent]] = []
        # Open loss windows, most recent last: (token, rate).  The
        # baseline drop rate is captured when the first window opens.
        self._loss_windows: list[tuple[int, float]] = []
        self._loss_tokens = itertools.count()
        self._baseline_drop_rate = 0.0
        # Active-outage refcount per target: overlapping outages extend
        # each other, and only the last end powers the machine back on.
        self._outages: dict[str, int] = {}
        # Active-partition refcount per pair: Network.partition/heal are
        # idempotent set operations, so overlapping windows on one pair
        # need the same discipline (only the last heal reconnects).
        self._partitions: dict[frozenset[str], int] = {}

    # ------------------------------------------------------------------
    def schedule_plan(
        self, plan: list[FaultEvent], horizon: Optional[float] = None
    ) -> None:
        """Validate and schedule every event of ``plan`` (absolute times).

        The whole plan is validated first (:func:`validate_plan`): an
        unsorted, out-of-horizon or out-of-range plan raises before any
        event is scheduled.
        """
        validate_plan(plan, now=self.sim.now, horizon=horizon)
        for fault in plan:
            self.sim.schedule_at(fault.time, self._apply, fault)

    def schedule(self, fault: FaultEvent) -> None:
        """Validate and schedule one fault event."""
        if fault.time < self.sim.now:
            raise ConfigurationError(
                f"fault at t={fault.time} is in the past (now={self.sim.now})"
            )
        _validate_event(fault)
        self.sim.schedule_at(fault.time, self._apply, fault)

    # ------------------------------------------------------------------
    def _apply(self, fault: FaultEvent) -> None:
        self.applied.append((self.sim.now, fault))
        if isinstance(fault, CrashFault):
            self._apply_crash(fault)
        elif isinstance(fault, PartitionFault):
            self._apply_partition(fault)
        else:
            self._apply_loss(fault)

    # -- crashes / outages ----------------------------------------------
    def _apply_crash(self, fault: CrashFault) -> None:
        target = self.network.process(fault.target)
        if fault.down_for is None:
            target.crash()
            return
        active = self._outages.get(fault.target, 0)
        self._outages[fault.target] = active + 1
        if active == 0:
            target.begin_outage()
        # Expiries never cancel: fire-and-forget on the fast path.
        self.sim.schedule_fast(fault.down_for, self._end_outage, fault.target)

    def _end_outage(self, name: str) -> None:
        """One overlapping outage ended; power on only when all have."""
        remaining = self._outages.get(name, 0) - 1
        if remaining > 0:
            self._outages[name] = remaining
            return
        self._outages.pop(name, None)
        self.network.process(name).end_outage()

    # -- partitions ------------------------------------------------------
    def _apply_partition(self, fault: PartitionFault) -> None:
        pair = frozenset((fault.a, fault.b))
        active = self._partitions.get(pair, 0)
        self._partitions[pair] = active + 1
        if active == 0:
            self.network.partition(fault.a, fault.b)
        self.sim.schedule_fast(fault.heal_after, self._heal, fault.a, fault.b)

    def _heal(self, a: str, b: str) -> None:
        """One overlapping partition window healed; reconnect only when
        all windows on the pair have."""
        pair = frozenset((a, b))
        remaining = self._partitions.get(pair, 0) - 1
        if remaining > 0:
            self._partitions[pair] = remaining
            return
        self._partitions.pop(pair, None)
        self.network.heal(a, b)

    # -- message loss ----------------------------------------------------
    def _apply_loss(self, fault: MessageLossFault) -> None:
        if not self._loss_windows:
            self._baseline_drop_rate = self.network.drop_rate
        token = next(self._loss_tokens)
        self._loss_windows.append((token, fault.rate))
        self.network.drop_rate = fault.rate
        self.sim.schedule_fast(fault.duration, self._restore_loss, token)

    def _restore_loss(self, token: int) -> None:
        """Close one loss window and re-instate whatever is underneath.

        Each expiry removes *its own* window (matched by token, so
        overlapping windows cannot close each other) and then applies
        the most recent still-open window's rate — or the baseline once
        the last window has closed.  A restore closure capturing the
        drop rate seen at apply time would instead re-instate a stale
        rate in the middle of any window that outlives it.
        """
        windows = self._loss_windows
        for i, (open_token, _) in enumerate(windows):
            if open_token == token:
                del windows[i]
                break
        else:  # pragma: no cover - expiries are scheduled exactly once
            return
        if windows:
            self.network.drop_rate = windows[-1][1]
        else:
            self.network.drop_rate = self._baseline_drop_rate

    # ------------------------------------------------------------------
    @property
    def pending_outages(self) -> int:
        """Targets currently held down by an injector outage."""
        return len(self._outages)

    @property
    def open_loss_windows(self) -> int:
        """Loss windows currently in force."""
        return len(self._loss_windows)
