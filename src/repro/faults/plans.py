"""Reproducible fault-plan generators.

Plans are ordinary lists of fault events generated from a seeded RNG, so
an interesting failure run can always be replayed.  Generators cover the
classic distributed-systems torture patterns:

* :func:`crash_storm` — Poisson-ish crashes across the target set, some
  transient (daemon respawn), some outages;
* :func:`rolling_outages` — one node at a time down, round-robin (the
  worst benign pattern for a primary-backup tier);
* :func:`partition_schedule` — repeated temporary link cuts;
* :func:`lossy_window` — a period of heavy message loss.
"""

from __future__ import annotations

import random
from typing import Sequence

from ..errors import ConfigurationError
from .injector import CrashFault, FaultEvent, MessageLossFault, PartitionFault


def crash_storm(
    rng: random.Random,
    targets: Sequence[str],
    horizon: float,
    rate: float = 0.5,
    outage_probability: float = 0.3,
    outage_range: tuple[float, float] = (0.2, 1.0),
    start: float = 0.5,
) -> list[FaultEvent]:
    """Random crashes over ``targets`` at roughly ``rate`` per time unit."""
    if not targets:
        raise ConfigurationError("crash storm needs at least one target")
    if rate <= 0 or horizon <= start:
        raise ConfigurationError("need positive rate and horizon > start")
    plan: list[FaultEvent] = []
    pool = list(targets)
    t = start
    while True:
        t += rng.expovariate(rate)
        if t >= horizon:
            break
        down_for = None
        if rng.random() < outage_probability:
            down_for = rng.uniform(*outage_range)
        plan.append(CrashFault(time=t, target=rng.choice(pool), down_for=down_for))
    return plan


def rolling_outages(
    targets: Sequence[str],
    period: float,
    down_for: float,
    rounds: int,
    start: float = 0.5,
) -> list[FaultEvent]:
    """Take each target down in turn, ``down_for`` per outage.

    ``down_for`` must be shorter than ``period`` so outages never
    overlap — at most one node is ever down, which a crash-tolerant tier
    must survive indefinitely.
    """
    if down_for >= period:
        raise ConfigurationError("outages must not overlap (down_for < period)")
    plan: list[FaultEvent] = []
    for i in range(rounds):
        target = targets[i % len(targets)]
        plan.append(
            CrashFault(time=start + i * period, target=target, down_for=down_for)
        )
    return plan


def partition_schedule(
    rng: random.Random,
    pairs: Sequence[tuple[str, str]],
    horizon: float,
    rate: float = 0.3,
    heal_range: tuple[float, float] = (0.2, 0.8),
    start: float = 0.5,
) -> list[FaultEvent]:
    """Random temporary partitions among ``pairs``."""
    if not pairs:
        raise ConfigurationError("partition schedule needs at least one pair")
    plan: list[FaultEvent] = []
    t = start
    while True:
        t += rng.expovariate(rate)
        if t >= horizon:
            break
        a, b = rng.choice(list(pairs))
        plan.append(
            PartitionFault(time=t, a=a, b=b, heal_after=rng.uniform(*heal_range))
        )
    return plan


def lossy_window(time: float, rate: float, duration: float) -> list[FaultEvent]:
    """A single window of message loss."""
    return [MessageLossFault(time=time, rate=rate, duration=duration)]
