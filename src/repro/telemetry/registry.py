"""Per-run counters, the steps histogram, and frozen campaign snapshots.

Two layers share this module:

* :class:`RunMetrics` — the cheap per-run slot struct the simulation
  layer fills at run end.  It is *always* populated: the underlying
  counters are plain integer increments the hot paths maintain anyway
  (``Simulator._events_executed``, ``Network.events_elided``, attacker
  probe tallies), so "telemetry off" costs nothing beyond those ints —
  no registry, no dicts, no allocation per event.  The struct rides on
  :class:`~repro.core.experiment.LifetimeOutcome` through the existing
  executor result path, which is what makes campaign-level totals
  fan-out-invariant: per-run structs merge by addition, and addition
  commutes over any worker count, batch size or dispatch order.
* :class:`MetricsSnapshot` — the frozen campaign view.
  :meth:`~repro.core.campaign.CampaignResult.metrics_snapshot` builds
  one *after* the runs (never on a hot path) from the per-run structs
  plus the cache, supervision and rare-event tallies, with
  :func:`histogram` bucketing the steps each run survived.

The telemetry contract every producer must uphold: **RNG-neutral and
estimate-neutral**.  Metrics never touch an RNG stream and never feed
back into scheduling, so every golden-outcome and bit-identity gate
passes with telemetry on or off.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, fields
from operator import add, attrgetter, itemgetter
from typing import Any, Iterable, Mapping

#: Snapshot wire-format tag (bump when the serialized shape changes).
SNAPSHOT_FORMAT = "repro-metrics/1"


@dataclass(frozen=True, slots=True)
class RunMetrics:
    """Per-run counter sample, read once when a run's verdict lands.

    Every field is a monotone event count over one protocol run; the
    struct is picklable (it crosses the process-pool result path) and
    merges by field-wise addition.  It is the only per-run count a
    :class:`~repro.core.experiment.LifetimeOutcome` carries:
    ``events_executed`` is the estimator-cost unit, and
    ``probes_direct``/``probes_indirect`` are the attacker's effort.
    """

    events_executed: int = 0
    events_elided: int = 0
    probes_direct: int = 0
    probes_indirect: int = 0
    fast_forward_arms: int = 0
    heap_compactions: int = 0
    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0

    def __add__(self, other: "RunMetrics") -> "RunMetrics":
        return RunMetrics(*map(add, _run_counts(self), _run_counts(other)))

    def as_dict(self) -> dict:
        return dict(zip(_RUN_METRIC_FIELDS, _run_counts(self)))

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunMetrics":
        """Rebuild from a cache entry.  Every field is required and must
        be a JSON integer: a missing counter raises ``KeyError`` and a
        ``"12"``, ``2.9`` or ``true`` raises ``TypeError`` (the cache
        reads either as a miss) rather than replaying coerced.  Entries
        of other engine versions never reach here, because
        ``ENGINE_VERSION`` is part of every cache key."""
        counts = _run_items(payload)
        if set(map(type, counts)) != {int}:
            raise TypeError(f"cached run metrics carry a non-integer count: {counts}")
        return cls(*counts)


#: :class:`RunMetrics` field names, in declaration order.
_RUN_METRIC_FIELDS = tuple(f.name for f in fields(RunMetrics))
_run_counts = attrgetter(*_RUN_METRIC_FIELDS)
_run_items = itemgetter(*_RUN_METRIC_FIELDS)


def fold_run_metrics(samples: Iterable[RunMetrics]) -> RunMetrics:
    """Sum per-run samples field by field."""
    return sum(samples, RunMetrics())


#: Default histogram bounds for steps-survived distributions: geometric
#: buckets wide enough for any realistic step budget.
STEPS_BOUNDS = tuple(float(2**k) for k in range(17))


def histogram(
    values: Iterable[float], bounds: tuple[float, ...] = STEPS_BOUNDS
) -> dict:
    """Bucket ``values`` over sorted upper ``bounds`` (JSON-ready).

    ``counts[i]`` holds the values ``v`` with ``bounds[i-1] < v <=
    bounds[i]``, and one more bucket past the last bound catches the
    overflow.  Fixed bounds are part of the fan-out-invariance story:
    the same samples always land in the same buckets, whatever order
    they arrive in.
    """
    counts = [0] * (len(bounds) + 1)
    total = 0.0
    for value in values:
        counts[bisect_left(bounds, value)] += 1
        total += value
    return {
        "bounds": list(bounds),
        "counts": counts,
        "count": sum(counts),
        "total": total,
    }


@dataclass(frozen=True)
class MetricsSnapshot:
    """Frozen, picklable campaign metrics: counters, gauges, histograms.

    Serializes into campaign records and ``--metrics-out`` files via
    :meth:`as_dict` (the ``repro-metrics/1`` format).
    """

    counters: dict[str, int]
    gauges: dict[str, float]
    histograms: dict[str, dict]

    def as_dict(self) -> dict:
        return {
            "format": SNAPSHOT_FORMAT,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {n: dict(h) for n, h in self.histograms.items()},
        }
