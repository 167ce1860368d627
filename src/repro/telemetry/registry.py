"""Typed metrics: counters, gauges, histograms, and frozen snapshots.

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
* :class:`MetricsRegistry` / :class:`MetricsSnapshot` — the campaign
  aggregation vocabulary.  A registry is built *after* the runs (never
  on a hot path), folded from per-run structs plus the cache,
  supervision and rare-event tallies, then frozen into a picklable
  snapshot whose :meth:`MetricsSnapshot.merge` is monotonic (counters
  add, gauges take the latest non-``None``, histograms add bucketwise).

The telemetry contract every producer must uphold: **RNG-neutral and
estimate-neutral**.  Metrics never touch an RNG stream and never feed
back into scheduling, so every golden-outcome and bit-identity gate
passes with telemetry on or off.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Iterable, Mapping, Optional

from ..errors import ConfigurationError

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
        return RunMetrics(
            *(
                getattr(self, f.name) + getattr(other, f.name)
                for f in fields(RunMetrics)
            )
        )

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(RunMetrics)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunMetrics":
        """Rebuild from a cache entry.  Every field is required: a
        missing counter raises ``KeyError`` (the cache reads that as a
        miss) rather than replaying as zero.  Entries of other engine
        versions never reach here, because ``ENGINE_VERSION`` is part
        of every cache key."""
        return cls(*(int(payload[f.name]) for f in fields(cls)))


def fold_run_metrics(samples: Iterable[RunMetrics]) -> RunMetrics:
    """Sum per-run samples field by field."""
    return sum(samples, RunMetrics())


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        self.value += amount


class Gauge:
    """A point-in-time numeric metric (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Cumulative-bucket histogram over fixed upper bounds.

    Bounds are fixed at construction (deterministic bucketing is part
    of the fan-out-invariance story: the same samples always land in
    the same buckets, whatever order they arrive in).  An implicit
    +inf bucket catches the overflow.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total")

    def __init__(self, name: str, bounds: Iterable[float]) -> None:
        self.name = name
        self.bounds = tuple(sorted(float(b) for b in bounds))
        if not self.bounds:
            raise ConfigurationError(f"histogram {self.name!r} needs bounds")
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.count += 1
        self.total += value

    def as_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
        }


#: Default histogram bounds for steps-survived distributions: geometric
#: buckets wide enough for any realistic step budget.
STEPS_BOUNDS = tuple(float(2**k) for k in range(17))


class MetricsRegistry:
    """Namespace of live metrics, frozen on demand into a snapshot."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(
        self, name: str, bounds: Iterable[float] = STEPS_BOUNDS
    ) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name, bounds)
        return metric

    def snapshot(self) -> "MetricsSnapshot":
        """Freeze the registry's current state (sorted, picklable)."""
        return MetricsSnapshot(
            counters={
                name: metric.value
                for name, metric in sorted(self._counters.items())
            },
            gauges={
                name: metric.value
                for name, metric in sorted(self._gauges.items())
                if metric.value is not None
            },
            histograms={
                name: metric.as_dict()
                for name, metric in sorted(self._histograms.items())
            },
        )


@dataclass(frozen=True)
class MetricsSnapshot:
    """Frozen, picklable view of a registry (or a merge of many).

    Serializes into campaign records and ``--metrics-out`` files via
    :meth:`as_dict`; :meth:`merge` is the fan-out aggregation rule —
    counters add, gauges take the other side's value when present,
    histograms add bucketwise (bounds must agree).
    """

    counters: dict[str, int]
    gauges: dict[str, float]
    histograms: dict[str, dict]

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0) + value
        gauges = {**self.gauges, **other.gauges}
        histograms = {name: dict(h) for name, h in self.histograms.items()}
        for name, theirs in other.histograms.items():
            ours = histograms.get(name)
            if ours is None:
                histograms[name] = dict(theirs)
                continue
            if list(ours["bounds"]) != list(theirs["bounds"]):
                raise ConfigurationError(
                    f"histogram {name!r} bounds disagree; cannot merge"
                )
            histograms[name] = {
                "bounds": list(ours["bounds"]),
                "counts": [
                    a + b for a, b in zip(ours["counts"], theirs["counts"])
                ],
                "count": ours["count"] + theirs["count"],
                "total": ours["total"] + theirs["total"],
            }
        return MetricsSnapshot(
            counters=dict(sorted(counters.items())),
            gauges=dict(sorted(gauges.items())),
            histograms=dict(sorted(histograms.items())),
        )

    def as_dict(self) -> dict:
        return {
            "format": SNAPSHOT_FORMAT,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {n: dict(h) for n, h in self.histograms.items()},
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MetricsSnapshot":
        if payload.get("format") != SNAPSHOT_FORMAT:
            raise ConfigurationError(
                f"not a {SNAPSHOT_FORMAT} snapshot: {payload.get('format')!r}"
            )
        return cls(
            counters={str(k): int(v) for k, v in payload["counters"].items()},
            gauges={str(k): float(v) for k, v in payload["gauges"].items()},
            histograms={
                str(k): dict(v) for k, v in payload.get("histograms", {}).items()
            },
        )
