"""Per-layer measurements of the campaign benchmark (the traced run).

Everything here measures a layer from outside, through its public API:

* calibration micro-loops for the kernel (a self-rescheduling timer
  mesh on :class:`Simulator`) and for messaging (a :class:`Network`
  datagram ping-pong);
* a :class:`ResultCache` subclass that times ``lookup`` / ``store``;
* the orchestrator spans ``campaign.prepare`` / ``dispatch`` / ``fold``
  / ``point``, read back from a :func:`enable_tracing` JSONL sink;
* a serial in-process re-execution of one traced campaign, run by run
  (``compose_deployment`` + ``start``, ``Simulator.run``, verdict), which
  also re-checks every outcome, and the pickled size and round-trip time
  of the campaign's tasks and results.
"""

from __future__ import annotations

import gc
import json
import pickle
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from campaigns import WORKERS, Workload
from repro.cache import ResultCache
from repro.core.campaign import CampaignResult
from repro.core.experiment import (
    PRECISION_ROUND_SEEDS,
    ProtocolTask,
    compose_deployment,
    outcome_from_deployment,
)
from repro.mc.executor import TaskExecutor
from repro.net import Message, Network
from repro.sim import SimProcess, Simulator
from repro.telemetry import fold_run_metrics

#: Largest share of the traced campaign time the spans may leave
#: unattributed before the reconciliation is reported as failed.
RECONCILE_TOLERANCE = 0.10


class TimedResultCache(ResultCache):
    """A :class:`ResultCache` that records how long each call took."""

    def __init__(self, root: Path) -> None:
        super().__init__(root)
        self.hit_lookup_seconds: list[float] = []
        self.lookup_seconds: list[float] = []
        self.store_seconds: list[float] = []

    def lookup(self, key: str):
        hits = self.hits
        start = perf_counter()
        payload = super().lookup(key)
        elapsed = perf_counter() - start
        self.lookup_seconds.append(elapsed)
        if self.hits > hits:
            self.hit_lookup_seconds.append(elapsed)
        return payload

    def store(self, key: str, payload) -> None:
        start = perf_counter()
        super().store(key, payload)
        self.store_seconds.append(perf_counter() - start)


# ----------------------------------------------------------------------
# Calibration micro-loops
# ----------------------------------------------------------------------
def kernel_ns_per_event(events: int = 100_000, timers: int = 32) -> float:
    """Kernel cost per event: timers that reschedule themselves forever."""
    sim = Simulator(seed=0)

    def tick(delay: float) -> None:
        sim.schedule(delay, tick, delay)

    for i in range(timers):
        sim.schedule(0.0, tick, 1.0 + i / timers)
    start = perf_counter()
    sim.run(max_events=events)
    return (perf_counter() - start) / sim.events_executed * 1e9


class _Echo(SimProcess):
    """Answers every datagram with one back to its sender."""

    def handle_message(self, message: Message) -> None:
        self.network.send(message.reply("echo"))


def net_ns_per_message(messages: int = 100_000, in_flight: int = 16) -> float:
    """Datagram cost per message (send + delivery + kernel event)."""
    sim = Simulator(seed=0)
    network = Network(sim)
    for name in ("ping", "pong"):
        process = _Echo(sim, name)
        process.network = network
        network.register(process)
    for _ in range(in_flight):
        network.send(Message(src="ping", dst="pong", mtype="echo"))
    start = perf_counter()
    sim.run(max_events=messages)
    return (perf_counter() - start) / network.messages_delivered * 1e9


def pool_start_seconds() -> float:
    """Start a worker pool, round-trip two trivial tasks, shut it down."""
    start = perf_counter()
    TaskExecutor(WORKERS).map(abs, [-1, -2])
    return perf_counter() - start


# ----------------------------------------------------------------------
# Spans and the serial re-execution
# ----------------------------------------------------------------------
def span_seconds(trace: Path) -> dict[str, float]:
    """Total seconds per span name in a JSONL trace file."""
    totals: dict[str, float] = defaultdict(float)
    for line in trace.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if "span" in record:
            totals[record["span"]] += record["seconds"]
    return dict(totals)


def _task_batches(outcomes: tuple, workload: Workload):
    """Group a point's outcomes into the tasks the campaign dispatched.

    Fixed-count campaigns batch a point's whole seed block; precision
    campaigns batch each streaming round of ``PRECISION_ROUND_SEEDS``.
    """
    block = PRECISION_ROUND_SEEDS if workload.precision is not None else len(outcomes)
    for first in range(0, len(outcomes), block):
        chunk = outcomes[first : first + block]
        for offset in range(0, len(chunk), workload.batch_size):
            yield chunk[offset : offset + workload.batch_size]


def rerun_serially(workload: Workload, result: CampaignResult) -> dict:
    """Re-run every run of ``result`` in-process, timing each phase.

    Returns per-run compose and run times, the summed ``Simulator.run``
    time, the task pickling figures, and the outcomes that did not
    reproduce (which the caller counts as failures).
    """
    scenario = workload.scenario
    build_kwargs = workload.build_kwargs
    compose_s: list[float] = []
    run_s: list[float] = []
    sim_run_s = 0.0
    mismatches = 0
    task_bytes = result_bytes = 0
    pickle_s = 0.0
    tasks = 0
    for estimate in result.estimates:
        spec = estimate.spec
        horizon = workload.max_steps * spec.period
        for expected in estimate.outcomes:
            start = perf_counter()
            deployed = compose_deployment(
                spec,
                seed=expected.seed,
                max_steps=workload.max_steps,
                scenario=scenario,
                **build_kwargs,
            )
            deployed.start()
            composed = perf_counter()
            gc.disable()  # as the campaign's own runs do
            try:
                deployed.sim.run(until=horizon)
            finally:
                gc.enable()
            simulated = perf_counter()
            outcome = outcome_from_deployment(
                deployed, expected.seed, workload.max_steps
            )
            done = perf_counter()
            compose_s.append(composed - start)
            sim_run_s += simulated - composed
            run_s.append(done - start)
            mismatches += outcome != expected
        for batch in _task_batches(estimate.outcomes, workload):
            task = ProtocolTask(
                spec=spec,
                seeds=tuple(o.seed for o in batch),
                max_steps=workload.max_steps,
                build_kwargs=tuple(sorted(build_kwargs.items())),
                scenario=scenario,
            )
            start = perf_counter()
            task_blob = pickle.dumps(task)
            result_blob = pickle.dumps(tuple(batch))
            pickle.loads(task_blob)
            pickle.loads(result_blob)
            pickle_s += perf_counter() - start
            task_bytes += len(task_blob)
            result_bytes += len(result_blob)
            tasks += 1
    return {
        "compose_s": compose_s,
        "run_s": run_s,
        "sim_run_s": sim_run_s,
        "mismatches": mismatches,
        "tasks": tasks,
        "task_bytes": task_bytes / tasks,
        "result_bytes": result_bytes / tasks,
        "pickle_us": pickle_s / tasks * 1e6,
    }


#: Orchestrator spans that together cover a campaign call without overlap
#: (fixed-count campaigns emit the first three, precision ones the last).
CAMPAIGN_SPANS = (
    "campaign.prepare",
    "campaign.dispatch",
    "campaign.fold",
    "campaign.point",
)


def _dispatch_seconds(traced: dict) -> float:
    """Dispatch time of one traced campaign.

    Precision campaigns have no dispatch span: their dispatch is the
    per-point spans less the cache calls made inside them.
    """
    spans = traced["spans"]
    point_s = spans.get("campaign.point", 0.0)
    return spans.get("campaign.dispatch", point_s - traced["cache_s"])


def layer_metrics(
    *,
    result: CampaignResult,
    serial: dict,
    cache: TimedResultCache,
    traced: list[dict],
    untraced_s: list[float],
    kernel_ns: float,
    net_ns: float,
    pool_start_s: float,
) -> dict[str, tuple[float, str]]:
    """Assemble the per-layer metrics of one traced run.

    ``result``, ``serial`` and ``cache`` belong to the first traced
    campaign: its counts repeat exactly for a given seed.  ``traced``
    holds every traced campaign's wall time, span totals and cold-cache
    seconds; span timings are medians over them.  The tracing overhead
    is the median paired difference between traced and untraced
    campaigns on the same inputs.
    """
    median = statistics.median
    totals = fold_run_metrics(o.metrics for e in result.estimates for o in e.outcomes)
    events = totals.events_executed
    walls = [t["wall"] for t in traced]
    unattributed = median(
        t["wall"] - sum(t["spans"].get(name, 0.0) for name in CAMPAIGN_SPANS)
        for t in traced
    )

    def span_median(name: str) -> float:
        return median(t["spans"].get(name, 0.0) for t in traced)

    hit_lookups = cache.hit_lookup_seconds or cache.lookup_seconds
    info = cache.info()
    return {
        "sim.kernel_ns_per_event": (kernel_ns, "ns"),
        "sim.events": (events, "count"),
        "sim.events_elided": (totals.events_elided, "count"),
        "sim.run_s": (serial["sim_run_s"], "s"),
        "net.ns_per_message": (net_ns, "ns"),
        "net.messages_sent": (totals.messages_sent, "count"),
        "net.messages_dropped": (totals.messages_dropped, "count"),
        "handlers.us_per_event": (
            (serial["sim_run_s"] - events * kernel_ns * 1e-9) / events * 1e6,
            "us",
        ),
        "attacker.probes": (totals.probes_direct + totals.probes_indirect, "count"),
        "attacker.fast_forward_arms": (totals.fast_forward_arms, "count"),
        "builders.compose_ms_p50": (median(serial["compose_s"]) * 1e3, "ms"),
        "experiment.run_ms_p50": (median(serial["run_s"]) * 1e3, "ms"),
        "experiment.run_ms_p90": (
            statistics.quantiles(serial["run_s"], n=10)[8] * 1e3,
            "ms",
        ),
        "dispatch.tasks": (serial["tasks"], "count"),
        "dispatch.task_bytes": (serial["task_bytes"], "bytes"),
        "dispatch.result_bytes": (serial["result_bytes"], "bytes"),
        "dispatch.pickle_us": (serial["pickle_us"], "us"),
        "dispatch.pool_start_s": (pool_start_s, "s"),
        "dispatch.overhead_s": (
            _dispatch_seconds(traced[0]) - sum(serial["run_s"]) / WORKERS,
            "s",
        ),
        "cache.lookups": (len(cache.lookup_seconds), "count"),
        "cache.stores": (len(cache.store_seconds), "count"),
        "cache.hits": (cache.hits, "count"),
        "cache.lookup_us": (median(hit_lookups) * 1e6, "us"),
        "cache.store_ms": (median(cache.store_seconds) * 1e3, "ms"),
        "cache.entry_bytes": (info["bytes"] / max(info["entries"], 1), "bytes"),
        "campaign.traced_s": (median(walls), "s"),
        "campaign.prepare_s": (span_median("campaign.prepare"), "s"),
        "campaign.dispatch_s": (median(_dispatch_seconds(t) for t in traced), "s"),
        "campaign.fold_s": (span_median("campaign.fold"), "s"),
        "campaign.point_s": (span_median("campaign.point"), "s"),
        "campaign.unattributed_s": (unattributed, "s"),
        "campaign.unattributed_share": (unattributed / median(walls), "fraction"),
        "telemetry.trace_overhead_s": (
            median(t - u for t, u in zip(walls, untraced_s)),
            "s",
        ),
    }
