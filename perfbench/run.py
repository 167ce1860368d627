"""The campaign benchmark: one workload per invocation, closed loop.

    python3 perfbench/run.py --workload long-attack --seed 1 --seconds 30 --trace 0

A run times a fixed set of distinct campaigns (root seeds derived from
``--seed``) round-robin until ``--seconds`` have passed.  Each call is
one cold campaign on a fresh result-cache directory (timed), followed by
warm-cache replays of the same campaign (timed) that must reproduce its
outcome digest.  Every end-to-end time is rescaled to a fixed host
speed by a reference loop timed around it (see :func:`host_scale`), and
reported as the median over a campaign's calls, averaged over the set.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics (see ``layers.py``).  Metric lines go to standard
output as
``<workload> <metric> <value> <unit>``, then one provenance line, then
the result object as the last line.  Any outcome mismatch makes the
exit code 1.  Workloads and metrics are listed in ``BENCHMARK.json`` at
the root of the checkout; ``perfbench/README.md`` explains them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import campaigns
import layers
from campaigns import ROOT, SRC, Workload, root_seed
from repro.cache import ENGINE_VERSION, ResultCache
from repro.core.campaign import CampaignResult
from repro.telemetry import disable_tracing, enable_tracing

#: Fresh processes timed for ``setup_s`` (the median is reported).
SETUP_PROBES = 9
#: Warm replays that follow each cold campaign call.
REPLAYS_PER_CALL = 5
#: What the reference loop of :func:`reference_loop_seconds` takes at
#: the host speed every end-to-end time is rescaled to: about its
#: fastest time on a 2-vCPU Intel Xeon host under Python 3.11.
REFERENCE_SECONDS = 0.010
KIB = 1024.0  # ru_maxrss is in KiB on Linux
#: Scratch space for caches and traces, inside the checkout.
WORK_DIR = ROOT / ".perfbench-tmp"


class Gate:
    """Tallies runs attempted and runs whose outcomes failed a check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, result: CampaignResult, problems: list[str]) -> None:
        self.attempted += result.total_runs
        if result.quarantined:
            problems = [*problems, f"{result.quarantined} tasks quarantined"]
        if problems:
            self.failed += result.total_runs
            self.problems.extend(problems)


def timed_campaign(
    workload: Workload, root: int, cache: ResultCache
) -> tuple[CampaignResult, float, float]:
    """One campaign call: (result, wall seconds, CPU seconds).

    CPU time is this process plus every child reaped during the call,
    i.e. the campaign's pool workers.
    """
    self_before = resource.getrusage(resource.RUSAGE_SELF)
    kids_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = perf_counter()
    result = workload.run(root, cache)
    wall = perf_counter() - start
    self_after = resource.getrusage(resource.RUSAGE_SELF)
    kids_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = sum(
        getattr(after, field) - getattr(before, field)
        for before, after in ((self_before, self_after), (kids_before, kids_after))
        for field in ("ru_utime", "ru_stime")
    )
    return result, wall, cpu


def timed_replay(
    workload: Workload, root: int, cache: ResultCache, digest: str
) -> tuple[float, list[str]]:
    """One warm replay: (seconds, gate problems)."""
    start = perf_counter()
    replay = workload.run(root, cache)
    elapsed = perf_counter() - start
    return elapsed, campaigns.replay_problems(digest, replay)


def first_rep(workload: Workload, args, work: Path, gate: Gate) -> str:
    """Untimed repetition 0: warms lazy set-up and runs the strict checks.

    Its digest is compared with ``digests.json`` when that file records
    this seed, and each grid point's first run is recomputed directly.
    Returns the digest.
    """
    root = root_seed(workload.name, args.seed, 0)
    cache = ResultCache(Path(tempfile.mkdtemp(dir=work)))
    result = workload.run(root, cache)
    digest = campaigns.outcome_digest(result)
    problems = campaigns.reference_problems(workload, root, result)
    recorded = campaigns.recorded_digest(workload.name, args.seed, args.scale)
    if recorded is not None and recorded != digest:
        problems.append(f"digest {digest[:12]} differs from recorded {recorded[:12]}")
    problems += timed_replay(workload, root, cache, digest)[1]
    gate.check(result, problems)
    return digest


def timed_setup(workload: Workload, scale: str, work: Path) -> float:
    """Wall time of one fresh process that sets up ``workload`` and exits.

    Rescaled to the reference host speed like every end-to-end time.
    """
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    before = reference_loop_seconds()
    start = perf_counter()
    subprocess.run(
        [sys.executable, str(probe), workload.name, scale, str(work)],
        check=True,
        cwd=ROOT,
    )
    return (perf_counter() - start) * host_scale(before)


def reference_loop_seconds(passes: int = 3) -> float:
    """Fastest of ``passes`` runs of a fixed stdlib-only loop.

    The loop builds a dict of small lists and dicts and round-trips it
    through JSON: allocation-heavy pure Python, like the simulator and
    the cache decoder, and independent of the code under test.
    """
    best = float("inf")
    for _ in range(passes):
        start = perf_counter()
        table = {str(i): [i, 2 * i, {"i": i}] for i in range(5_000)}
        json.loads(json.dumps(table))
        best = min(best, perf_counter() - start)
    return best


def host_scale(before: float) -> float:
    """Factor that rescales a time measured since ``before`` was taken.

    The host's CPUs change speed every few seconds, by up to 2x, under
    load from outside the machine, so raw times move with the mix of
    speeds a run happens to get.  A measured time divided by the
    reference loop's time around it (``before`` and now) moves far less;
    times ``REFERENCE_SECONDS`` turns it back into seconds.
    """
    return REFERENCE_SECONDS / statistics.fmean((before, reference_loop_seconds()))


def typical(samples: list[list[float]]) -> float:
    """Mean over campaigns of the median over each campaign's calls."""
    return statistics.fmean(statistics.median(times) for times in samples)


def measure_end_to_end(
    workload: Workload, args, work: Path, gate: Gate
) -> dict[str, tuple[float, str]]:
    roots = [root_seed(workload.name, args.seed, k) for k in range(workload.campaigns)]
    digests = [first_rep(workload, args, work, gate)] + [""] * (len(roots) - 1)
    walls: list[list[float]] = [[] for _ in roots]
    cpus: list[list[float]] = [[] for _ in roots]
    replays: list[list[float]] = [[] for _ in roots]
    setup: list[float] = []
    deadline = perf_counter() + args.seconds
    while not walls[-1] or perf_counter() < deadline:
        if walls[-1] and len(setup) < SETUP_PROBES:
            setup.append(timed_setup(workload, args.scale, work))
        for k, root in enumerate(roots):
            if walls[k] and perf_counter() >= deadline:
                break
            cache = ResultCache(Path(tempfile.mkdtemp(dir=work)))
            before = reference_loop_seconds()
            result, wall, cpu = timed_campaign(workload, root, cache)
            digest = campaigns.outcome_digest(result)
            problems: list[str] = []
            if digests[k] and digests[k] != digest:
                problems.append(f"campaign {k}: repetitions disagree")
            digests[k] = digests[k] or digest
            replayed = []
            for _ in range(REPLAYS_PER_CALL):
                seconds, replay_issues = timed_replay(workload, root, cache, digest)
                replayed.append(seconds)
                problems += replay_issues
            gate.check(result, problems)
            scale = host_scale(before)
            walls[k].append(wall * scale)
            cpus[k].append(cpu * scale)
            replays[k] += [seconds * scale for seconds in replayed]
        if not setup:
            # Read before the first set-up probe: until then the only
            # children this process has reaped are campaign pool workers,
            # and every campaign of the set has run once.
            worker_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / KIB
    while len(setup) < SETUP_PROBES:
        setup.append(timed_setup(workload, args.scale, work))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / KIB
    print(
        f"# {workload.name}: {len(roots)} campaigns x {len(walls[-1])} timed calls, "
        f"{sum(map(len, replays))} replays, {len(setup)} set-up probes"
    )
    return {
        "campaign_s": (typical(walls), "s"),
        "cpu_s": (typical(cpus), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "worker_peak_rss_mb": (worker_rss_mb, "MB"),
        "replay_ms": (typical(replays) * 1e3, "ms"),
    }


def measure_layers(
    workload: Workload, args, work: Path, gate: Gate
) -> dict[str, tuple[float, str]]:
    """The traced run: calibration loops, then traced/untraced pairs.

    Each pair runs the same inputs once with tracing and the timing
    cache and once without, alternating which goes first.  The first
    traced campaign is also re-run serially, run by run.
    """
    kernel_ns = statistics.median(layers.kernel_ns_per_event() for _ in range(5))
    net_ns = statistics.median(layers.net_ns_per_message() for _ in range(5))
    pool_start_s = statistics.median(layers.pool_start_seconds() for _ in range(3))
    first_rep(workload, args, work, gate)
    first: dict = {}
    traced: list[dict] = []
    untraced_s: list[float] = []
    deadline = perf_counter() + args.seconds
    rep = 0
    while not traced or perf_counter() < deadline:
        rep += 1
        root = root_seed(workload.name, args.seed, rep)
        cache = layers.TimedResultCache(Path(tempfile.mkdtemp(dir=work)))
        trace = work / f"trace-{rep}.jsonl"
        for tracing in (rep % 2 == 0, rep % 2 == 1):
            if not tracing:
                plain = ResultCache(Path(tempfile.mkdtemp(dir=work)))
                untraced, wall, _ = timed_campaign(workload, root, plain)
                untraced_s.append(wall)
                continue
            enable_tracing(trace)
            try:
                result, wall, _ = timed_campaign(workload, root, cache)
            finally:
                disable_tracing()
            traced.append(
                {
                    "wall": wall,
                    "spans": layers.span_seconds(trace),
                    "cache_s": sum(cache.lookup_seconds) + sum(cache.store_seconds),
                }
            )
        digest = campaigns.outcome_digest(result)
        problems = []
        if campaigns.outcome_digest(untraced) != digest:
            problems.append("traced and untraced campaigns disagree")
        if not first:
            problems += timed_replay(workload, root, cache, digest)[1]
            serial = layers.rerun_serially(workload, result)
            if serial["mismatches"]:
                problems.append(f"{serial['mismatches']} runs differ when re-run")
            first = dict(result=result, serial=serial, cache=cache)
        gate.check(result, problems)
    print(f"# {workload.name}: {len(traced)} traced/untraced campaign pairs")
    metrics = layers.layer_metrics(
        **first,
        traced=traced,
        untraced_s=untraced_s,
        kernel_ns=kernel_ns,
        net_ns=net_ns,
        pool_start_s=pool_start_s,
    )
    share = metrics["campaign.unattributed_share"][0]
    verdict = "within" if abs(share) <= layers.RECONCILE_TOLERANCE else "OUTSIDE"
    print(
        f"# reconciliation: the spans leave {share:.1%} of the traced campaign "
        f"unattributed ({verdict} the {layers.RECONCILE_TOLERANCE:.0%} tolerance)"
    )
    return metrics


def source_digest() -> str:
    """SHA-256 over the benchmarked source tree (paths and contents)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = probe.stdout.strip() or None
    return {
        "commit": commit,
        "source_sha256": source_digest(),
        "engine_version": ENGINE_VERSION,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "workers": campaigns.WORKERS,
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(campaigns.workloads())
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=campaigns.SCALES,
        default="full",
        help="'tiny' shrinks every campaign (for the harness self-test)",
    )
    args = parser.parse_args(argv)
    workload = campaigns.workloads(args.scale)[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_DIR))
    gate = Gate()
    try:
        measure = measure_layers if args.trace else measure_end_to_end
        metrics = measure(workload, args, work, gate)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    for problem in gate.problems:
        print(f"# INCORRECT: {problem}", file=sys.stderr)
    print(f"# failed_fraction {gate.failed / gate.attempted:.6g}")
    print("# provenance " + json.dumps(provenance(args), sort_keys=True))
    correct = gate.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": gate.attempted,
                "failed": gate.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
