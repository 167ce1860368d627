"""Simulation-kernel fast path — single-run protocol speed (BENCH).

PR 4 rewrote the innermost loop of the protocol simulator: list-entry
event heap with no-handle scheduling, ``__slots__`` messaging with
listener tuples and notification/sync/multicast event elision, epoch
fast-forward for decided runs, and chunked attacker RNG pulls.  This
bench records the current engine's speed on that path, in five parts:

1. **Kernel micro** — events/sec through a self-rescheduling timer
   workload.
2. **Messaging micro** — datagrams/sec through ``Network.send`` +
   delivery.
3. **Probe cycle** — ns per direct probe: fire, deliver, crash, respawn.
4. **PB liveness tick** — ns per primary-backup heartbeat tick with its
   multicast, the two backups' deliveries and one watchdog tick.
5. **Single-run protocol speed** — runs/sec of full S2SO lifetimes on
   the paper configuration used throughout the bench suite (α = 0.15,
   κ = 0.5, χ = 2⁸, paper timing, 400-step budget).

A cProfile of three runs is recorded as a top-10 hotspot table so a
slowdown comes with a diagnosis.  Nothing is asserted: absolute
throughput drifts with the host (one figure moved 44 % between sessions
on the same code), and ``perfbench/`` is the perf gate of record.
Bit-identity of these runs is pinned by the ``s2_so_paper`` golden in
``tests/test_fast_path.py``.  The JSON record persists under
``benchmarks/results/bench_sim_kernel.json``.
"""

from __future__ import annotations

import cProfile
import gc
import pstats
import random
import time

from repro.attacker.agent import AttackerProcess
from repro.core.experiment import run_protocol_lifetime
from repro.core.specs import s2
from repro.core.timing import TimingSpec
from repro.crypto.signatures import SignatureAuthority
from repro.net.latency import FixedLatency
from repro.net.message import Message
from repro.net.network import Network
from repro.randomization.keyspace import KeySpace
from repro.randomization.node import RandomizedProcess
from repro.randomization.obfuscation import Scheme
from repro.replication.primary_backup import PBServer
from repro.replication.state_machine import KVStoreService
from repro.reporting.tables import render_table
from repro.sim.engine import Simulator
from repro.sim.process import SimProcess

# The S2SO paper configuration of the bench suite (bench_protocol_engine
# uses the same α/κ/χ grid point).
ALPHA = 0.15
KAPPA = 0.5
ENTROPY = 8
MAX_STEPS = 400
TIMING_PRESET = "paper"

KERNEL_EVENTS = 150_000
KERNEL_TIMERS = 200
MESSAGES = 60_000
PROBES = 60_000
LIVENESS_TICKS = 60_000
#: Probe-cycle key space: 2^30 keys, so the stream almost surely never
#: hits the key and every probe is a crash (the seed fixes the outcome).
PROBE_ENTROPY = 30

RUN_SEEDS = 20  # seeds per timing rep
RUN_REPS = 5  # timing reps (max taken: shields against runner noise)
WARMUP_SEEDS = 5

#: Speedups over the pre-refactor engine (commit 962a1f9) in the last
#: same-process A/B against a frozen copy of it, measured at commit
#: d1e46bb (full scale, best of 5 reps) before the copy was deleted.
#: History, not a measurement of the current tree: shown in the table,
#: never written to the JSON record.
AB_COMMIT = "d1e46bb"
AB_SPEEDUPS = {"kernel": 2.09, "messages": 2.34, "runs": 3.46}


# ----------------------------------------------------------------------
# Micro workloads
# ----------------------------------------------------------------------
def _bench_kernel(n_events: int) -> float:
    """Events/sec of a self-rescheduling timer mesh (the engine's native
    idiom: every probe driver and protocol timer is such a chain)."""
    sim = Simulator(seed=1)

    def tick(i: int) -> None:
        sim.schedule(1.0 + (i % 7) * 0.001, tick, i)

    for i in range(KERNEL_TIMERS):
        sim.schedule(float(i % 13) / 13.0, tick, i)
    start = time.perf_counter()
    sim.run(max_events=n_events)
    return n_events / (time.perf_counter() - start)


def _bench_messages(n: int) -> float:
    """Datagrams/sec through send + scheduled delivery, ping-pong style."""
    sim = Simulator(seed=1)
    network = Network(sim)
    budget = [n]

    class Echo(SimProcess):
        def handle_message(self, message) -> None:
            if budget[0] > 0:
                budget[0] -= 1
                network.send(Message(self.name, message.src, "ping", {"n": budget[0]}))

    a, b = Echo(sim, "a"), Echo(sim, "b")
    network.register(a)
    network.register(b)
    network.send(Message("a", "b", "ping", {"n": n}))
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return network.messages_delivered / elapsed


def _bench_probe_cycle(probes: int) -> float:
    """ns per direct-probe cycle: fire → deliver → crash → respawn.

    ω = 100 probes per unit step, 1 ms latency and a 2 ms respawn
    delay: the target is back up before each next probe, so every
    probe reconnects, crashes the target and tears the connection down.
    """
    sim = Simulator(seed=1)
    network = Network(sim, latency=FixedLatency(0.001))
    attacker = AttackerProcess(sim, network, KeySpace(PROBE_ENTROPY), omega=100.0)
    target = RandomizedProcess(
        sim, "victim", KeySpace(PROBE_ENTROPY), random.Random(2), respawn_delay=0.002
    )
    network.register(attacker)
    network.register(target)
    driver = attacker.attack_direct(target)
    gc.disable()  # as protocol runs do
    try:
        start = time.perf_counter()
        sim.run(until=probes / 100.0)
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    return elapsed / driver.probes_sent * 1e9


def _bench_pb_liveness(ticks: int) -> float:
    """ns per PB liveness tick: one heartbeat tick, its multicast, the
    two backups' ``_on_heartbeat`` deliveries and one watchdog tick.

    Three servers, no requests: the timeout is three heartbeat
    intervals, so the three watchdog chains together tick once per
    heartbeat, and no view ever changes.
    """
    sim = Simulator(seed=1)
    network = Network(sim, latency=FixedLatency(0.001))
    authority = SignatureAuthority(random.Random(0))
    names = [f"server-{i}" for i in range(3)]
    servers = [
        PBServer(
            sim,
            name,
            i,
            KeySpace(ENTROPY),
            random.Random(i),
            KVStoreService(),
            authority,
            network,
            heartbeat_interval=0.05,
            heartbeat_timeout=0.15,
        )
        for i, name in enumerate(names)
    ]
    for server in servers:
        network.register(server)
    for server in servers:
        server.configure(names)
    gc.disable()  # as protocol runs do
    try:
        start = time.perf_counter()
        sim.run(until=ticks * 0.05)
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    heartbeats = network.messages_sent // 2  # one multicast to two backups
    return elapsed / heartbeats * 1e9


# ----------------------------------------------------------------------
# Single-run protocol speed
# ----------------------------------------------------------------------
def _bench_runs(spec, timing, seeds: int, reps: int) -> float:
    """Best-of-``reps`` runs/sec over ``seeds`` lifetimes."""
    for seed in range(WARMUP_SEEDS):
        run_protocol_lifetime(spec, seed=seed, max_steps=MAX_STEPS, timing=timing)
    best = 0.0
    for _ in range(reps):
        start = time.perf_counter()
        for seed in range(seeds):
            run_protocol_lifetime(spec, seed=seed, max_steps=MAX_STEPS, timing=timing)
        best = max(best, seeds / (time.perf_counter() - start))
    return best


def _profile_hotspots(spec, timing, runs: int = 3, top: int = 10) -> list[list[str]]:
    """cProfile top-``top`` rows (by internal time) for ``runs`` runs."""
    profiler = cProfile.Profile()
    profiler.enable()
    for seed in range(runs):
        run_protocol_lifetime(spec, seed=seed, max_steps=MAX_STEPS, timing=timing)
    profiler.disable()
    stats = pstats.Stats(profiler).stats  # {func: (cc, nc, tt, ct, callers)}
    ranked = sorted(stats.items(), key=lambda item: item[1][2], reverse=True)
    rows = []
    for (filename, lineno, name), (_, ncalls, tottime, cumtime, _) in ranked[:top]:
        where = f"{filename.rsplit('/', 1)[-1]}:{lineno}({name})"
        rows.append([str(ncalls), f"{tottime:.4f}", f"{cumtime:.4f}", where])
    return rows


def bench_sim_kernel(save_table, save_json, scale_trials, smoke):
    """Kernel, messaging and single-run protocol speed of the engine."""
    kernel_events = scale_trials(KERNEL_EVENTS, floor=10_000)
    messages = scale_trials(MESSAGES, floor=5_000)
    probes = scale_trials(PROBES, floor=5_000)
    ticks = scale_trials(LIVENESS_TICKS, floor=5_000)
    run_seeds = max(4, scale_trials(RUN_SEEDS, floor=4))
    run_reps = 1 if smoke else RUN_REPS

    kernel_eps = _bench_kernel(kernel_events)
    mps = _bench_messages(messages)
    probe_ns = _bench_probe_cycle(probes)
    tick_ns = _bench_pb_liveness(ticks)

    spec = s2(Scheme.SO, alpha=ALPHA, kappa=KAPPA, entropy_bits=ENTROPY)
    timing = TimingSpec.named(TIMING_PRESET)
    # The runs must not be billed for cyclic garbage the micro legs
    # piled up (the engine pauses GC during runs by design).
    gc.collect()
    rps = _bench_runs(spec, timing, run_seeds, run_reps)

    hotspots = _profile_hotspots(spec, timing)

    save_json(
        "bench_sim_kernel",
        {
            "benchmark": "sim_kernel",
            "smoke": smoke,
            "config": {
                "alpha": ALPHA,
                "kappa": KAPPA,
                "entropy_bits": ENTROPY,
                "max_steps": MAX_STEPS,
                "timing": TIMING_PRESET,
                "run_seeds": run_seeds,
                "run_reps": run_reps,
            },
            "kernel_events_per_sec": kernel_eps,
            "messages_per_sec": mps,
            "probe_cycle_ns": probe_ns,
            "probe_cycle_probes": probes,
            "pb_liveness_tick_ns": tick_ns,
            "pb_liveness_ticks": ticks,
            "runs_per_sec": rps,
            "profile_top10": hotspots,
        },
    )
    ab = f"last A/B vs pre-refactor ({AB_COMMIT})"
    save_table(
        "bench_sim_kernel",
        render_table(
            ["metric", "current engine", ab],
            [
                [
                    "kernel events/sec",
                    f"{kernel_eps:,.0f}",
                    f"{AB_SPEEDUPS['kernel']:.2f}x",
                ],
                ["messages/sec", f"{mps:,.0f}", f"{AB_SPEEDUPS['messages']:.2f}x"],
                ["ns per probe cycle", f"{probe_ns:,.0f}", "-"],
                ["ns per PB liveness tick", f"{tick_ns:,.0f}", "-"],
                ["S2SO runs/sec", f"{rps:.1f}", f"{AB_SPEEDUPS['runs']:.2f}x"],
            ],
            title=(
                "Simulation-kernel fast path "
                f"(S2SO alpha={ALPHA}, kappa={KAPPA}, chi=2^{ENTROPY}, "
                f"{TIMING_PRESET} timing, {run_seeds} seeds x {run_reps} reps, "
                "best rep)"
            ),
        ),
    )
    save_table(
        "sim_kernel_profile",
        render_table(
            ["ncalls", "tottime", "cumtime", "function"],
            hotspots,
            title="cProfile top-10 (tottime) of 3 S2SO runs",
        ),
    )
