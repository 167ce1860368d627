"""Result-cache replay of a paper-baseline campaign (BENCH).

Runs ``protocol-sweep --scenario paper-baseline`` twice through the
real CLI against a fresh cache directory: once cold (every grid point
simulated, entries written) and once warm (every grid point replayed
from disk).  Asserted content — the acceptance contract of the result
cache:

* the warm run scores exactly one cache hit per grid point and zero
  misses, and dispatches **zero** protocol tasks (checked by poisoning
  the task runner during the warm leg);
* the cold and warm campaign records are bit-identical outside the
  ``cache`` tally, and a second warm run is bit-identical *including*
  it;
* replay is faster than simulation (reported as the speedup column).

A last leg splits a warm replay's time into its phases — deriving the
seed blocks, building the keys, reading the entries, decoding the
outcomes and folding the blocks — by wrapping those five callables with
timers (the same way the task runner is poisoned); whatever the wrapped
calls do not cover is CLI, executor and record overhead.  The record
also keeps what one seed costs: a lone ``derive_point_seed`` call
against its share of one ``derive_point_seeds`` block.

The JSON record persists under
``benchmarks/results/bench_result_cache.json``; ``--smoke`` scales the
seed count down for CI.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess
import time
import timeit
from contextlib import contextmanager

import repro.core.campaign as campaign_module
import repro.core.experiment as experiment_module
from repro.cache import ResultCache
from repro.cli import main
from repro.mc.executor import derive_point_seed, derive_point_seeds
from repro.reporting.tables import render_table
from repro.scenarios import get_scenario

SEED = 20260807
FULL_TRIALS = 30
MAX_STEPS = 60
SCENARIO = "paper-baseline"
#: Warm replays timed phase by phase (their mean is recorded).
SPLIT_REPLAYS = 20
#: The replay phases and the callables that each one's time is read from.
PHASES = {
    "seeds": (campaign_module, "derive_point_seeds"),
    "keys": (ResultCache, "key_for"),
    "lookup": (ResultCache, "lookup"),
    "decode": (experiment_module, "_outcomes_from_payload"),
    "fold": (experiment_module, "_fold_block"),
}
#: Seeds per block in the seed-cost comparison.
SEED_BLOCK = 16


def _sweep(argv_tail: list[str]) -> float:
    start = time.perf_counter()
    code = main(["protocol-sweep", "--scenario", SCENARIO, *argv_tail])
    assert code == 0, f"protocol-sweep exited {code}"
    return time.perf_counter() - start


def _poisoned_task_runner(task):
    raise AssertionError("warm cache run must not dispatch protocol tasks")


@contextmanager
def _phase_timers(totals: dict[str, float]):
    """Add the time spent inside each :data:`PHASES` callable to ``totals``."""
    originals = {name: getattr(*where) for name, where in PHASES.items()}

    def timed(name, original):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                totals[name] += time.perf_counter() - start

        return wrapper

    for name, (owner, attr) in PHASES.items():
        setattr(owner, attr, timed(name, originals[name]))
    try:
        yield
    finally:
        for name, (owner, attr) in PHASES.items():
            setattr(owner, attr, originals[name])


def _seed_cost_us(derive) -> float:
    """Best-of-5 microseconds per seed of ``derive()`` (one block's seeds)."""
    return min(timeit.repeat(derive, number=200, repeat=5)) / 200 / SEED_BLOCK * 1e6


def _commit() -> str | None:
    """``git describe --always --dirty`` of the checkout, if it is one."""
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            check=True,
            cwd=pathlib.Path(__file__).parent,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return described.stdout.strip() or None


def bench_result_cache(
    save_table, save_json, scale_trials, smoke, tmp_path, compare_records
):
    trials = scale_trials(FULL_TRIALS, floor=3)
    cache_dir = tmp_path / "campaign-cache"
    records = {name: tmp_path / f"{name}.json" for name in ("cold", "warm", "rerun")}
    grid_points = len(get_scenario(SCENARIO).grid())

    common = [
        "--trials",
        str(trials),
        "--max-steps",
        str(MAX_STEPS),
        "--seed",
        str(SEED),
        "--cache-dir",
        str(cache_dir),
    ]
    cold_s = _sweep([*common, "--output", str(records["cold"])])

    # Warm leg: every grid point must replay from disk — poison the task
    # runner so any dispatch attempt fails loudly instead of silently
    # recomputing.
    original = experiment_module.run_protocol_task
    experiment_module.run_protocol_task = _poisoned_task_runner
    totals = dict.fromkeys(PHASES, 0.0)
    try:
        warm_s = _sweep([*common, "--output", str(records["warm"])])
        rerun_s = _sweep([*common, "--output", str(records["rerun"])])
        with _phase_timers(totals):
            split_s = sum(_sweep(common) for _ in range(SPLIT_REPLAYS))
    finally:
        experiment_module.run_protocol_task = original
    phases_ms = {name: total / SPLIT_REPLAYS * 1e3 for name, total in totals.items()}
    phases_ms["other"] = split_s / SPLIT_REPLAYS * 1e3 - sum(phases_ms.values())
    seed_us = {
        "block": SEED_BLOCK,
        "per_call": _seed_cost_us(
            lambda: [derive_point_seed(SEED, 0, j) for j in range(SEED_BLOCK)]
        ),
        "per_block_seed": _seed_cost_us(
            lambda: derive_point_seeds(SEED, 0, start=0, stop=SEED_BLOCK)
        ),
    }

    cold = json.loads(records["cold"].read_text())
    warm = json.loads(records["warm"].read_text())
    rerun = json.loads(records["rerun"].read_text())

    assert cold["cache"] == {"hits": 0, "misses": grid_points}
    assert warm["cache"] == {"hits": grid_points, "misses": 0}
    # Warm-vs-warm: bit-identical records, cache tally included.
    compare_records(warm, rerun)
    # Cold-vs-warm: bit-identical outside the cache tally.
    compare_records(cold, warm, ignore=("wall_seconds", "cache"))

    entries = len(list(pathlib.Path(cache_dir).rglob("*.json")))
    assert entries == grid_points

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    table = render_table(
        ["leg", "grid points", "hits", "misses", "seconds"],
        [
            [
                "cold",
                str(grid_points),
                "0",
                str(grid_points),
                f"{cold_s:.2f}",
            ],
            ["warm", str(grid_points), str(grid_points), "0", f"{warm_s:.2f}"],
            ["warm rerun", str(grid_points), str(grid_points), "0", f"{rerun_s:.2f}"],
        ],
        title=(
            f"Result-cache replay ({SCENARIO}, {trials} seeds/point, "
            f"budget {MAX_STEPS} steps): warm replay {speedup:.1f}x faster, "
            "records bit-identical, zero tasks dispatched"
        ),
    )
    replay_ms = split_s / SPLIT_REPLAYS * 1e3
    split = render_table(
        ["phase", "ms per replay", "share"],
        [
            [name, f"{ms:.3f}", f"{ms / replay_ms:.0%}"]
            for name, ms in phases_ms.items()
        ],
        title=(
            f"Where a warm replay's {replay_ms:.2f} ms go "
            f"(mean of {SPLIT_REPLAYS} replays, {grid_points} blocks of "
            f"{trials} runs); a seed costs {seed_us['per_block_seed']:.1f} us "
            f"in a {SEED_BLOCK}-seed block, {seed_us['per_call']:.1f} us alone"
        ),
    )
    save_table("bench_result_cache", f"{table}\n\n{split}")
    save_json(
        "bench_result_cache",
        {
            "benchmark": "result_cache_replay",
            "seed": SEED,
            "smoke": smoke,
            "scenario": SCENARIO,
            "trials_per_point": trials,
            "max_steps": MAX_STEPS,
            "grid_points": grid_points,
            "cache_entries": entries,
            "cold_seconds": cold_s,
            "warm_seconds": warm_s,
            "warm_rerun_seconds": rerun_s,
            "warm_speedup": speedup,
            "records_bit_identical": True,
            "replay_split_ms": {"replays": SPLIT_REPLAYS, **phases_ms},
            "seed_us": seed_us,
            "commit": _commit(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
    )
