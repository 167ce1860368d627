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

The JSON record persists under
``benchmarks/results/bench_result_cache.json``; ``--smoke`` scales the
seed count down for CI.
"""

from __future__ import annotations

import json
import pathlib
import time

import repro.core.experiment as experiment_module
from repro.cli import main
from repro.reporting.tables import render_table
from repro.scenarios import get_scenario

SEED = 20260807
FULL_TRIALS = 30
MAX_STEPS = 60
SCENARIO = "paper-baseline"


def _sweep(argv_tail: list[str]) -> float:
    start = time.perf_counter()
    code = main(["protocol-sweep", "--scenario", SCENARIO, *argv_tail])
    assert code == 0, f"protocol-sweep exited {code}"
    return time.perf_counter() - start


def _poisoned_task_runner(task):
    raise AssertionError("warm cache run must not dispatch protocol tasks")


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
    try:
        warm_s = _sweep([*common, "--output", str(records["warm"])])
        rerun_s = _sweep([*common, "--output", str(records["rerun"])])
    finally:
        experiment_module.run_protocol_task = original

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
    save_table("bench_result_cache", table)
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
        },
    )
