"""Supervised campaign under seeded chaos (BENCH).

Runs the same small ``protocol-sweep`` through the real CLI four ways —
fault-free, under a recoverable chaos pattern (crashes + transients),
under persistent poison, and re-run against its own result cache (how
an interrupted campaign resumes) — and asserts the supervision
acceptance contract:

* the chaos-supervised record is **bit-identical** to the fault-free
  record outside its ``supervision`` tally (retried attempts replay the
  exact per-task seeds, so recovery is invisible in the estimates);
* persistent poison exits 0 with the afflicted task quarantined in a
  failure manifest (written under ``benchmarks/results/``), never a
  crashed campaign or a silent gap;
* re-running the same command against the same ``--cache-dir``
  dispatches **zero** protocol tasks (checked by poisoning the task
  runner) and reproduces the original record bit-identically outside
  its cache tally.

The JSON record persists under
``benchmarks/results/bench_supervision.json``; ``--smoke`` scales the
seed count down for CI.
"""

from __future__ import annotations

import json
import pathlib
import time

import repro.core.campaign as campaign_module
import repro.core.experiment as experiment_module
from repro.cli import main
from repro.mc.executor import derive_point_seed
from repro.reporting.tables import render_table
from repro.supervision import ChaosSpec, chaos_events

SEED = 20260807
FULL_TRIALS = 40
MAX_STEPS = 60
GRID = ["--systems", "s0", "s1", "--schemes", "po", "--alphas", "0.1"]
GRID_POINTS = 2  # s0/po and s1/po at one alpha


def _task_seeds() -> list[int]:
    """First seed of each grid point's first task batch.

    Full-scale runs dispatch several batches per point; striking any
    one of these seeds is enough for the legs below, so the search
    only needs the batch-0 seeds (which always exist).
    """
    return [derive_point_seed(SEED, i, 0) for i in range(GRID_POINTS)]


def _chaos_seed(kind: str, *, partial: bool = False, **kwargs) -> int:
    """A chaos seed whose pattern afflicts this campaign with ``kind``."""
    seeds = _task_seeds()
    for chaos_seed in range(500):
        spec = ChaosSpec(seed=chaos_seed, **kwargs)
        hits = sum(1 for s in seeds if spec.fault_for(s) == kind)
        if partial and 0 < hits < len(seeds):
            return chaos_seed
        if not partial and hits > 0:
            return chaos_seed
    raise AssertionError(f"no chaos seed afflicts the campaign with {kind}")


def _sweep(argv_tail: list[str]) -> float:
    start = time.perf_counter()
    code = main(["protocol-sweep", *GRID, *argv_tail])
    assert code == 0, f"protocol-sweep exited {code}"
    return time.perf_counter() - start


def _poisoned_task_runner(task):
    raise AssertionError("cache resume must not dispatch protocol tasks")


def bench_supervision(
    save_table, save_json, scale_trials, smoke, tmp_path, compare_records
):
    trials = scale_trials(FULL_TRIALS, floor=4)
    records = {
        name: tmp_path / f"{name}.json"
        for name in ("clean", "chaos", "poison", "first", "resumed")
    }
    base = [
        "--trials",
        str(trials),
        "--max-steps",
        str(MAX_STEPS),
        "--seed",
        str(SEED),
        "--workers",
        "1",
    ]
    common = [*base, "--no-cache"]

    clean_s = _sweep([*common, "--output", str(records["clean"])])

    # Recoverable chaos: every injected crash/transient is retried away.
    chaos = ChaosSpec(
        seed=_chaos_seed("transient", transient=0.45, crash=0.45),
        transient=0.45,
        crash=0.45,
    )
    injected = chaos_events(chaos, _task_seeds())
    chaos_s = _sweep(
        [
            *common,
            "--chaos",
            f"seed={chaos.seed},transient=0.45,crash=0.45",
            "--retries",
            "4",
            "--output",
            str(records["chaos"]),
        ]
    )

    clean = json.loads(records["clean"].read_text())
    chaotic = json.loads(records["chaos"].read_text())
    supervision = chaotic.pop("supervision")
    assert supervision["retries"] >= 1
    assert supervision["quarantined"] == 0
    compare_records(clean, chaotic)

    # Persistent poison: quarantined + manifested, exit code still 0.
    # The manifest lands under benchmarks/results/ so CI attaches it to
    # the run alongside the bench records.
    results_dir = pathlib.Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    manifest_path = results_dir / "bench_supervision_manifest.json"
    poison_seed = _chaos_seed("poison", partial=True, poison=0.5)
    _sweep(
        [
            *common,
            "--chaos",
            f"seed={poison_seed},poison=0.5",
            "--retries",
            "2",
            "--failure-manifest",
            str(manifest_path),
            "--output",
            str(records["poison"]),
        ]
    )
    manifest = json.loads(manifest_path.read_text())
    assert manifest["quarantined"] >= 1
    assert all(f["kind"] == "error" for f in manifest["failures"])
    poisoned = json.loads(records["poison"].read_text())
    # Each quarantined batch removes exactly its runs: afflicted points
    # fold from the survivors or drop entirely — the campaign always
    # completes, and the run tally accounts for every lost seed.
    assert len(poisoned["rows"]) <= GRID_POINTS
    lost_runs = sum(len(f["seeds"]) for f in manifest["failures"])
    assert poisoned["total_runs"] == clean["total_runs"] - lost_runs

    # Cache resume: the same command against the same cache replays
    # every grid point from disk.
    cached = [*base, "--cache-dir", str(tmp_path / "campaign-cache")]
    _sweep([*cached, "--output", str(records["first"])])
    originals = (
        campaign_module.run_protocol_task,
        experiment_module.run_protocol_task,
    )
    campaign_module.run_protocol_task = _poisoned_task_runner
    experiment_module.run_protocol_task = _poisoned_task_runner
    try:
        resume_s = _sweep([*cached, "--output", str(records["resumed"])])
    finally:
        campaign_module.run_protocol_task = originals[0]
        experiment_module.run_protocol_task = originals[1]
    first = json.loads(records["first"].read_text())
    resumed = json.loads(records["resumed"].read_text())
    assert resumed["cache"] == {"hits": GRID_POINTS, "misses": 0}
    compare_records(first, resumed, ignore=("wall_seconds", "cache"))

    table = render_table(
        ["leg", "faults injected", "retries", "quarantined", "seconds"],
        [
            ["clean", "0", "0", "0", f"{clean_s:.2f}"],
            [
                "chaos (crash+transient)",
                str(GRID_POINTS - injected["clean"]),
                str(supervision["retries"]),
                "0",
                f"{chaos_s:.2f}",
            ],
            [
                "poison",
                str(manifest["quarantined"]),
                "-",
                str(manifest["quarantined"]),
                "-",
            ],
            ["cache resume", "0", "0", "0", f"{resume_s:.2f}"],
        ],
        title=(
            f"Supervised campaign under chaos ({trials} seeds/point, "
            f"budget {MAX_STEPS} steps): recovery bit-identical, poison "
            "quarantined, resume dispatches zero tasks"
        ),
    )
    save_table("bench_supervision", table)
    save_json(
        "bench_supervision",
        {
            "benchmark": "campaign_supervision",
            "seed": SEED,
            "smoke": smoke,
            "trials_per_point": trials,
            "max_steps": MAX_STEPS,
            "grid_points": GRID_POINTS,
            "chaos": {"seed": chaos.seed, "injected": injected},
            "supervision": supervision,
            "poison": {
                "seed": poison_seed,
                "quarantined": manifest["quarantined"],
                "surviving_points": len(poisoned["rows"]),
            },
            "clean_seconds": clean_s,
            "chaos_seconds": chaos_s,
            "resume_seconds": resume_s,
            "records_bit_identical": True,
        },
    )
