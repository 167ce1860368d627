"""Self-test of the benchmark harness, at tiny scale (about a minute).

    python3 perfbench/selftest.py

Checks that

1. every workload completes in both modes, exits 0 and prints exactly
   the metric names and units ``BENCHMARK.json`` lists for that mode;
2. the digest gate trips on a perturbed record and on a perturbed run;
3. a different ``--seed`` changes the generated inputs;
4. in a directory holding only ``BENCHMARK.json`` and ``perfbench/``
   (no source tree) the command exits non-zero and prints no result.

Exits 1 listing the failed checks, 0 when all pass.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import campaigns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FAILURES: list[str] = []


def check(ok: bool, message: str) -> None:
    if not ok:
        FAILURES.append(message)


def bench(cwd: Path, workload: str, trace: int, scale: str = "tiny"):
    argv = ["--workload", workload, "--seed", "0", "--seconds", "1"]
    argv += ["--trace", str(trace), "--scale", scale]
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def check_workloads_and_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    check(sorted(names) == sorted(campaigns.workloads()), "BENCHMARK.json workloads")
    for workload in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            proc = bench(ROOT, workload, trace)
            if proc.returncode != 0:
                FAILURES.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            check(
                set(result) == {"correct", "attempted", "failed", "metrics"},
                f"{label}: result keys",
            )
            check(result["correct"] and result["failed"] == 0, f"{label}: gate")
            check(result["attempted"] >= 1, f"{label}: nothing attempted")
            expected = {m["name"]: m["unit"] for m in spec[key]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            check(printed == expected, f"{label}: metric names or units")


def check_gate_trips() -> None:
    workload = campaigns.workloads("tiny")["short-fanout"]
    root = campaigns.root_seed(workload.name, 0, 0)
    result = workload.run(root, None)
    digest = campaigns.outcome_digest(result)
    check(not campaigns.replay_problems(digest, result), "gate rejects a clean replay")
    check(
        not campaigns.reference_problems(workload, root, result),
        "gate rejects clean reference runs",
    )
    first = result.estimates[0]
    stats = dataclasses.replace(first.stats, mean=first.stats.mean + 1.0)
    perturbed = dataclasses.replace(
        result, estimates=(dataclasses.replace(first, stats=stats),)
        + result.estimates[1:]
    )
    check(
        bool(campaigns.replay_problems(digest, perturbed)),
        "gate accepts a perturbed record",
    )
    run = first.outcomes[0]
    outcomes = (dataclasses.replace(run, steps=run.steps + 1),) + first.outcomes[1:]
    perturbed = dataclasses.replace(
        result, estimates=(dataclasses.replace(first, outcomes=outcomes),)
        + result.estimates[1:]
    )
    check(
        bool(campaigns.reference_problems(workload, root, perturbed)),
        "gate accepts a perturbed run",
    )


def check_seed_changes_inputs() -> None:
    for name in campaigns.workloads("tiny"):
        roots = {campaigns.root_seed(name, seed, 0) for seed in (0, 1)}
        check(len(roots) == 2, f"{name}: seeds 0 and 1 give the same inputs")
    workload = campaigns.workloads("tiny")["short-fanout"]
    digests = {
        campaigns.outcome_digest(
            workload.run(campaigns.root_seed(workload.name, seed, 0), None)
        )
        for seed in (0, 1)
    }
    check(len(digests) == 2, "seeds 0 and 1 give the same outcomes")


def check_refuses_without_source() -> None:
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            HERE,
            Path(bare) / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        proc = bench(Path(bare), "long-attack", 0, scale="full")
    check(proc.returncode != 0, "ran without a source tree")
    check(not proc.stdout.strip(), "printed a result without a source tree")


def main() -> int:
    for test in (
        check_workloads_and_names,
        check_gate_trips,
        check_seed_changes_inputs,
        check_refuses_without_source,
    ):
        test()
        print(f"{test.__name__}: {'ok' if not FAILURES else 'FAILED'}", flush=True)
        if FAILURES:
            break
    for failure in FAILURES:
        print(f"FAILED: {failure}", file=sys.stderr)
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
