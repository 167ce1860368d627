"""Perf-trend table over bench results and telemetry snapshots.

Closes the observability loop: every bench under ``benchmarks/results/``
already emits a JSON record, and campaigns can now emit
``repro-metrics/1`` snapshots (``--metrics-out``) — this module folds
both into one markdown table CI publishes per run, so throughput drifts
across PRs are visible without digging through artifacts.

Selection is by metric-name convention, not per-bench schemas: any
numeric leaf whose dotted name ends in a throughput/speedup/efficiency
suffix (``_per_sec``, ``per_second``, ``_speedup``, ``_gain``) or a
duration suffix (``_seconds``/``seconds``) is a trend metric; config
scalars (seeds, alphas, grid sizes) never match and stay out.  New
benches therefore join the table by following the naming convention —
no registration step.

The regression guard is deliberately *soft*: smoke-bench runs on shared
CI hardware are noisy, so a >20% drop against the recorded baseline
(``trend_baseline.json``, captured from full-scale runs) flags a ⚠
row and a warning line — never a failed job.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator, Mapping, Optional

#: Name suffixes marking a *higher-is-better* trend metric (guarded).
HIGHER_BETTER_SUFFIXES = ("_per_sec", "per_second", "_speedup", "_gain")

#: Name suffixes marking a duration metric (reported, never guarded —
#: wall time on shared hardware is context, not a contract).
DURATION_SUFFIXES = ("_seconds", "seconds")

#: Fractional drop against baseline that flags a soft regression.
DEFAULT_DROP_THRESHOLD = 0.20

#: Default baseline location, alongside the bench results it describes.
BASELINE_NAME = "trend_baseline.json"


def _is_trend_name(name: str) -> bool:
    if name.endswith("_target"):
        return False  # bench-internal assertion thresholds, not results
    return higher_is_better(name) or name.endswith(DURATION_SUFFIXES)


def higher_is_better(name: str) -> bool:
    """Whether a drop in ``name`` is a regression (vs just a change).

    Only the leaf name counts: a leaf nested under a throughput-named
    parent, like ``kernel_events_per_sec.new``, is not a trend.
    """
    return name.endswith(HIGHER_BETTER_SUFFIXES)


def _numeric_leaves(obj, prefix: str = "") -> Iterator[tuple[str, float]]:
    """Every ``dotted.name -> number`` leaf of a nested JSON record."""
    if isinstance(obj, Mapping):
        for key, value in obj.items():
            name = f"{prefix}.{key}" if prefix else str(key)
            if isinstance(value, bool):
                continue
            if isinstance(value, (int, float)):
                yield name, float(value)
            elif isinstance(value, Mapping):
                yield from _numeric_leaves(value, name)
            # Lists (bench rows, histogram buckets) are per-point data,
            # not trend scalars: skipped by design.


def collect_trends(results_dir: Path | str) -> dict[str, float]:
    """Trend metrics from every ``*.json`` under ``results_dir``.

    Keys are ``<file-stem>.<dotted.path>``.  Unreadable files are
    skipped (a half-written artifact must not sink the report) and the
    baseline file itself is never ingested as a result.
    """
    results_dir = Path(results_dir)
    trends: dict[str, float] = {}
    for path in sorted(results_dir.glob("*.json")):
        if path.name == BASELINE_NAME:
            continue
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        if not isinstance(record, dict):
            continue
        for name, value in _numeric_leaves(record):
            full = f"{path.stem}.{name}"
            if _is_trend_name(full):
                trends[full] = value
    return trends


def load_baseline(path: Path | str) -> dict[str, float]:
    """The recorded baseline, or ``{}`` when absent/unreadable."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    if not isinstance(payload, dict):
        return {}
    metrics = payload.get("metrics", payload)
    return {
        str(k): float(v)
        for k, v in metrics.items()
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    }


def write_baseline(path: Path | str, trends: Mapping[str, float]) -> None:
    """Record ``trends`` as the new baseline (sorted, diffable)."""
    payload = {
        "format": "repro-trend-baseline/1",
        "metrics": dict(sorted(trends.items())),
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def find_regressions(
    current: Mapping[str, float],
    baseline: Mapping[str, float],
    threshold: float = DEFAULT_DROP_THRESHOLD,
) -> list[tuple[str, float, float, float]]:
    """Higher-is-better metrics that dropped more than ``threshold``.

    Returns ``(name, current, baseline, drop_fraction)`` rows, worst
    first.
    """
    rows = []
    for name, value in current.items():
        if not higher_is_better(name):
            continue
        base = baseline.get(name)
        if base is None or base <= 0:
            continue
        drop = (base - value) / base
        if drop > threshold:
            rows.append((name, value, base, drop))
    rows.sort(key=lambda row: -row[3])
    return rows


def _format_value(value: float) -> str:
    magnitude = abs(value)
    if magnitude >= 1e5 or (0 < magnitude < 1e-3):
        return f"{value:.3e}"
    if magnitude >= 100:
        return f"{value:.1f}"
    return f"{value:.4g}"


def render_trend_table(
    current: Mapping[str, float],
    baseline: Mapping[str, float],
    threshold: float = DEFAULT_DROP_THRESHOLD,
) -> str:
    """One markdown table of every trend metric vs the baseline.

    Durations are shown for context; only higher-is-better rows get the
    regression flag.  Metrics with no baseline show ``-`` (new bench or
    first run) instead of a delta.
    """
    lines = [
        "| metric | current | baseline | Δ | |",
        "| --- | ---: | ---: | ---: | --- |",
    ]
    for name in sorted(current):
        value = current[name]
        base = baseline.get(name)
        if base is None or base == 0:
            delta, flag = "-", ""
        else:
            change = (value - base) / abs(base)
            delta = f"{change:+.1%}"
            flag = (
                "⚠ regression"
                if higher_is_better(name) and -change > threshold
                else ""
            )
        base_text = "-" if base is None else _format_value(base)
        lines.append(
            f"| `{name}` | {_format_value(value)} | {base_text} "
            f"| {delta} | {flag} |"
        )
    return "\n".join(lines)


def trend_report(
    results_dir: Path | str,
    baseline_path: Path | str | None = None,
    threshold: float = DEFAULT_DROP_THRESHOLD,
) -> str:
    """The full markdown report: header, table, soft regression notes."""
    results_dir = Path(results_dir)
    if baseline_path is None:
        baseline_path = results_dir / BASELINE_NAME
    current = collect_trends(results_dir)
    baseline = load_baseline(baseline_path)
    lines = ["## Perf trends", ""]
    if not current:
        lines.append(f"No trend metrics found under `{results_dir}`.")
        return "\n".join(lines)
    lines.append(render_trend_table(current, baseline, threshold))
    regressions = find_regressions(current, baseline, threshold)
    if regressions:
        lines.append("")
        for name, value, base, drop in regressions:
            lines.append(
                f"> ⚠ `{name}` dropped {drop:.0%} vs baseline "
                f"({_format_value(value)} < {_format_value(base)}) — "
                "soft guard, not a failure; investigate or re-baseline."
            )
    elif baseline:
        lines.append("")
        lines.append(
            f"No soft regressions (> {threshold:.0%} drop) against the "
            "recorded baseline."
        )
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    """``python -m repro.reporting.trends <results-dir> [options]``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.reporting.trends",
        description="Render the perf-trend markdown table for CI.",
    )
    parser.add_argument("results_dir", help="directory of bench/metrics JSONs")
    parser.add_argument(
        "--baseline",
        default=None,
        help=f"baseline JSON (default <results-dir>/{BASELINE_NAME})",
    )
    parser.add_argument(
        "--output", default=None, help="write markdown here instead of stdout"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_DROP_THRESHOLD,
        help="soft-regression drop fraction (default 0.20)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="record the current metrics as the new baseline and exit",
    )
    args = parser.parse_args(argv)
    results_dir = Path(args.results_dir)
    baseline_path = (
        Path(args.baseline)
        if args.baseline is not None
        else results_dir / BASELINE_NAME
    )
    if args.write_baseline:
        write_baseline(baseline_path, collect_trends(results_dir))
        print(f"baseline written to {baseline_path}")
        return 0
    report = trend_report(results_dir, baseline_path, args.threshold)
    if args.output is not None:
        Path(args.output).write_text(report + "\n", encoding="utf-8")
    else:
        print(report)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
