"""Telemetry-layer tests: the neutrality and invariance contracts.

The instrumentation added for observability must never change what the
engine computes: goldens stay bit-identical with tracing on or off
(RNG- and estimate-neutrality), counter totals are invariant under
executor fan-out (workers 1 / N / serial fallback), and the disabled
path stays allocation-free (the shared null-span singleton).
"""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from repro.core.campaign import campaign_grid, campaign_record, run_campaign
from repro.core.specs import SystemClass
from repro.randomization.obfuscation import Scheme
from repro.reporting.trends import (
    collect_trends,
    find_regressions,
    load_baseline,
    render_trend_table,
    trend_report,
    write_baseline,
)
from repro.telemetry import (
    ProgressReporter,
    RunMetrics,
    disable_tracing,
    enable_tracing,
    span,
    tracing_enabled,
)
from repro.telemetry.registry import histogram


def _small_grid():
    return campaign_grid(
        systems=(SystemClass.S1, SystemClass.S2),
        schemes=(Scheme.SO,),
        alphas=(0.2,),
        kappas=(0.5,),
        entropy_bits=6,
    )


def _record_sans_wall(result) -> str:
    record = campaign_record(result)
    record.pop("wall_seconds")
    return json.dumps(record, sort_keys=True)


# ----------------------------------------------------------------------
# RunMetrics primitives
# ----------------------------------------------------------------------
def test_run_metrics_merge_and_round_trip():
    a = RunMetrics(events_executed=10, probes_direct=3, messages_sent=7)
    b = RunMetrics(events_executed=5, probes_indirect=2, messages_sent=1)
    merged = a + b
    assert merged.events_executed == 15
    assert merged.probes_direct == 3
    assert merged.probes_indirect == 2
    assert merged.messages_sent == 8
    assert RunMetrics.from_dict(merged.as_dict()) == merged
    # Strict decode: a missing counter raises instead of replaying as 0.
    with pytest.raises(KeyError):
        RunMetrics.from_dict({"events_executed": 4, "novel_field": 9})


def test_histogram_buckets_by_upper_bound_with_overflow():
    buckets = histogram([0, 1, 2, 3, 9, 8], bounds=(1.0, 2.0, 8.0))
    assert buckets == {
        "bounds": [1.0, 2.0, 8.0],
        "counts": [2, 1, 2, 1],  # (.., 1], (1, 2], (2, 8], overflow
        "count": 6,
        "total": 23.0,
    }


# ----------------------------------------------------------------------
# Spans: disabled-path overhead and trace emission
# ----------------------------------------------------------------------
def test_disabled_span_is_shared_singleton():
    """The zero-overhead contract: with no sink, span() allocates
    nothing — every call returns the same module-level no-op."""
    assert not tracing_enabled()
    assert span("campaign.prepare") is span("campaign.fold", tasks=3)


def test_tracing_emits_jsonl_and_reverts(tmp_path):
    trace = tmp_path / "trace.jsonl"
    sink = enable_tracing(trace)
    try:
        assert tracing_enabled()
        with span("unit.phase", items=2):
            pass
        assert sink.emitted == 2  # header + one span
    finally:
        disable_tracing()
    assert span("after") is span("later")
    lines = [json.loads(line) for line in trace.read_text().splitlines()]
    assert lines[0] == {"format": "repro-trace/1"}
    assert lines[1]["span"] == "unit.phase"
    assert lines[1]["items"] == 2
    assert lines[1]["seconds"] >= 0.0


# ----------------------------------------------------------------------
# Neutrality: telemetry on vs off is bit-identical
# ----------------------------------------------------------------------
def test_campaign_bit_identical_with_tracing_on_and_off(tmp_path):
    specs = _small_grid()
    kwargs = dict(trials=4, max_steps=40, seed=11, workers=1)
    baseline = run_campaign(specs, **kwargs)
    enable_tracing(tmp_path / "trace.jsonl")
    try:
        traced = run_campaign(specs, **kwargs)
    finally:
        disable_tracing()
    assert _record_sans_wall(baseline) == _record_sans_wall(traced)
    for a, b in zip(baseline, traced):
        assert a.stats == b.stats
        assert [o.steps for o in a.outcomes] == [o.steps for o in b.outcomes]


# ----------------------------------------------------------------------
# Fan-out invariance: counter totals don't depend on the executor shape
# ----------------------------------------------------------------------
def test_metrics_snapshot_invariant_across_fanout(monkeypatch):
    specs = _small_grid()
    kwargs = dict(trials=4, max_steps=40, seed=5)
    serial = run_campaign(specs, workers=1, **kwargs)
    fanned = run_campaign(specs, workers=2, **kwargs)

    def _refuse(*args, **exec_kwargs):
        raise PermissionError("process pools forbidden")

    monkeypatch.setattr("os.fork", _refuse)
    with pytest.warns(RuntimeWarning, match="process pool unavailable"):
        fallback = run_campaign(specs, workers=2, **kwargs)

    reference = serial.metrics_snapshot()
    assert reference.counters["runs_total"] == len(specs) * 4
    assert reference.counters["events_executed"] == serial.total_events
    assert reference.counters["sim_messages_sent"] > 0
    for other in (fanned, fallback):
        snapshot = other.metrics_snapshot()
        assert snapshot.counters == reference.counters
        assert snapshot.histograms == reference.histograms


def test_campaign_record_metrics_section_is_opt_in():
    specs = _small_grid()
    result = run_campaign(specs, trials=2, max_steps=40, seed=1, workers=1)
    assert "metrics" not in campaign_record(result)
    record = campaign_record(result, metrics=result.metrics_snapshot())
    assert record["metrics"]["format"] == "repro-metrics/1"
    assert record["metrics"]["counters"]["events_executed"] == result.total_events


# ----------------------------------------------------------------------
# Progress streaming
# ----------------------------------------------------------------------
class _FakeTty(io.StringIO):
    def isatty(self) -> bool:
        return True


def test_progress_reporter_non_tty_renders_full_lines():
    specs = _small_grid()
    stream = io.StringIO()
    progress = ProgressReporter(stream, label="unit", min_interval=0.0)
    result = run_campaign(
        specs, trials=3, max_steps=40, seed=2, workers=1, progress=progress
    )
    text = stream.getvalue()
    lines = [line for line in text.splitlines() if line]
    assert lines, "progress must emit at least one line"
    assert all(line.startswith("unit: ") for line in lines)
    assert f"{result.total_runs}/{result.total_runs} runs" in lines[-1]
    assert "ev/s" in lines[-1]
    assert "\r" not in text  # non-TTY streams get plain appended lines


def test_progress_reporter_tty_rewrites_one_line():
    specs = _small_grid()
    stream = _FakeTty()
    progress = ProgressReporter(stream, label="tty", min_interval=0.0)
    run_campaign(
        specs, trials=2, max_steps=40, seed=2, workers=1, progress=progress
    )
    text = stream.getvalue()
    assert "\r\x1b[2K" in text  # carriage-return rewrite, not scroll
    assert text.endswith("\n")  # finish() closes the live line


def test_progress_is_estimate_neutral():
    specs = _small_grid()
    kwargs = dict(trials=3, max_steps=40, seed=8, workers=1)
    quiet = run_campaign(specs, **kwargs)
    noisy = run_campaign(
        specs, progress=ProgressReporter(io.StringIO(), min_interval=0.0), **kwargs
    )
    assert _record_sans_wall(quiet) == _record_sans_wall(noisy)


# ----------------------------------------------------------------------
# Perf trends
# ----------------------------------------------------------------------
def test_trends_collect_select_and_guard(tmp_path):
    (tmp_path / "bench_demo.json").write_text(
        json.dumps(
            {
                "kernel_events_per_sec": {"new": 100.0, "legacy": 50.0},
                "rates": {"runs_per_sec": 8.0},
                "warm_speedup": 4.0,
                "elapsed_seconds": 2.0,
                "seed": 123,  # config scalar: must not become a trend
                "speedup_target": 3.0,  # assertion threshold: excluded
            }
        )
    )
    current = collect_trends(tmp_path)
    # Only the leaf name counts: a nested leaf is not a trend, even under
    # a throughput-named parent.
    assert "bench_demo.kernel_events_per_sec.new" not in current
    assert "bench_demo.rates.runs_per_sec" in current
    assert "bench_demo.warm_speedup" in current
    assert "bench_demo.elapsed_seconds" in current
    assert "bench_demo.seed" not in current
    assert "bench_demo.speedup_target" not in current

    baseline_path = tmp_path / "trend_baseline.json"
    write_baseline(baseline_path, current)
    assert load_baseline(baseline_path) == current
    assert find_regressions(current, load_baseline(baseline_path)) == []

    # Halve a throughput metric: a >20% drop must flag, softly.
    doubled = {k: 2 * v for k, v in current.items()}
    write_baseline(baseline_path, doubled)
    rows = find_regressions(current, load_baseline(baseline_path))
    names = [name for name, *_ in rows]
    assert "bench_demo.warm_speedup" in names
    assert "bench_demo.elapsed_seconds" not in names  # durations never guarded
    table = render_trend_table(current, load_baseline(baseline_path))
    assert "⚠ regression" in table
    report = trend_report(tmp_path, baseline_path)
    assert "soft guard, not a failure" in report


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_command(capsys, tmp_path):
    code, out, err = run_cli(capsys, "info", "--cache-dir", str(tmp_path))
    assert code == 0
    assert "engine version" in out
    assert "detected CPUs" in out
    assert "paper-baseline" in out  # scenarios listed


def test_protocol_sweep_progress_and_metrics_out(capsys, tmp_path):
    metrics_path = tmp_path / "metrics.json"
    record_path = tmp_path / "record.json"
    argv = [
        "protocol-sweep",
        "--systems",
        "s2",
        "--schemes",
        "po",
        "--alphas",
        "0.2",
        "--trials",
        "4",
        "--max-steps",
        "40",
        "--no-cache",
        "--progress",
        "--metrics-out",
        str(metrics_path),
        "--output",
        str(record_path),
    ]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert "protocol-sweep:" in err  # live progress lines on stderr
    assert "runs" in err and "ev/s" in err
    metrics = json.loads(metrics_path.read_text())
    record = json.loads(record_path.read_text())
    assert metrics["format"] == "repro-metrics/1"
    assert metrics["counters"]["events_executed"] == record["total_events"]
    assert metrics["counters"]["runs_total"] == record["total_runs"]
    assert record["metrics"] == metrics  # --output embeds the same snapshot


def test_scenario_run_trace_out(capsys, tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    code, out, err = run_cli(
        capsys,
        "scenario",
        "run",
        "lossy-wan",
        "--trials",
        "2",
        "--max-steps",
        "30",
        "--no-cache",
        "--trace-out",
        str(trace_path),
    )
    assert code == 0
    assert not tracing_enabled()  # CLI must tear the sink down again
    spans = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert spans[0] == {"format": "repro-trace/1"}
    names = {record.get("span") for record in spans[1:]}
    assert {"campaign.prepare", "campaign.dispatch", "campaign.fold"} <= names
