"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.scenarios import get_scenario


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_trends_command_reports_all_holding(capsys):
    code, out, err = run_cli(capsys, "trends")
    assert code == 0
    assert out.count("HOLDS") == 4
    assert "kappa* vs S1PO" in out


def test_figure1_analytic(capsys):
    code, out, err = run_cli(capsys, "figure1")
    assert code == 0
    for label in ("S0PO", "S2PO", "S1PO", "S1SO", "S0SO"):
        assert label in out
    assert "1.000e-05" in out


def test_figure1_with_mc_trials(capsys):
    code, out, err = run_cli(capsys, "figure1", "--mc-trials", "500")
    assert code == 0
    assert "Monte-Carlo" in out
    assert "[" in out  # CI brackets


def test_figure1_rejects_zero_mc_trials(capsys):
    code, out, err = run_cli(capsys, "figure1", "--mc-trials", "0")
    assert code == 2
    assert "at least 2 trials" in err


def test_figure2(capsys):
    code, out, err = run_cli(capsys, "figure2")
    assert code == 0
    assert "kappa=0.9" in out


def test_lifetime_command_analytic_and_mc(capsys):
    code, out, err = run_cli(
        capsys,
        "lifetime",
        "--system",
        "s1",
        "--scheme",
        "po",
        "--alpha",
        "0.01",
        "--trials",
        "5000",
    )
    assert code == 0
    assert "analytic EL" in out and "99" in out
    assert "Monte-Carlo EL" in out


def test_lifetime_s2so_small_alpha_degrades_gracefully(capsys):
    code, out, err = run_cli(
        capsys,
        "lifetime",
        "--system",
        "s2",
        "--scheme",
        "so",
        "--alpha",
        "1e-5",
        "--trials",
        "2000",
    )
    assert code == 0
    assert "unavailable" in out  # analytic refuses, MC still reported
    assert "Monte-Carlo EL" in out


def test_protocol_command(capsys):
    code, out, err = run_cli(
        capsys,
        "protocol",
        "--system",
        "s1",
        "--scheme",
        "so",
        "--alpha",
        "0.1",
        "--entropy-bits",
        "8",
        "--trials",
        "3",
        "--max-steps",
        "50",
    )
    assert code == 0
    assert "mean EL" in out
    assert "censored : 0 of 3" in out


def test_protocol_command_with_workers_and_precision(capsys):
    code, out, err = run_cli(
        capsys,
        "protocol",
        "--system",
        "s1",
        "--scheme",
        "so",
        "--alpha",
        "0.2",
        "--entropy-bits",
        "6",
        "--max-steps",
        "60",
        "--workers",
        "2",
        "--precision",
        "0.3",
    )
    assert code == 0
    assert "95% CI" in out
    assert "KM mean" in out


def test_protocol_sweep_command(capsys):
    code, out, err = run_cli(
        capsys,
        "protocol-sweep",
        "--systems",
        "s1",
        "s2",
        "--schemes",
        "so",
        "--alphas",
        "0.2",
        "--kappas",
        "0.5",
        "--entropy-bits",
        "6",
        "--trials",
        "3",
        "--max-steps",
        "40",
    )
    assert code == 0
    assert "Protocol campaign" in out
    assert "S1SO" in out and "S2SO" in out
    assert "censored" in out


def test_protocol_sweep_worker_invariant_output(capsys):
    argv = [
        "protocol-sweep",
        "--systems",
        "s1",
        "--schemes",
        "so",
        "--alphas",
        "0.2",
        "--entropy-bits",
        "6",
        "--trials",
        "4",
        "--max-steps",
        "40",
        "--seed",
        "5",
    ]
    code_a, out_a, _ = run_cli(capsys, *argv)
    code_b, out_b, _ = run_cli(capsys, *argv, "--workers", "2")
    assert code_a == code_b == 0

    def sans_cache_line(text):
        return [
            line
            for line in text.splitlines()
            if not line.startswith("result cache:")
        ]

    assert sans_cache_line(out_a) == sans_cache_line(out_b)
    # Cache keys never see the fan-out: the serial run's entry satisfies
    # the workers=2 rerun wholesale.
    assert "result cache: 0 hits, 1 misses" in out_a
    assert "result cache: 1 hits, 0 misses" in out_b


def test_advise_fortress_vs_smr(capsys):
    code, out, err = run_cli(capsys, "advise", "--kappa", "0.5")
    assert code == 0
    assert "FORTRESS" in out
    code, out, err = run_cli(capsys, "advise", "--dsm-ready")
    assert "S0 + proactive obfuscation" in out


def test_advise_high_kappa_prefers_plain_pb(capsys):
    code, out, err = run_cli(capsys, "advise", "--alpha", "0.01", "--kappa", "0.99")
    assert code == 0
    assert "plain PB" in out


def test_protocol_sweep_timing_and_output(capsys, tmp_path):
    import json

    out_path = tmp_path / "sweep.json"
    code, out, err = run_cli(
        capsys,
        "protocol-sweep",
        "--systems",
        "s1",
        "--schemes",
        "so",
        "--alphas",
        "0.2",
        "--entropy-bits",
        "6",
        "--trials",
        "4",
        "--max-steps",
        "80",
        "--timing",
        "ideal",
        "--output",
        str(out_path),
    )
    assert code == 0
    assert "timing=ideal" in out
    assert str(out_path) in out
    record = json.loads(out_path.read_text())
    assert record["timing_preset"] == "ideal"
    assert record["timing"]["respawn_delay"] == 0.0
    assert record["rows"][0]["label"] == "S1SO"


def test_protocol_sweep_rejects_unknown_timing(capsys):
    import pytest as _pytest

    with _pytest.raises(SystemExit):
        build_parser().parse_args(["protocol-sweep", "--timing", "warp-speed"])


def test_scenario_list_shows_builtin_library(capsys):
    code, out, err = run_cli(capsys, "scenario", "list")
    assert code == 0
    names = [
        "paper-baseline",
        "crash-storm-under-attack",
        "rolling-outages",
        "partitioned-attacker",
        "lossy-wan",
        "degraded-timing",
        "stealth-prober",
        "coordinated-attacker",
    ]
    for name in names:
        assert name in out


def test_scenario_show_round_trips_through_json(capsys):
    import json

    from repro.scenarios import ScenarioSpec, get_scenario

    code, out, err = run_cli(capsys, "scenario", "show", "lossy-wan")
    assert code == 0
    spec = ScenarioSpec.from_dict(json.loads(out))
    assert spec == get_scenario("lossy-wan")


def test_scenario_run_command(capsys):
    code, out, err = run_cli(
        capsys,
        "scenario",
        "run",
        "crash-storm-under-attack",
        "--trials",
        "3",
        "--max-steps",
        "40",
    )
    assert code == 0
    assert "Scenario crash-storm-under-attack" in out
    assert "faults=crash_storm" in out
    assert "S1SO" in out and "S2SO" in out


def test_scenario_run_worker_invariant_output(capsys):
    """The acceptance guarantee at the user surface: a scenario run is
    bit-identical for any worker count."""
    argv = [
        "scenario",
        "run",
        "crash-storm-under-attack",
        "--trials",
        "3",
        "--max-steps",
        "40",
        "--seed",
        "5",
    ]
    code_a, out_a, _ = run_cli(capsys, *argv, "--workers", "1")
    code_b, out_b, _ = run_cli(capsys, *argv, "--workers", "2")
    assert code_a == code_b == 0

    def sans_cache_line(text):
        return [
            line
            for line in text.splitlines()
            if not line.startswith("result cache:")
        ]

    # Identical modulo the cache tally (run b replays run a's entries).
    assert sans_cache_line(out_a) == sans_cache_line(out_b)


def test_scenario_run_writes_self_describing_record(capsys, tmp_path):
    import json

    out_path = tmp_path / "scenario.json"
    code, out, err = run_cli(
        capsys,
        "scenario",
        "run",
        "rolling-outages",
        "--trials",
        "2",
        "--max-steps",
        "30",
        "--output",
        str(out_path),
    )
    assert code == 0
    record = json.loads(out_path.read_text())
    assert record["scenario"] == "rolling-outages"
    assert record["scenario_spec"]["faults"]["kind"] == "rolling_outages"
    assert record["scenario_spec"]["workload"]["kind"] == "open_loop"
    assert record["timing_preset"] == "paper"
    assert record["rows"]


def test_scenario_unknown_name_fails_cleanly(capsys):
    code, out, err = run_cli(capsys, "scenario", "show", "no-such-scenario")
    assert code == 2
    assert "unknown scenario" in err


def test_protocol_sweep_scenario_flag(capsys):
    code, out, err = run_cli(
        capsys,
        "protocol-sweep",
        "--scenario",
        "degraded-timing",
        "--trials",
        "2",
        "--max-steps",
        "30",
    )
    assert code == 0
    assert "scenario=degraded-timing" in out
    assert "timing=degraded" in out  # the scenario's preset, not paper's


def test_protocol_command_accepts_timing(capsys):
    code, out, err = run_cli(
        capsys,
        "protocol",
        "--system",
        "s1",
        "--scheme",
        "so",
        "--alpha",
        "0.2",
        "--entropy-bits",
        "6",
        "--trials",
        "4",
        "--max-steps",
        "80",
        "--timing",
        "degraded",
    )
    assert code == 0
    assert "protocol-level lifetimes" in out


def test_protocol_sweep_scenario_and_scenario_run_share_cache_entries(capsys, tmp_path):
    """Both campaign commands run a scenario through one code path: the
    second replays every grid point the first stored."""
    points = len(get_scenario("degraded-timing").grid())
    flags = ["--trials", "2", "--max-steps", "20", "--cache-dir", str(tmp_path)]
    code, out, err = run_cli(
        capsys, "protocol-sweep", "--scenario", "degraded-timing", *flags
    )
    assert code == 0
    assert f"result cache: 0 hits, {points} misses" in out
    code, out, err = run_cli(capsys, "scenario", "run", "degraded-timing", *flags)
    assert code == 0
    assert f"result cache: {points} hits, 0 misses" in out


def test_protocol_sweep_timing_override_edits_the_scenario(capsys, tmp_path):
    record_path = tmp_path / "record.json"
    code, out, err = run_cli(
        capsys,
        "protocol-sweep",
        "--scenario",
        "degraded-timing",
        "--timing",
        "ideal",
        "--trials",
        "2",
        "--max-steps",
        "20",
        "--no-cache",
        "--output",
        str(record_path),
    )
    assert code == 0
    assert "timing=ideal" in out
    record = json.loads(record_path.read_text())
    assert record["timing_preset"] == "ideal"
    assert record["scenario_spec"]["timing"] == "ideal"  # what actually ran
