"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``figure1``         regenerate Figure 1 (EL vs α, five systems)
``figure2``         regenerate Figure 2 (EL of S2PO as κ varies)
``trends``          verify the §6 trends and print the κ crossovers
``lifetime``        EL of one system spec (analytic + Monte-Carlo)
``protocol``        run protocol-level lifetime experiments
``protocol-sweep``  (system × scheme × α × κ) protocol campaigns
``scenario``        list / show / run named scenario compositions
``advise``          the paper's §7 design recommendation
``info``            engine/version/cache/scenario/CPU one-liner

Campaign commands (``protocol-sweep``, ``scenario run``) keep a
content-addressed result cache (default ``~/.cache/repro/campaigns``,
overridable with ``--cache-dir`` or ``REPRO_CACHE_DIR``): re-running a
campaign replays finished grid points from disk, bit-identically, and
``--no-cache`` turns the whole mechanism off.

Observability: ``--progress`` streams live campaign status lines to
stderr, ``--metrics-out`` writes the campaign's telemetry snapshot as
JSON, ``--trace-out`` records phase spans as JSONL, and the global
``-v``/``-q`` flags control the shared ``repro`` logger.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from .cache import ResultCache, atomic_write_text
from .cache.keys import ENGINE_VERSION
from .core.campaign import (
    CampaignInterrupted,
    CampaignResult,
    campaign_grid,
    campaign_record,
    run_campaign,
)
from .core.experiment import estimate_protocol_lifetime
from .core.specs import SystemClass, SystemSpec
from .core.timing import TimingSpec
from .errors import ReproError
from .log import configure_logging
from .randomization.obfuscation import Scheme
from .reporting.tables import (
    format_quantity,
    render_campaign_table,
    render_failure_manifest,
    render_series_table,
    render_table,
)
from .scenarios import all_scenarios, get_scenario
from .supervision.policy import SupervisionPolicy
from .telemetry.spans import disable_tracing, enable_tracing

if TYPE_CHECKING:  # pragma: no cover
    from .supervision.chaos import ChaosSpec
    from .telemetry.progress import ProgressReporter

#: Default result-cache root for campaign commands (under ``$HOME``).
DEFAULT_CACHE_DIR = pathlib.Path("~/.cache/repro/campaigns")


def _spec_from_args(args: argparse.Namespace) -> SystemSpec:
    return SystemSpec(
        system=SystemClass[args.system.upper()],
        scheme=Scheme[args.scheme.upper()],
        alpha=args.alpha,
        kappa=args.kappa,
        entropy_bits=args.entropy_bits,
    )


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--system", choices=["s0", "s1", "s2"], default="s2")
    parser.add_argument("--scheme", choices=["po", "so"], default="po")
    parser.add_argument("--alpha", type=float, default=1e-3)
    parser.add_argument("--kappa", type=float, default=0.5)
    parser.add_argument("--entropy-bits", type=int, default=16)


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fan Monte-Carlo grid points across N processes "
        "(-1 = all cores; default serial)",
    )
    parser.add_argument(
        "--precision",
        type=float,
        default=None,
        help="target relative 95%% CI half-width per Monte-Carlo point "
        "(early stopping instead of a fixed trial count)",
    )


def _add_cache_dir_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result-cache root (default: $REPRO_CACHE_DIR, falling back "
        f"to {DEFAULT_CACHE_DIR})",
    )


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    _add_cache_dir_argument(parser)
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the campaign result cache",
    )


def _resolve_cache(args: argparse.Namespace) -> Optional[ResultCache]:
    """The result cache a command should run with (or inspect).

    Resolution order: ``--no-cache`` (campaign commands only) disables
    caching outright; then ``--cache-dir``; then ``REPRO_CACHE_DIR``;
    then the default under ``~/.cache``.
    """
    if getattr(args, "no_cache", False):
        return None
    root = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
    if root is None:
        root = DEFAULT_CACHE_DIR.expanduser()
    return ResultCache(root)


def _print_cache_summary(cache: Optional[ResultCache]) -> None:
    if cache is None:
        return
    print(f"result cache: {cache.hits} hits, {cache.misses} misses " f"({cache.root})")


def _add_supervision_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("fault tolerance")
    group.add_argument(
        "--supervise",
        action="store_true",
        help="wrap the executor in the supervision layer (retries with "
        "seed-derived backoff, poison-task quarantine); implied by the "
        "other fault-tolerance flags",
    )
    group.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="total attempts per task before quarantine (default 3)",
    )
    group.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task wall-clock budget; hung tasks are abandoned and "
        "retried (needs --workers >= 2: in-process tasks cannot be "
        "interrupted)",
    )
    group.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="inject seeded faults, e.g. 'seed=7,crash=0.2,hang=0.1,"
        "transient=0.3,poison=0.05,transient_attempts=2' — a "
        "deterministic harness for exercising the supervision paths",
    )
    group.add_argument(
        "--failure-manifest",
        default=None,
        metavar="PATH",
        help="write quarantined tasks and retry/timeout tallies as JSON",
    )


def _resolve_supervision(
    args: argparse.Namespace,
) -> tuple[Optional[SupervisionPolicy], Optional[ChaosSpec]]:
    """Build the supervision policy + chaos spec the flags imply.

    Any fault-tolerance flag turns supervision on.
    """
    chaos = None
    if args.chaos is not None:
        from .supervision.chaos import ChaosSpec

        chaos = ChaosSpec.parse(args.chaos)
    wants = (
        args.supervise
        or args.retries is not None
        or args.task_timeout is not None
        or args.failure_manifest is not None
        or chaos is not None
    )
    if not wants:
        return None, None
    policy_kwargs = {}
    if args.retries is not None:
        policy_kwargs["max_attempts"] = args.retries
    if args.task_timeout is not None:
        policy_kwargs["task_timeout"] = args.task_timeout
    return SupervisionPolicy(**policy_kwargs), chaos


def _print_supervision_summary(
    result: CampaignResult, manifest_path: Optional[str]
) -> None:
    if not result.supervised:
        return
    print(
        f"supervision: {result.retries} retries, {result.timeouts} "
        f"timeouts, {result.quarantined} quarantined"
    )
    if result.failures:
        print(render_failure_manifest(result.failures))
    if manifest_path is not None:
        print(f"failure manifest written to {manifest_path}")


def _add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("telemetry")
    group.add_argument(
        "--progress",
        action="store_true",
        help="stream live progress lines (runs, censoring, CI width, "
        "events/sec) to stderr while the campaign runs",
    )
    group.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the campaign's telemetry snapshot (counters, gauges, "
        "histograms) as JSON after the run",
    )
    group.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="append orchestration phase spans as JSONL to PATH: one "
        "prepare/dispatch/fold triple per campaign round",
    )


def _telemetry_progress(
    args: argparse.Namespace, label: str
) -> Optional[ProgressReporter]:
    if not args.progress:
        return None
    from .telemetry.progress import ProgressReporter

    return ProgressReporter(label=label)


def _emit_metrics(result: CampaignResult, args: argparse.Namespace):
    """Handle ``--metrics-out``; returns the snapshot (for the record).

    Telemetry is a side channel: a failed snapshot write is reported but
    never sinks a finished campaign.
    """
    if args.metrics_out is None:
        return None
    snapshot = result.metrics_snapshot()
    try:
        atomic_write_text(
            pathlib.Path(args.metrics_out),
            json.dumps(snapshot.as_dict(), indent=2) + "\n",
        )
    except OSError as exc:
        print(f"error: cannot write metrics snapshot: {exc}", file=sys.stderr)
        return snapshot
    print(f"metrics snapshot written to {args.metrics_out}")
    return snapshot


def _report_interrupt(exc: CampaignInterrupted, cache: Optional[ResultCache]) -> int:
    """Standard exit path for an interrupted campaign (exit code 130)."""
    partial = exc.partial
    print(f"\ninterrupted: {exc}", file=sys.stderr)
    if len(partial):
        print(
            f"{len(partial)} grid points completed before the interrupt",
            file=sys.stderr,
        )
    if cache is not None:
        hint = "re-run the same command with the same --cache-dir to resume"
    else:
        hint = "--no-cache: nothing was kept, so a re-run starts over"
    print(hint, file=sys.stderr)
    return 130


def _add_campaign_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags shared by the campaign commands (protocol-sweep, scenario run)."""
    parser.add_argument("--trials", type=int, default=20, help="seeds per grid point")
    parser.add_argument("--max-steps", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fan the whole campaign across N processes (-1 = all cores)",
    )
    parser.add_argument(
        "--precision",
        type=float,
        default=None,
        help="per-point target relative 95%% CI half-width (early stopping "
        "instead of --trials)",
    )
    parser.add_argument(
        "--estimator",
        choices=["mc", "splitting", "auto"],
        default="mc",
        help="per-point estimator: plain Monte-Carlo, rare-event "
        "multilevel splitting, or auto (switch to splitting on "
        "censor-heavy points)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="persist the campaign as diffable JSON (schema mirrors the "
        "bench records under benchmarks/results/; scenario campaigns "
        "embed their full spec)",
    )
    _add_cache_arguments(parser)
    _add_supervision_arguments(parser)
    _add_telemetry_arguments(parser)


def cmd_figure1(args: argparse.Namespace) -> int:
    from .mc.sweeps import FIGURE1_ALPHAS, figure1_series

    series = figure1_series(
        FIGURE1_ALPHAS,
        kappa=args.kappa,
        trials=args.mc_trials,
        precision=args.precision,
        workers=args.workers,
    )
    use_mc = args.mc_trials is not None or args.precision is not None
    if args.precision is not None:
        method = f"Monte-Carlo @ {args.precision:g} rel. CI"
    elif args.mc_trials:
        method = f"Monte-Carlo x{args.mc_trials}"
    else:
        method = "analytic"
    print(
        render_series_table(
            series,
            x_header="alpha",
            title=f"Figure 1 ({method}): EL vs alpha [chi=2^16, kappa={args.kappa}]",
            with_ci=use_mc,
        )
    )
    return 0


def cmd_figure2(args: argparse.Namespace) -> int:
    from .mc.sweeps import FIGURE1_ALPHAS, FIGURE2_KAPPAS, figure2_series

    series = figure2_series(
        FIGURE1_ALPHAS,
        FIGURE2_KAPPAS,
        trials=args.mc_trials,
        precision=args.precision,
        workers=args.workers,
    )
    print(
        render_series_table(
            series,
            x_header="alpha",
            title="Figure 2: EL of S2PO vs alpha, one curve per kappa",
        )
    )
    return 0


def cmd_trends(args: argparse.Namespace) -> int:
    from .analysis.orderings import (
        kappa_crossover_s2_vs_s0,
        kappa_crossover_s2_vs_s1,
        verify_paper_trends,
    )

    reports = verify_paper_trends(kappa=args.kappa)
    print(
        render_table(
            ["trend", "statement", "verdict", "evidence"],
            [
                [r.name, r.statement, "HOLDS" if r.holds else "FAILS", r.detail]
                for r in reports
            ],
            title="Section 6 trends",
        )
    )
    print()
    rows = [
        [
            f"{alpha:g}",
            f"{kappa_crossover_s2_vs_s1(alpha):.6f}",
            f"{kappa_crossover_s2_vs_s0(alpha):.3e}",
        ]
        for alpha in (1e-4, 1e-3, 1e-2)
    ]
    print(
        render_table(
            ["alpha", "kappa* vs S1PO", "kappa* vs S0PO"],
            rows,
            title="Kappa crossovers",
        )
    )
    return 0 if all(r.holds for r in reports) else 1


def cmd_lifetime(args: argparse.Namespace) -> int:
    from .analysis.lifetimes import expected_lifetime
    from .mc.montecarlo import mc_expected_lifetime

    spec = _spec_from_args(args)
    print(
        f"{spec.label}: alpha={spec.alpha:g}, kappa={spec.kappa:g}, "
        f"chi=2^{spec.entropy_bits} (omega={spec.omega:.2f} probes/step)"
    )
    try:
        print(f"analytic EL   : {format_quantity(expected_lifetime(spec))} steps")
    except ReproError as exc:
        print(f"analytic EL   : unavailable ({exc})")
    estimate = mc_expected_lifetime(
        spec, trials=args.trials, seed=args.seed, precision=args.precision
    )
    note = "" if estimate.converged else ", NOT converged"
    print(
        f"Monte-Carlo EL: {format_quantity(estimate.mean)} steps "
        f"[95% CI {format_quantity(estimate.stats.ci_low)}, "
        f"{format_quantity(estimate.stats.ci_high)}] "
        f"({estimate.trials} trials{note})"
    )
    return 0


def cmd_protocol(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    estimate = estimate_protocol_lifetime(
        spec,
        trials=args.trials,
        max_steps=args.max_steps,
        seed0=args.seed,
        workers=args.workers,
        precision=args.precision,
        timing=TimingSpec.named(args.timing),
    )
    note = "" if estimate.converged else " (NOT converged)"
    print(
        f"{spec.label} protocol-level lifetimes over {estimate.stats.n} seeds "
        f"(chi=2^{spec.entropy_bits}, omega={spec.omega:.1f} probes/step):"
    )
    print(
        f"mean EL  : {estimate.mean_steps:.2f} whole steps "
        f"[95% CI {estimate.stats.ci_low:.2f}, {estimate.stats.ci_high:.2f}]"
        f"{note} "
        f"(min {estimate.stats.minimum:.0f}, max {estimate.stats.maximum:.0f})"
    )
    print(
        f"censored : {estimate.censored} of {estimate.stats.n} "
        f"(budget {args.max_steps} steps; KM mean "
        f"{estimate.km_mean_steps:.2f})"
    )
    if estimate.censored:
        print("note     : censored runs present — mean EL is a lower bound")
    return 0


def _profile_grid_point(
    spec, args: argparse.Namespace, timing: TimingSpec, scenario=None
) -> int:
    """cProfile one grid point serially and print a hotspot table.

    The profiled workload is exactly what one campaign worker executes
    for this point — scenario composition (fault injector, workload,
    adversary strategy) included — so a throughput regression seen in a
    sweep can be diagnosed from the CLI without writing a harness.
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    estimate = estimate_protocol_lifetime(
        spec,
        trials=args.trials,
        max_steps=args.max_steps,
        seed0=args.seed,
        workers=1,
        timing=timing,
        scenario=scenario,
    )
    profiler.disable()
    elapsed = sum(row[2] for row in pstats.Stats(profiler).stats.values())
    print(
        f"profiled {spec.label} alpha={spec.alpha:g} kappa={spec.kappa:g}: "
        f"{estimate.stats.n} runs, mean EL {estimate.mean_steps:.2f} steps"
    )
    ranked = sorted(
        pstats.Stats(profiler).stats.items(),
        key=lambda item: item[1][2],
        reverse=True,
    )
    rows = []
    for (filename, lineno, name), (_, ncalls, tottime, cumtime, _) in ranked[:15]:
        where = f"{filename.rsplit('/', 1)[-1]}:{lineno}({name})"
        rows.append([str(ncalls), f"{tottime:.4f}", f"{cumtime:.4f}", where])
    print(
        render_table(
            ["ncalls", "tottime", "cumtime", "function"],
            rows,
            title=f"cProfile top-15 by internal time ({elapsed:.3f}s profiled)",
        )
    )
    return 0


def _write_campaign_record(record: dict, output: str) -> int:
    path = pathlib.Path(output)
    try:
        # Atomic temp-file + rename (shared with the result cache): a
        # crash mid-write can truncate neither a fresh record nor the
        # previous run's file at the same path.
        atomic_write_text(path, json.dumps(record, indent=2) + "\n")
    except OSError as exc:
        # The campaign (possibly minutes of work) already ran; keep
        # the table on stdout and report the write failure cleanly.
        print(f"error: cannot write campaign record: {exc}", file=sys.stderr)
        return 2
    print(f"\ncampaign record written to {path}")
    return 0


def _campaign_method(args: argparse.Namespace) -> str:
    if args.precision is not None:
        method = f"precision {args.precision:g} rel. CI"
    else:
        method = f"{args.trials} seeds/point"
    if args.estimator != "mc":
        method += f", estimator={args.estimator}"
    return method


def _run_campaign_command(
    args: argparse.Namespace,
    specs: list[SystemSpec],
    heading: str,
    *,
    label: str,
    timing_preset: str,
    scenario=None,
    **options,
) -> int:
    """Run, report and persist one campaign (``protocol-sweep``,
    ``scenario run``); ``options`` pass through to :func:`run_campaign`."""
    cache = _resolve_cache(args)
    supervision, chaos = _resolve_supervision(args)
    if args.trace_out is not None:
        enable_tracing(args.trace_out)
    try:
        result = run_campaign(
            specs,
            trials=args.trials,
            max_steps=args.max_steps,
            seed=args.seed,
            workers=args.workers,
            precision=args.precision,
            scenario=scenario,
            cache=cache,
            estimator=args.estimator,
            supervision=supervision,
            chaos=chaos,
            manifest_path=args.failure_manifest,
            progress=_telemetry_progress(args, label),
            **options,
        )
    except CampaignInterrupted as exc:
        return _report_interrupt(exc, cache)
    finally:
        if args.trace_out is not None:
            disable_tracing()
    print(
        render_campaign_table(
            result.estimates,
            title=(
                f"{heading}: {len(result)} grid points, {result.total_runs} "
                f"runs, {result.total_censored} censored"
            ),
        )
    )
    _print_cache_summary(cache)
    _print_supervision_summary(result, args.failure_manifest)
    metrics = _emit_metrics(result, args)
    if args.trace_out is not None:
        print(f"span trace appended to {args.trace_out}")
    if args.output is not None:
        record = campaign_record(
            result,
            timing=TimingSpec.named(timing_preset),
            timing_preset=timing_preset,
            scenario=scenario,
            metrics=metrics,
        )
        return _write_campaign_record(record, args.output)
    return 0


def cmd_protocol_sweep(args: argparse.Namespace) -> int:
    options = {}
    scenario = get_scenario(args.scenario) if args.scenario else None
    if scenario is not None:
        # The scenario declares its own grid and timing; an explicit
        # --timing still overrides the preset for what-if sweeps, as a
        # scenario edit, so the record and cache key say what ran.
        if args.timing is not None:
            scenario = scenario.replace(timing=args.timing)
        specs = scenario.grid()
        timing_preset = scenario.timing
        entropy_bits = scenario.entropy_bits
    else:
        specs = campaign_grid(
            systems=[SystemClass[s.upper()] for s in args.systems],
            schemes=[Scheme[s.upper()] for s in args.schemes],
            alphas=args.alphas,
            kappas=args.kappas,
            entropy_bits=args.entropy_bits,
        )
        timing_preset = args.timing or "paper"
        entropy_bits = args.entropy_bits
        options["timing"] = TimingSpec.named(timing_preset)
    if args.profile:
        return _profile_grid_point(
            specs[0], args, TimingSpec.named(timing_preset), scenario=scenario
        )
    via = f"scenario={scenario.name}, " if scenario is not None else ""
    heading = (
        f"Protocol campaign ({via}{_campaign_method(args)}, budget "
        f"{args.max_steps} steps, chi=2^{entropy_bits}, timing={timing_preset})"
    )
    return _run_campaign_command(
        args,
        specs,
        heading,
        label="protocol-sweep",
        timing_preset=timing_preset,
        scenario=scenario,
        **options,
    )


def cmd_scenario_list(args: argparse.Namespace) -> int:
    rows = []
    for spec in all_scenarios():
        rows.append(
            [
                spec.name,
                str(len(spec.grid())),
                spec.timing,
                spec.adversary.kind,
                spec.faults.kind,
                spec.workload.kind,
            ]
        )
    print(
        render_table(
            ["scenario", "grid", "timing", "adversary", "faults", "workload"],
            rows,
            title=f"Registered scenarios ({len(rows)})",
        )
    )
    return 0


def cmd_scenario_show(args: argparse.Namespace) -> int:
    spec = get_scenario(args.name)
    print(json.dumps(spec.as_dict(), indent=2))
    return 0


def cmd_scenario_run(args: argparse.Namespace) -> int:
    scenario = get_scenario(args.name)
    heading = (
        f"Scenario {scenario.name} ({_campaign_method(args)}, budget "
        f"{args.max_steps} steps, timing={scenario.timing}, "
        f"adversary={scenario.adversary.kind}, "
        f"faults={scenario.faults.kind}, "
        f"workload={scenario.workload.kind})"
    )
    return _run_campaign_command(
        args,
        scenario.grid(),
        heading,
        label=scenario.name,
        timing_preset=scenario.timing,
        scenario=scenario,
        batch_size=args.batch_size,
    )


def cmd_cache_info(args: argparse.Namespace) -> int:
    cache = _resolve_cache(args)
    info = cache.info()
    rows = [
        ["root", info["root"]],
        ["entries", str(info["entries"])],
        ["bytes", str(info["bytes"])],
        ["current engine version", str(info["engine_version"])],
    ]
    for version, count in info["by_version"].items():
        stale = "" if version == str(info["engine_version"]) else " (stale)"
        rows.append([f"entries @ version {version}{stale}", str(count)])
    print(render_table(["field", "value"], rows, title="Result cache"))
    return 0


def cmd_cache_prune(args: argparse.Namespace) -> int:
    cache = _resolve_cache(args)
    pruned = cache.prune()
    print(
        f"pruned {pruned['removed']} stale entries "
        f"({pruned['bytes']} bytes) from {cache.root}"
    )
    return 0


def cmd_advise(args: argparse.Namespace) -> int:
    from .analysis.orderings import kappa_crossover_s2_vs_s1, lifetimes_at

    el = lifetimes_at(args.alpha, args.kappa)
    rows = [[label, format_quantity(value)] for label, value in el.items()]
    print(
        render_table(
            ["system", "EL (steps)"],
            rows,
            title=f"alpha={args.alpha:g}, kappa={args.kappa:g}",
        )
    )
    if args.dsm_ready:
        print("\nRecommendation: S0 + proactive obfuscation (SMR).")
    else:
        kappa_star = kappa_crossover_s2_vs_s1(args.alpha)
        if args.kappa <= kappa_star:
            print(
                f"\nRecommendation: FORTRESS (S2) — kappa {args.kappa:g} is "
                f"below the crossover {kappa_star:.4f}."
            )
        else:
            print(
                f"\nRecommendation: plain PB + proactive obfuscation (S1PO) — "
                f"kappa {args.kappa:g} exceeds the crossover {kappa_star:.4f}."
            )
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    from . import __version__

    cache = _resolve_cache(args)
    info = cache.info()
    scenarios = all_scenarios()
    rows = [
        ["repro version", __version__],
        ["engine version", str(ENGINE_VERSION)],
        ["python", sys.version.split()[0]],
        ["detected CPUs", str(os.cpu_count() or 1)],
        ["cache root", info["root"]],
        ["cache entries", f"{info['entries']} ({info['bytes']} bytes)"],
        ["cache session stats", json.dumps(cache.stats)],
        ["scenarios", f"{len(scenarios)} registered"],
    ]
    for spec in scenarios:
        rows.append([f"  {spec.name}", f"{len(spec.grid())}-point grid"])
    print(render_table(["field", "value"], rows, title="repro info"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "FORTRESS attack-resilience reproduction "
            "(Clarke & Ezhilchelvan, DSN 2010)"
        ),
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="raise repro logger verbosity (-v info, -vv debug)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="lower repro logger verbosity to errors only",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("figure1", help="EL vs alpha for the five systems")
    p.add_argument("--kappa", type=float, default=0.5)
    p.add_argument("--mc-trials", type=int, default=None)
    _add_engine_arguments(p)
    p.set_defaults(fn=cmd_figure1)

    p = sub.add_parser("figure2", help="EL of S2PO as kappa varies")
    p.add_argument("--mc-trials", type=int, default=None)
    _add_engine_arguments(p)
    p.set_defaults(fn=cmd_figure2)

    p = sub.add_parser("trends", help="verify the Section-6 trends")
    p.add_argument("--kappa", type=float, default=0.5)
    p.set_defaults(fn=cmd_trends)

    p = sub.add_parser("lifetime", help="EL of one system spec")
    _add_spec_arguments(p)
    p.add_argument("--trials", type=int, default=20_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--precision",
        type=float,
        default=None,
        help="target relative 95%% CI half-width (overrides --trials)",
    )
    p.set_defaults(fn=cmd_lifetime)

    p = sub.add_parser("protocol", help="protocol-level lifetime runs")
    _add_spec_arguments(p)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--max-steps", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fan protocol runs across N processes (-1 = all cores)",
    )
    p.add_argument(
        "--precision",
        type=float,
        default=None,
        help="target relative 95%% CI half-width (early stopping instead "
        "of --trials; refuses heavily censored samples)",
    )
    p.add_argument(
        "--timing",
        choices=TimingSpec.PRESETS,
        default="paper",
        help="deployment timing preset: ideal (zero delays), paper "
        "(realistic defaults) or degraded (slow daemon/WAN/stagger)",
    )
    p.set_defaults(fn=cmd_protocol)

    p = sub.add_parser(
        "protocol-sweep",
        help="(system x scheme x alpha x kappa) protocol campaigns",
    )
    p.add_argument(
        "--systems",
        nargs="+",
        choices=["s0", "s1", "s2"],
        default=["s0", "s1", "s2"],
    )
    p.add_argument(
        "--schemes",
        nargs="+",
        choices=["po", "so"],
        default=["po", "so"],
    )
    p.add_argument(
        "--alphas",
        nargs="+",
        type=float,
        default=[0.1],
        help="attacker-strength grid",
    )
    p.add_argument(
        "--kappas",
        nargs="+",
        type=float,
        default=[0.5],
        help="indirect-attack grid (S2 points only)",
    )
    p.add_argument("--entropy-bits", type=int, default=8)
    _add_campaign_arguments(p)
    p.add_argument(
        "--timing",
        choices=TimingSpec.PRESETS,
        default=None,
        help="deployment timing preset applied to every grid point "
        "(default: paper, or the scenario's own preset with "
        "--scenario)",
    )
    p.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help="run a registered scenario instead of the grid flags: its "
        "grid, timing, adversary, fault plan and workload apply "
        "(see `repro scenario list`)",
    )
    p.add_argument(
        "--profile",
        action="store_true",
        help="cProfile the first grid point serially (trials seeds) and "
        "print a hotspot table instead of running the sweep",
    )
    p.set_defaults(fn=cmd_protocol_sweep)

    p = sub.add_parser(
        "scenario",
        help="list / show / run named scenario compositions",
    )
    action = p.add_subparsers(dest="action", required=True)

    q = action.add_parser("list", help="all registered scenarios")
    q.set_defaults(fn=cmd_scenario_list)

    q = action.add_parser("show", help="one scenario's full spec as JSON")
    q.add_argument("name")
    q.set_defaults(fn=cmd_scenario_show)

    q = action.add_parser("run", help="run one scenario as a campaign")
    q.add_argument("name")
    _add_campaign_arguments(q)
    q.add_argument(
        "--batch-size",
        type=int,
        default=8,
        help="seeds per dispatched task batch (results are invariant)",
    )
    q.set_defaults(fn=cmd_scenario_run)

    p = sub.add_parser(
        "cache",
        help="inspect / prune the campaign result cache",
    )
    cache_action = p.add_subparsers(dest="action", required=True)

    q = cache_action.add_parser(
        "info", help="entry count, bytes and engine-version breakdown"
    )
    _add_cache_dir_argument(q)
    q.set_defaults(fn=cmd_cache_info)

    q = cache_action.add_parser(
        "prune", help="delete entries from stale engine versions"
    )
    _add_cache_dir_argument(q)
    q.set_defaults(fn=cmd_cache_prune)

    p = sub.add_parser("advise", help="SMR or FORTRESS? (paper §7)")
    p.add_argument("--alpha", type=float, default=1e-3)
    p.add_argument("--kappa", type=float, default=0.5)
    p.add_argument("--dsm-ready", action="store_true")
    p.set_defaults(fn=cmd_advise)

    p = sub.add_parser(
        "info",
        help="engine version, cache stats, scenarios and CPU count",
    )
    _add_cache_dir_argument(p)
    p.set_defaults(fn=cmd_info)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    configure_logging(-1 if args.quiet else args.verbose)
    try:
        return args.fn(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
