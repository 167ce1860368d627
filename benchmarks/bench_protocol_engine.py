"""Protocol engine — campaign throughput + timing-model fidelity (BENCH).

Part 1 (throughput): runs the same S2 protocol campaign (an α × κ grid
of S2SO, χ = 2^8) twice through :func:`repro.core.campaign.run_campaign`
— once serially (``workers=1``) and once fanned across 4 worker
processes — and records runs/sec for both legs plus the speedup.
Because every seed is derived before dispatch, the two legs must return
bit-identical estimates; the bench asserts that, so the throughput
numbers can never come from silently divergent campaigns.

Part 2 (fidelity): runs the paper's five systems (S0PO, S2PO, S1PO,
S1SO, S0SO) at laptop scale under two
:class:`~repro.core.timing.TimingSpec` presets and compares each
protocol estimate with the timing-aware Monte-Carlo model:

* under ``TimingSpec.ideal()`` (zero-delay infrastructure) the model
  mean must fall **within the protocol 95% CI for all five systems** —
  including S2PO, which used to carry a ~1.5–1.9× fidelity gap from
  respawn/reconnect effects the models did not describe;
* under ``TimingSpec.paper()`` (the realistic delays) the bench records
  the measured gap against both the uncorrected paper model and the
  timing-corrected model, so the JSON tracks how much of the gap the
  correction explains.

Asserted content: serial/parallel bit-identity, S2SO
protocol-vs-MC-model agreement within a 5σ combined tolerance on every
throughput grid point (the campaign runs under the default paper timing,
so its model is the timing-aware one for that preset), the five-system
within-CI check under ideal timing, zero heavily-censored points, and —
on machines with ≥ 4 CPUs — a ≥ 3× parallel speedup at 4 workers.
Runners with fewer CPUs record their measured speedup without asserting
it.  The JSON record persists under
``benchmarks/results/bench_protocol_engine.json``.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core.campaign import campaign_grid, run_campaign
from repro.core.specs import SystemClass, s0, s1, s2
from repro.core.timing import DEFAULT_TIMING, TimingSpec
from repro.mc.montecarlo import mc_expected_lifetime
from repro.randomization.obfuscation import Scheme
from repro.reporting.tables import render_campaign_table, render_table

SEED = 20260727
MC_SEED = 11
ALPHAS = (0.15, 0.2)
ENTROPY = 8
KAPPAS = (0.25, 0.5)
TRIALS_PER_POINT = 100
MAX_STEPS = 400
WORKERS = 4
MIN_PARALLEL_SPEEDUP = 3.0

FIDELITY_SEED = 20260728
FIDELITY_ALPHA = 0.15
FIDELITY_KAPPA = 0.5
FIDELITY_TRIALS = 100


def _campaign_specs():
    return campaign_grid(
        systems=(SystemClass.S2,),
        schemes=(Scheme.SO,),
        alphas=ALPHAS,
        kappas=KAPPAS,
        entropy_bits=ENTROPY,
    )


def _fidelity_specs():
    """The five systems of the paper's Figure 1, at laptop scale."""
    kwargs = dict(alpha=FIDELITY_ALPHA, entropy_bits=ENTROPY)
    return [
        s0(Scheme.PO, **kwargs),
        s2(Scheme.PO, kappa=FIDELITY_KAPPA, **kwargs),
        s1(Scheme.PO, **kwargs),
        s1(Scheme.SO, **kwargs),
        s0(Scheme.SO, **kwargs),
    ]


def _timed_campaign(specs, trials, workers):
    start = time.perf_counter()
    result = run_campaign(
        specs,
        trials=trials,
        max_steps=MAX_STEPS,
        seed=SEED,
        workers=workers,
    )
    elapsed = time.perf_counter() - start
    return result, elapsed


def _fidelity_leg(specs, preset, trials, pure_means):
    """One five-system campaign under ``preset`` + model comparisons.

    ``pure_means`` carries the timing-free model means, computed once by
    the caller — they do not depend on the preset.
    """
    timing = TimingSpec.named(preset)
    campaign = run_campaign(
        specs,
        trials=trials,
        max_steps=MAX_STEPS,
        seed=FIDELITY_SEED,
        timing=timing,
    )
    rows = []
    for estimate in campaign:
        spec = estimate.spec
        model = mc_expected_lifetime(
            spec,
            seed=MC_SEED,
            precision=0.02,
            max_trials=500_000,
            timing=timing,
        )
        pure_mean = pure_means[spec.label]
        rows.append(
            {
                "label": spec.label,
                "alpha": spec.alpha,
                "kappa": spec.kappa,
                "runs": estimate.stats.n,
                "protocol_mean": estimate.mean_steps,
                "protocol_ci": [estimate.stats.ci_low, estimate.stats.ci_high],
                "censored": estimate.censored,
                "model_mean": model.mean,
                "model_within_protocol_ci": bool(
                    estimate.stats.ci_low <= model.mean <= estimate.stats.ci_high
                ),
                # The measured fidelity gap: how far the protocol stack
                # drifts from the paper's *uncorrected* model, and how
                # much of that the timing correction explains.
                "paper_model_mean": pure_mean,
                "gap_vs_paper_model": estimate.mean_steps / pure_mean,
                "gap_vs_timed_model": estimate.mean_steps / model.mean,
            }
        )
    return timing, rows


def bench_protocol_engine(save_table, save_json, scale_trials, smoke):
    """Serial-vs-parallel campaign throughput + model agreement."""
    specs = _campaign_specs()
    trials = scale_trials(TRIALS_PER_POINT, floor=10)
    serial, serial_seconds = _timed_campaign(specs, trials, workers=1)
    parallel, parallel_seconds = _timed_campaign(specs, trials, workers=WORKERS)

    # Determinism first: the throughput comparison is meaningless unless
    # both legs ran the exact same campaign.
    for a, b in zip(serial, parallel):
        assert a.stats == b.stats, f"{a.spec.label}: serial/parallel diverged"
        assert [o.steps for o in a.outcomes] == [o.steps for o in b.outcomes]

    total_runs = serial.total_runs
    serial_rps = total_runs / serial_seconds
    parallel_rps = total_runs / parallel_seconds
    speedup = parallel_rps / serial_rps
    cpu_count = os.cpu_count() or 1
    speedup_asserted = cpu_count >= WORKERS and not smoke
    if speedup_asserted:
        # Smoke runs are sub-second: pool startup and shared-runner
        # noise dominate, so only the full workload gates the 3x bar.
        assert speedup >= MIN_PARALLEL_SPEEDUP, (
            f"parallel campaign only {speedup:.2f}x over serial at "
            f"{WORKERS} workers (required {MIN_PARALLEL_SPEEDUP}x)"
        )

    rows = []
    model_means = {}
    for i, estimate in enumerate(serial):
        spec = estimate.spec
        # The campaign's runs are built under the default timing; the
        # model must describe the same timing to be a fair referee.
        model = mc_expected_lifetime(
            spec,
            seed=MC_SEED,
            precision=0.02,
            max_trials=500_000,
            timing=DEFAULT_TIMING,
        )
        model_means[i] = model.mean
        protocol_se = estimate.stats.std / np.sqrt(estimate.stats.n)
        model_se = model.stats.std / np.sqrt(model.stats.n)
        sigma = float(np.hypot(protocol_se, model_se))
        distance = abs(estimate.mean_steps - model.mean)
        within_ci = bool(estimate.stats.ci_low <= model.mean <= estimate.stats.ci_high)
        assert estimate.censored_fraction <= 0.1, (
            f"{spec.label} kappa={spec.kappa:g}: campaign point heavily "
            f"censored ({estimate.censored}/{estimate.stats.n})"
        )
        assert distance <= 5.0 * max(sigma, 1e-9), (
            f"{spec.label} kappa={spec.kappa:g}: protocol "
            f"{estimate.mean_steps:.2f} vs MC model {model.mean:.2f} "
            f"disagree beyond 5 sigma ({distance / sigma:.1f})"
        )
        rows.append(
            {
                "label": spec.label,
                "alpha": spec.alpha,
                "kappa": spec.kappa,
                "runs": estimate.stats.n,
                "protocol_mean": estimate.mean_steps,
                "protocol_ci": [estimate.stats.ci_low, estimate.stats.ci_high],
                "censored": estimate.censored,
                "km_mean": estimate.km_mean_steps,
                "mc_model_mean": model.mean,
                "mc_model_trials": model.trials,
                "model_timing": DEFAULT_TIMING.as_dict(),
                "model_within_protocol_ci": within_ci,
                "sigma_distance": distance / sigma if sigma else 0.0,
            }
        )

    # ------------------------------------------------------------------
    # Fidelity: the five paper systems, protocol vs timing-aware model.
    # Under the zero-delay preset the model must sit inside the protocol
    # 95% CI for every system (the S2PO gap is *closed*, not tolerated);
    # under the paper-realistic preset the measured gap is recorded.
    # ------------------------------------------------------------------
    fidelity_specs = _fidelity_specs()
    fidelity_trials = scale_trials(FIDELITY_TRIALS, floor=10)
    pure_means = {
        spec.label: mc_expected_lifetime(
            spec, seed=MC_SEED, precision=0.02, max_trials=500_000
        ).mean
        for spec in fidelity_specs
    }
    fidelity = {}
    for preset in ("ideal", "paper"):
        timing, fidelity_rows = _fidelity_leg(
            fidelity_specs, preset, fidelity_trials, pure_means
        )
        fidelity[preset] = {
            "timing": timing.as_dict(),
            "rows": fidelity_rows,
        }
    # NB: the fidelity gate runs *after* the record and tables persist,
    # so a failing run still uploads its own evidence as CI artifacts.

    save_json(
        "bench_protocol_engine",
        {
            "benchmark": "protocol_engine",
            "seed": SEED,
            "smoke": smoke,
            "cpu_count": cpu_count,
            "workers": WORKERS,
            "trials_per_point": trials,
            "max_steps": MAX_STEPS,
            "grid_points": len(specs),
            "total_runs": total_runs,
            "serial_seconds": serial_seconds,
            "parallel_seconds": parallel_seconds,
            "serial_runs_per_sec": serial_rps,
            "parallel_runs_per_sec": parallel_rps,
            "speedup": speedup,
            "speedup_target": MIN_PARALLEL_SPEEDUP,
            "speedup_asserted": speedup_asserted,
            "serial_parallel_bit_identical": True,
            "rows": rows,
            "fidelity": {
                "seed": FIDELITY_SEED,
                "alpha": FIDELITY_ALPHA,
                "kappa": FIDELITY_KAPPA,
                "trials_per_system": fidelity_trials,
                "max_steps": MAX_STEPS,
                "legs": fidelity,
            },
        },
    )
    table = render_campaign_table(
        serial.estimates,
        title=(
            f"Protocol engine: S2SO campaign ({trials} seeds/point, budget "
            f"{MAX_STEPS} steps, chi=2^{ENTROPY})\n"
            f"serial {serial_rps:.1f} runs/s vs {WORKERS}-worker "
            f"{parallel_rps:.1f} runs/s = {speedup:.2f}x on {cpu_count} "
            "CPU(s)"
        ),
        model_means=model_means,
    )
    save_table("protocol_engine_campaign", table)
    fidelity_table_rows = []
    for preset in ("ideal", "paper"):
        for row in fidelity[preset]["rows"]:
            fidelity_table_rows.append(
                [
                    preset,
                    row["label"],
                    f"{row['protocol_mean']:.2f}",
                    f"[{row['protocol_ci'][0]:.2f}, {row['protocol_ci'][1]:.2f}]",
                    f"{row['model_mean']:.2f}",
                    "yes" if row["model_within_protocol_ci"] else "NO",
                    f"{row['paper_model_mean']:.2f}",
                    f"{row['gap_vs_paper_model']:.2f}x",
                ]
            )
    save_table(
        "protocol_engine_fidelity",
        render_table(
            [
                "timing",
                "system",
                "protocol EL",
                "95% CI",
                "timed model",
                "in CI",
                "paper model",
                "gap",
            ],
            fidelity_table_rows,
            title=(
                "Timing-model fidelity: five systems, protocol vs "
                f"timing-aware MC (alpha={FIDELITY_ALPHA}, chi=2^{ENTROPY}, "
                f"{fidelity_trials} seeds/system; 'gap' = protocol / "
                "uncorrected paper model)"
            ),
        ),
    )
    save_table(
        "protocol_engine_throughput",
        render_table(
            [
                "leg",
                "workers",
                "runs",
                "seconds",
                "runs/sec",
            ],
            [
                [
                    "serial",
                    "1",
                    str(total_runs),
                    f"{serial_seconds:.2f}",
                    f"{serial_rps:.1f}",
                ],
                [
                    "parallel",
                    str(WORKERS),
                    str(total_runs),
                    f"{parallel_seconds:.2f}",
                    f"{parallel_rps:.1f}",
                ],
            ],
            title=(
                "Protocol engine throughput (bit-identical campaigns; "
                f"speedup {speedup:.2f}x measured)"
            ),
        ),
    )

    # The fidelity gate, last: everything above has already persisted,
    # so a failing run's own record (not a stale one) reaches the CI
    # artifacts.
    #
    # With every seed pinned this is a deterministic regression gate,
    # not a statistical test: for a *random* seed, five simultaneous
    # 95%-CI memberships would only hold ~77% of the time even with a
    # perfect model.  Anything that re-rolls the draw (FIDELITY_SEED,
    # trial counts, RNG stream consumption order, MC_SEED, the model
    # precision) therefore needs the gate re-validated, not patched
    # around.
    for row in fidelity["ideal"]["rows"]:
        assert row["censored"] == 0, (
            f"{row['label']}: censored runs in the ideal-timing campaign"
        )
        # Smoke runs draw too few seeds for the interval to mean
        # anything (n = 10 CIs under-cover badly); they record the
        # comparison and leave the gate to the full workload.
        assert smoke or row["model_within_protocol_ci"], (
            f"{row['label']}: timing-aware model {row['model_mean']:.2f} "
            f"outside the ideal-timing protocol 95% CI "
            f"[{row['protocol_ci'][0]:.2f}, {row['protocol_ci'][1]:.2f}] "
            f"(protocol mean {row['protocol_mean']:.2f})"
        )
