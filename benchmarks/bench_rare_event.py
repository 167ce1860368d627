"""Rare-event splitting vs plain Monte-Carlo on a censor-heavy point (BENCH).

The paper's far tail is exactly where plain Monte-Carlo stops working:
nearly every protocol run censors at the step budget, and resolving
P(compromise) to a usable CI costs millions of runs.  This bench prices
both estimators on one such grid point in *simulated events* (the
bit-reproducible cost unit; wall time is hardware-dependent):

* **splitting** — one ``estimator="splitting"`` estimate from
  :func:`repro.core.experiment.estimate_protocol_lifetime`; its
  ``rare.events`` field already charges the pilot wave.
* **Monte-Carlo at matched precision** — extrapolated, not run (that is
  the point): a binomial estimate of ``p`` with the splitting CI's
  half-width ``h`` needs ``n ≈ p(1-p)(1.96/h)²`` runs, and the per-run
  event cost is measured from a small real MC sample on the same point.

The full-scale point is an S0 SMR tier under proactive obfuscation with
a deep fault-tolerance margin: f = 3 over ten diversely randomized
replicas, so the monitor only fires when *four* replicas are down at
once.  Each replica falls within an epoch with probability ≈ α (the
attacker covers an α-fraction of its key space before the refresh wipes
the eliminations), and overlap windows nest, so P(compromise within the
budget) sits around 2e-5 — far past plain MC at any sane budget.  It is
also the geometry splitting is built for: attacker progress climbs the
``(down + coverage)/4`` simultaneity ladder one genuinely random leap
at a time, so the Φ level set splits the path probability into a few
moderate factors instead of one unresolvable tail.

Asserted content — the acceptance contract of the rare-event engine:

* the splitting estimate is strictly positive with a finite CI
  enclosing it (plain MC at the sampled budget sees zero compromises);
* at matched CI half-width, splitting spends **≥ 10× fewer** simulated
  events than the Monte-Carlo extrapolation (full scale only; ``--smoke``
  runs a miniature non-rare point to exercise the machinery, where no
  ratio is claimed).

The JSON record persists under
``benchmarks/results/bench_rare_event.json``.
"""

from __future__ import annotations

from repro.core.experiment import estimate_protocol_lifetime
from repro.core.specs import s0, s2
from repro.metrics.stats import Z_95
from repro.randomization.obfuscation import Scheme
from repro.rare.splitting import SplittingConfig
from repro.reporting.tables import format_quantity, render_table

SEED = 20260807
MC_SAMPLE = 8  # real MC runs used to price events-per-run

# The censor-heavy point (see the module docstring): compromise needs
# four of ten diversely randomized replicas down simultaneously, each
# epoch-coincidence ~ alpha per replica.  P(compromise in 25 steps) is
# ~2e-5; the trajectory count is sized so the two deep ladder stages
# (third and fourth simultaneous fall) each see a handful of crossers
# per replication.
FULL_SPEC = s0(Scheme.PO, alpha=0.01, entropy_bits=10, f=3, n_servers=10)
FULL_MAX_STEPS = 25
FULL_CONFIG = SplittingConfig(pilot_runs=24, replications=8, trajectories=96)

# Smoke: a miniature, non-rare point — same code path, seconds not
# minutes, no event-ratio claim (the gain only materializes in the tail).
SMOKE_SPEC = s2(Scheme.PO, entropy_bits=8, alpha=0.1, kappa=0.8)
SMOKE_MAX_STEPS = 15
SMOKE_CONFIG = SplittingConfig(pilot_runs=8, replications=2, trajectories=6)

MIN_GAIN = 10.0


def bench_rare_event(save_table, save_json, smoke, bench_workers):
    spec = SMOKE_SPEC if smoke else FULL_SPEC
    max_steps = SMOKE_MAX_STEPS if smoke else FULL_MAX_STEPS
    config = SMOKE_CONFIG if smoke else FULL_CONFIG
    workers = bench_workers or 4

    # Price one plain MC run on this point (events/run is seed-stable to
    # within a few percent; the mean over a small sample suffices).
    mc = estimate_protocol_lifetime(
        spec, trials=MC_SAMPLE, max_steps=max_steps, workers=workers, seed0=SEED
    )
    events_per_run = mc.events / mc.stats.n
    mc_hits = sum(outcome.compromised for outcome in mc.outcomes)

    rare = estimate_protocol_lifetime(
        spec,
        max_steps=max_steps,
        seed0=SEED,
        workers=workers,
        estimator="splitting",
        splitting=config,
    ).rare
    assert rare.probability > 0.0, "splitting failed to resolve the rare event"
    assert rare.ci_low <= rare.probability <= rare.ci_high
    assert rare.ci_halfwidth > 0.0

    # Monte-Carlo runs needed for the same CI half-width, and their cost.
    p = rare.probability
    n_matched = p * (1.0 - p) * (Z_95 / rare.ci_halfwidth) ** 2
    mc_events_matched = n_matched * events_per_run
    gain = mc_events_matched / rare.events

    headers = ["estimator", "P(comp)", "CI95", "runs", "events", "vs MC"]
    rows = [
        [
            "mc (sampled)",
            f"{mc_hits}/{mc.stats.n}",
            "-",
            str(mc.stats.n),
            format_quantity(float(mc.events)),
            "-",
        ],
        [
            "mc (matched h)",
            format_quantity(p),
            f"±{format_quantity(rare.ci_halfwidth)}",
            format_quantity(n_matched),
            format_quantity(mc_events_matched),
            "1.0x",
        ],
        [
            "splitting",
            format_quantity(p),
            f"[{format_quantity(rare.ci_low)}, {format_quantity(rare.ci_high)}]",
            str(config.replications * config.trajectories + config.pilot_runs),
            format_quantity(float(rare.events)),
            f"{gain:.1f}x",
        ],
    ]
    title = (
        f"rare-event splitting vs MC — {spec.label} bits={spec.entropy_bits} "
        f"alpha={spec.alpha} f={spec.f} n={spec.n_servers} steps={max_steps}"
        + (" (smoke)" if smoke else "")
    )
    save_table("bench_rare_event", render_table(headers, rows, title=title))
    save_json(
        "bench_rare_event",
        {
            "bench": "rare_event",
            "smoke": smoke,
            "spec": spec.as_dict(),
            "max_steps": max_steps,
            "config": config.as_dict(),
            "splitting": {
                "probability": rare.probability,
                "ci": [rare.ci_low, rare.ci_high],
                "ci_halfwidth": rare.ci_halfwidth,
                "levels": list(rare.levels),
                "level_stats": [
                    {"level": s.level, "n": s.n, "crossed": s.crossed}
                    for s in rare.level_stats
                ],
                "products": list(rare.products),
                "events": rare.events,
            },
            "mc": {
                "sample_runs": mc.stats.n,
                "sample_compromises": mc_hits,
                "sample_events": mc.events,
                "events_per_run": events_per_run,
                "matched_halfwidth_runs": n_matched,
                "matched_halfwidth_events": mc_events_matched,
            },
            "event_gain": gain,
        },
    )

    if not smoke:
        # The sampled MC leg illustrates the censoring problem the
        # estimator exists to solve: at this budget it sees nothing.
        assert mc_hits == 0, (
            f"point is not censor-heavy: MC saw {mc_hits}/{mc.stats.n} compromises"
        )
        assert gain >= MIN_GAIN, (
            f"splitting event gain {gain:.1f}x below the {MIN_GAIN:.0f}x floor "
            f"(splitting {rare.events} events vs matched-MC {mc_events_matched:.3g})"
        )
