"""Golden Monte-Carlo outputs: every MC runner, pinned byte for byte.

``tests/data/golden_mc_outputs.json`` was captured at commit
``2ea6337``, when the runners still had a switch between two draw
paths; every runner now draws through ``sample_batch``.  It pins:

* ``figure1_series`` with a fixed trial count, fanned out on two
  workers, and with ``precision=`` early stopping;
* ``figure2_series`` with a fixed trial count;
* ``sweep_kappa`` of S2SO with no trial count (the Monte-Carlo default
  of 10,000 trials);
* a step-level S2PO estimate (the block-stepper, whose draw order
  differs from the reference ``sample`` path);
* an ``mc_survival_curve``.

The test serializes the fresh outputs exactly as the capture did and
compares the text, so a changed float, count or flag fails it.
"""

from __future__ import annotations

import json
import pathlib

from repro.core.specs import s1, s2
from repro.mc.montecarlo import mc_expected_lifetime, mc_survival_curve
from repro.mc.sweeps import figure1_series, figure2_series, sweep_kappa
from repro.randomization.obfuscation import Scheme

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_mc_outputs.json"


def series_view(series) -> dict:
    return {
        "label": series.label,
        "x_name": series.x_name,
        "points": [[p.x, p.mean, p.ci_low, p.ci_high] for p in series.points],
    }


def estimate_view(estimate) -> dict:
    stats = estimate.stats
    return {
        "label": estimate.label,
        "trials": estimate.trials,
        "converged": estimate.converged,
        "stats": [
            stats.n,
            stats.mean,
            stats.std,
            stats.ci_low,
            stats.ci_high,
            stats.minimum,
            stats.maximum,
        ],
    }


def capture() -> dict:
    """Every pinned output, JSON-ready."""
    alphas = (1e-3, 1e-2)
    return {
        "figure1_fixed": [
            series_view(s)
            for s in figure1_series(alphas=alphas, trials=2_000, seed=3, workers=2)
        ],
        "figure1_precision": [
            series_view(s)
            for s in figure1_series(alphas=(1e-2,), seed=4, precision=0.05)
        ],
        "figure2_fixed": [
            series_view(s)
            for s in figure2_series(
                alphas=alphas, kappas=(0.25, 0.75), trials=2_000, seed=5
            )
        ],
        "s2so_kappa_default_trials": series_view(
            sweep_kappa(s2(Scheme.SO, alpha=5e-3), kappas=(0.25, 0.75), seed=6)
        ),
        "step_level": estimate_view(
            mc_expected_lifetime(
                s2(Scheme.PO, alpha=0.05, kappa=0.4),
                trials=3_000,
                seed=7,
                step_level=True,
            )
        ),
        "survival_curve": [
            float(v)
            for v in mc_survival_curve(
                s1(Scheme.SO, alpha=0.05), steps=12, trials=4_000, seed=8
            )
        ],
    }


def render(payload: dict) -> str:
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def test_mc_outputs_match_parent_golden():
    assert render(capture()) == GOLDEN_PATH.read_text()
