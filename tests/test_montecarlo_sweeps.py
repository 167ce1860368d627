"""Unit tests for the MC runner, survival curves and sweeps."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.lifetimes import expected_lifetime, survival_curve
from repro.core.specs import s1, s2
from repro.errors import AnalysisError, ConfigurationError
from repro.mc.montecarlo import MCTask, mc_expected_lifetime, mc_survival_curve
from repro.mc.sweeps import (
    FIGURE1_ALPHAS,
    FIGURE2_KAPPAS,
    figure1_series,
    figure2_series,
    sweep_alpha,
    sweep_kappa,
)
from repro.randomization.obfuscation import Scheme


def test_mc_estimate_fields_and_ci():
    spec = s1(Scheme.PO, alpha=1e-2)
    estimate = mc_expected_lifetime(spec, trials=20_000, seed=1)
    assert estimate.label == "S1PO"
    assert estimate.trials == 20_000
    assert estimate.stats.ci_low < estimate.mean < estimate.stats.ci_high
    assert estimate.within_ci(estimate.mean)


def test_mc_needs_at_least_two_trials():
    with pytest.raises(ConfigurationError):
        mc_expected_lifetime(s1(Scheme.PO, alpha=1e-2), trials=1)


def test_zero_precision_budget_is_rejected_not_defaulted():
    """``max_trials=0`` reaches the budget check instead of reading as
    "use the default budget" and drawing a full batch."""
    spec = s1(Scheme.PO, alpha=1e-2)
    with pytest.raises(ConfigurationError, match="max_trials"):
        mc_expected_lifetime(spec, precision=0.05, max_trials=0)
    with pytest.raises(ConfigurationError, match="max_trials"):
        MCTask(spec=spec, seed=0, precision=0.05, max_trials=0).run()


def test_zero_sweep_trials_are_rejected_not_defaulted():
    """``trials=0`` reaches the trial-count check instead of reading as
    the 10,000-trial default."""
    with pytest.raises(ConfigurationError, match="at least 2 trials"):
        sweep_alpha(s1(Scheme.PO), alphas=(1e-2,), trials=0)


def test_mc_survival_curve_matches_analytic():
    spec = s1(Scheme.PO, alpha=0.05)
    empirical = mc_survival_curve(spec, steps=10, trials=40_000, seed=2)
    analytic = survival_curve(spec, 10)
    assert np.abs(empirical - analytic).max() < 0.02


def test_mc_survival_curve_validation():
    with pytest.raises(ConfigurationError):
        mc_survival_curve(s1(Scheme.PO, alpha=0.05), steps=0)


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
def test_sweep_alpha_analytic_path():
    series = sweep_alpha(s1(Scheme.PO), alphas=(1e-3, 1e-2))
    assert series.label == "S1PO"
    assert series.xs == [1e-3, 1e-2]
    assert series.means == pytest.approx([999.0, 99.0])
    # Analytic points carry degenerate CIs.
    assert series.points[0].ci_low == series.points[0].ci_high


def test_sweep_alpha_mc_path_has_real_cis():
    series = sweep_alpha(s1(Scheme.PO), alphas=(1e-2,), trials=5000)
    point = series.points[0]
    assert point.ci_low < point.mean < point.ci_high


def test_sweep_alpha_s2_so_falls_back_to_mc():
    series = sweep_alpha(s2(Scheme.SO, kappa=0.5), alphas=(1e-2,))
    point = series.points[0]
    assert point.ci_low < point.ci_high  # MC was used despite trials=None


def test_sweep_alpha_empty_grid_rejected():
    with pytest.raises(AnalysisError):
        sweep_alpha(s1(Scheme.PO), alphas=())


def test_sweep_kappa_only_for_s2():
    with pytest.raises(AnalysisError):
        sweep_kappa(s1(Scheme.PO))
    series = sweep_kappa(s2(Scheme.PO, alpha=1e-3), kappas=(0.0, 0.5, 1.0))
    assert series.x_name == "kappa"
    assert series.means[0] > series.means[1] > series.means[2]


def test_figure1_series_shape_and_order():
    series_list = figure1_series(alphas=(1e-4, 1e-3), kappa=0.5)
    assert [s.label for s in series_list] == ["S0PO", "S2PO", "S1PO", "S1SO", "S0SO"]
    for series in series_list:
        assert len(series.points) == 2
        assert all(p.mean > 0 for p in series.points)


def test_figure1_matches_expected_lifetime_pointwise():
    series_list = figure1_series(alphas=(1e-3,), kappa=0.5)
    by_label = {s.label: s.points[0].mean for s in series_list}
    from repro.core.specs import paper_systems

    for spec in paper_systems(alpha=1e-3, kappa=0.5):
        assert by_label[spec.label] == pytest.approx(expected_lifetime(spec))


def test_figure2_series_one_curve_per_kappa():
    series_list = figure2_series(alphas=(1e-3,), kappas=(0.0, 0.5))
    assert len(series_list) == 2
    assert series_list[0].label == "S2PO kappa=0"
    assert series_list[0].points[0].mean > series_list[1].points[0].mean


def test_default_grids_sensible():
    assert FIGURE1_ALPHAS[0] == 1e-5 and FIGURE1_ALPHAS[-1] == 1e-2
    assert 0.0 in FIGURE2_KAPPAS and 0.9 in FIGURE2_KAPPAS and 1.0 in FIGURE2_KAPPAS
