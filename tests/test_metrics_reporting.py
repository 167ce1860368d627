"""Unit tests for statistics helpers and table rendering."""

from __future__ import annotations

import math

import pytest

from repro.errors import AnalysisError, ConfigurationError
from repro.mc.sweeps import Series, SweepPoint
from repro.metrics.stats import (
    kaplan_meier,
    km_restricted_mean,
    summarize,
    summarize_censored,
)
from repro.reporting.tables import (
    format_quantity,
    render_series_table,
    render_table,
)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def test_summarize_basic_fields():
    stats = summarize([1.0, 2.0, 3.0, 4.0])
    assert stats.n == 4
    assert stats.mean == pytest.approx(2.5)
    assert stats.minimum == 1.0 and stats.maximum == 4.0
    assert stats.ci_low < 2.5 < stats.ci_high


def test_summarize_single_value_carries_infinite_ci():
    """One draw says nothing about spread: the interval must be
    infinite, never a zero-width band a precision target could
    mistake for convergence."""
    stats = summarize([5.0])
    assert stats.mean == 5.0
    assert stats.std == 0.0
    assert stats.ci_low == -math.inf and stats.ci_high == math.inf
    assert stats.ci_halfwidth == math.inf


def test_summarize_empty_raises():
    with pytest.raises(AnalysisError):
        summarize([])


def test_ci_narrows_with_sample_size():
    small = summarize([1.0, 2.0] * 10)
    large = summarize([1.0, 2.0] * 1000)
    assert large.ci_halfwidth < small.ci_halfwidth


def test_overlaps():
    a = summarize([1.0, 2.0, 3.0])
    b = summarize([2.0, 3.0, 4.0])
    c = summarize([100.0, 101.0])
    assert a.overlaps(b)
    assert not a.overlaps(c)


# ----------------------------------------------------------------------
# Censoring-aware statistics
# ----------------------------------------------------------------------
def test_censored_summary_uncensored_sample():
    """0% censored: the censored summary is just the plain summary."""
    values = [3.0, 5.0, 7.0, 9.0]
    summary = summarize_censored(values, [False] * 4)
    assert summary.n == 4
    assert summary.n_censored == 0
    assert summary.censored_fraction == 0.0
    assert not summary.is_lower_bound
    assert summary.stats == summarize(values)
    assert summary.km_mean == pytest.approx(6.0)


def test_censored_summary_half_censored_at_common_budget():
    """50% censored at one common budget: naive mean equals the KM
    restricted mean (every event before the budget is observed), and
    both are flagged as lower bounds."""
    times = [2.0, 4.0, 10.0, 10.0]
    censored = [False, False, True, True]
    summary = summarize_censored(times, censored)
    assert summary.n_censored == 2
    assert summary.censored_fraction == pytest.approx(0.5)
    assert summary.is_lower_bound
    assert summary.stats.mean == pytest.approx(6.5)
    assert summary.km_mean == pytest.approx(summary.stats.mean)
    assert summary.stats.ci_low < summary.stats.mean < summary.stats.ci_high


def test_censored_summary_fully_censored():
    """100% censored: all we know is every run outlived the budget."""
    summary = summarize_censored([10.0] * 5, [True] * 5)
    assert summary.censored_fraction == 1.0
    assert summary.stats.mean == 10.0
    assert summary.km_mean == 10.0
    assert summary.is_lower_bound
    # Degenerate spread: the CI collapses onto the budget, which is
    # exactly why precision-targeted runs must refuse such samples.
    assert summary.stats.ci_halfwidth == 0.0


def test_km_corrects_mixed_censoring_upward():
    """Censoring *before* the horizon carries partial information; the
    KM restricted mean sits above the naive (folded) mean."""
    times = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    censored = [False, True, False, True, False, False]
    summary = summarize_censored(times, censored)
    assert summary.km_mean > summary.stats.mean


def test_kaplan_meier_hand_computed_curve():
    """3 observations: death at 1 (S=2/3), censor at 2, death at 3
    (1 at risk, S=0)."""
    curve = kaplan_meier([1.0, 2.0, 3.0], [True, False, True])
    assert len(curve) == 2
    assert curve[0][0] == 1.0 and curve[0][1] == pytest.approx(2.0 / 3.0)
    assert curve[1][0] == 3.0 and curve[1][1] == pytest.approx(0.0)


def test_kaplan_meier_ties_deaths_before_censorings():
    """The standard tie convention: a death and a censoring at the same
    time both count the censored observation as still at risk."""
    curve = kaplan_meier([2.0, 2.0], [True, False])
    assert curve == [(2.0, pytest.approx(0.5))]


def test_km_restricted_mean_equals_mean_without_censoring():
    values = [1.0, 4.0, 7.0]
    events = [True, True, True]
    assert km_restricted_mean(values, events) == pytest.approx(4.0)


def test_km_restricted_mean_horizon_truncates():
    assert km_restricted_mean([2.0, 8.0], [True, True], horizon=4.0) == (
        pytest.approx(3.0)
    )


def test_censoring_validation():
    with pytest.raises(AnalysisError):
        summarize_censored([1.0], [True, False])
    with pytest.raises(AnalysisError):
        kaplan_meier([], [])
    with pytest.raises(AnalysisError):
        kaplan_meier([-1.0], [True])
    with pytest.raises(AnalysisError):
        km_restricted_mean([1.0], [True], horizon=-2.0)


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def test_format_quantity_ranges():
    assert format_quantity(1234567.0) == "1.235e+06"
    assert format_quantity(123.4) == "123.4"
    assert format_quantity(0.25) == "0.25"
    assert format_quantity(1e-5) == "1.000e-05"
    assert format_quantity(float("nan")) == "nan"


def test_render_table_alignment_and_rule():
    text = render_table(["name", "value"], [["a", "1"], ["bb", "22"]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "value" in lines[1]
    assert set(lines[2]) <= {"-", "+"}
    assert len(lines) == 5


def test_render_table_validates_shape():
    with pytest.raises(ConfigurationError):
        render_table([], [])
    with pytest.raises(ConfigurationError):
        render_table(["a"], [["1", "2"]])


def make_series(label, xs, means):
    return Series(
        label=label,
        x_name="alpha",
        points=[
            SweepPoint(x=x, mean=m, ci_low=m, ci_high=m) for x, m in zip(xs, means)
        ],
    )


def test_render_series_table_columns():
    a = make_series("A", [0.1, 0.2], [10.0, 20.0])
    b = make_series("B", [0.1, 0.2], [30.0, 40.0])
    text = render_series_table([a, b], title="fig")
    assert "alpha" in text and "A" in text and "B" in text
    assert "10" in text and "40" in text


def test_render_series_table_with_ci():
    series = Series(
        label="A",
        x_name="kappa",
        points=[SweepPoint(x=0.5, mean=10.0, ci_low=9.0, ci_high=11.0)],
    )
    text = render_series_table([series], with_ci=True)
    assert "[9" in text and "11]" in text


def test_render_series_table_mismatched_grids_rejected():
    a = make_series("A", [0.1], [1.0])
    b = make_series("B", [0.2], [1.0])
    with pytest.raises(ConfigurationError):
        render_series_table([a, b])
    with pytest.raises(ConfigurationError):
        render_series_table([])
