"""Tests for the protocol-level lifetime experiment runner."""

from __future__ import annotations

import pytest

from repro.core.experiment import (
    LifetimeOutcome,
    estimate_protocol_lifetime,
    run_protocol_lifetime,
)
from repro.core.specs import s1, s2
from repro.errors import AnalysisError, ConfigurationError
from repro.randomization.obfuscation import Scheme


def test_s1_so_guaranteed_compromise_within_exhaustion():
    """SO + small key space: the attack must succeed within χ/ω steps."""
    spec = s1(Scheme.SO, alpha=0.1, entropy_bits=6)  # 64 keys, 6.4 probes/step
    outcome = run_protocol_lifetime(spec, seed=1, max_steps=60)
    assert outcome.compromised
    assert outcome.steps <= 15  # exhaustion bound 1/alpha = 10, plus slack
    assert outcome.cause is not None


def test_censoring_when_attack_too_weak():
    spec = s1(Scheme.PO, alpha=0.0001, entropy_bits=16)
    outcome = run_protocol_lifetime(spec, seed=2, max_steps=5)
    assert not outcome.compromised
    assert outcome.steps == 5
    assert outcome.cause is None


def test_outcome_records_attacker_effort():
    spec = s1(Scheme.SO, alpha=0.1, entropy_bits=6)
    outcome = run_protocol_lifetime(spec, seed=3, max_steps=60)
    assert outcome.metrics.probes_direct > 0
    assert outcome.metrics.probes_indirect == 0  # no proxies in S1


def test_s2_uses_indirect_probes():
    spec = s2(Scheme.SO, alpha=0.2, kappa=0.5, entropy_bits=6)
    outcome = run_protocol_lifetime(spec, seed=4, max_steps=80)
    assert outcome.metrics.probes_indirect > 0


def test_reproducible_given_seed():
    spec = s1(Scheme.SO, alpha=0.1, entropy_bits=6)
    a = run_protocol_lifetime(spec, seed=7, max_steps=60)
    b = run_protocol_lifetime(spec, seed=7, max_steps=60)
    assert a.steps == b.steps
    assert a.metrics.probes_direct == b.metrics.probes_direct


def test_estimate_aggregates_and_counts_censoring():
    spec = s1(Scheme.SO, alpha=0.2, entropy_bits=6)
    estimate = estimate_protocol_lifetime(spec, trials=5, max_steps=40, seed0=10)
    assert estimate.stats.n == 5
    assert len(estimate.outcomes) == 5
    assert estimate.censored == sum(1 for o in estimate.outcomes if not o.compromised)
    assert 0 <= estimate.mean_steps <= 40


def test_workload_coexists_with_attack():
    spec = s1(Scheme.SO, alpha=0.05, entropy_bits=8)
    outcome = run_protocol_lifetime(spec, seed=5, max_steps=30, with_workload=True)
    assert isinstance(outcome, LifetimeOutcome)


# ----------------------------------------------------------------------
# Parallel estimation: worker/batch invariance
# ----------------------------------------------------------------------
def test_estimate_bit_identical_across_worker_counts():
    """The acceptance guarantee: ``workers=4`` returns results
    bit-identical to ``workers=1`` for a fixed root seed."""
    spec = s1(Scheme.SO, alpha=0.2, entropy_bits=6)
    serial = estimate_protocol_lifetime(
        spec, trials=8, max_steps=40, seed0=3, workers=1
    )
    fanned = estimate_protocol_lifetime(
        spec, trials=8, max_steps=40, seed0=3, workers=4
    )
    assert serial.stats == fanned.stats
    assert serial.censored == fanned.censored
    assert [o.steps for o in serial.outcomes] == [o.steps for o in fanned.outcomes]
    assert [o.seed for o in serial.outcomes] == [o.seed for o in fanned.outcomes]
    assert [o.metrics.probes_direct for o in serial.outcomes] == [
        o.metrics.probes_direct for o in fanned.outcomes
    ]


def test_estimate_unaffected_by_batch_size():
    spec = s1(Scheme.SO, alpha=0.2, entropy_bits=6)
    default = estimate_protocol_lifetime(spec, trials=7, max_steps=40, seed0=1)
    tiny = estimate_protocol_lifetime(
        spec, trials=7, max_steps=40, seed0=1, workers=2, batch_size=1
    )
    lumpy = estimate_protocol_lifetime(
        spec, trials=7, max_steps=40, seed0=1, workers=2, batch_size=3
    )
    assert default.stats == tiny.stats == lumpy.stats
    steps = [o.steps for o in default.outcomes]
    assert steps == [o.steps for o in tiny.outcomes]
    assert steps == [o.steps for o in lumpy.outcomes]


def test_estimate_preserves_seed_layout():
    """Seeds stay ``seed0 + i`` (the pre-engine layout), so fixed-count
    estimates are regression-comparable across engine versions."""
    spec = s1(Scheme.SO, alpha=0.2, entropy_bits=6)
    estimate = estimate_protocol_lifetime(spec, trials=4, max_steps=40, seed0=10)
    assert [o.seed for o in estimate.outcomes] == [10, 11, 12, 13]


# ----------------------------------------------------------------------
# Censoring-aware aggregation and early stopping
# ----------------------------------------------------------------------
def test_estimate_exposes_censoring_summary():
    spec = s1(Scheme.PO, alpha=0.0001, entropy_bits=16)
    estimate = estimate_protocol_lifetime(spec, trials=3, max_steps=5, seed0=0)
    assert estimate.censored == 3
    assert estimate.censored_fraction == 1.0
    assert estimate.censoring.is_lower_bound
    assert estimate.km_mean_steps == 5.0
    assert estimate.mean_steps == 5.0  # the budget, i.e. a lower bound


def test_old_style_construction_derives_censoring_summary():
    """The pre-campaign 4-field constructor stays usable: the censoring
    summary is derived from the outcomes."""
    from repro.core.experiment import LifetimeEstimate
    from repro.metrics.stats import summarize

    spec = s1(Scheme.SO, alpha=0.2, entropy_bits=6)
    outcomes = tuple(run_protocol_lifetime(spec, seed=s, max_steps=40) for s in (0, 1))
    estimate = LifetimeEstimate(
        spec=spec,
        stats=summarize([float(o.steps) for o in outcomes]),
        censored=0,
        outcomes=outcomes,
    )
    assert estimate.censoring is not None
    assert estimate.km_mean_steps >= 0.0
    assert estimate.censoring.n == 2


def test_precision_mode_converges_and_reports_ci():
    spec = s1(Scheme.SO, alpha=0.2, entropy_bits=6)
    estimate = estimate_protocol_lifetime(
        spec,
        max_steps=60,
        seed0=0,
        precision=0.25,
        min_trials=8,
        max_trials=120,
    )
    assert estimate.converged
    assert 8 <= estimate.stats.n <= 120
    halfwidth = estimate.stats.ci_halfwidth
    assert halfwidth <= 0.25 * abs(estimate.mean_steps) * 1.0001


def test_precision_mode_unconverged_within_budget():
    spec = s1(Scheme.SO, alpha=0.2, entropy_bits=6)
    estimate = estimate_protocol_lifetime(
        spec,
        max_steps=60,
        seed0=0,
        precision=0.001,
        min_trials=4,
        max_trials=12,
    )
    assert not estimate.converged
    assert estimate.stats.n == 12


def test_precision_mode_refuses_heavily_censored_samples():
    """Early stopping on a mostly-censored sample would 'converge' on
    the step budget, not the lifetime — it must refuse instead."""
    spec = s1(Scheme.PO, alpha=0.0001, entropy_bits=16)
    with pytest.raises(AnalysisError, match="censored"):
        estimate_protocol_lifetime(
            spec,
            max_steps=5,
            seed0=0,
            precision=0.1,
            min_trials=4,
            max_trials=40,
        )


def test_precision_mode_warns_on_partial_censoring():
    """A lightly censored precision run keeps going but must flag the
    estimate as a lower bound."""
    # alpha=0.05 with a tight 8-step budget censors some but not most
    # runs at this entropy.
    spec = s1(Scheme.SO, alpha=0.05, entropy_bits=6)
    with pytest.warns(RuntimeWarning, match="lower bound"):
        estimate = estimate_protocol_lifetime(
            spec,
            max_steps=8,
            seed0=0,
            precision=0.3,
            min_trials=8,
            max_trials=48,
            max_censored_fraction=0.9,
        )
    assert 0 < estimate.censored < estimate.stats.n


def test_estimate_validation():
    spec = s1(Scheme.SO, alpha=0.2, entropy_bits=6)
    with pytest.raises(ConfigurationError):
        estimate_protocol_lifetime(spec, trials=0)
    with pytest.raises(ConfigurationError):
        estimate_protocol_lifetime(spec, trials=3, batch_size=0)
    with pytest.raises(ConfigurationError):
        estimate_protocol_lifetime(spec, precision=-0.1)
    with pytest.raises(ConfigurationError):
        estimate_protocol_lifetime(spec, precision=0.1, min_trials=10, max_trials=5)
    with pytest.raises(ConfigurationError):
        estimate_protocol_lifetime(spec, precision=0.1, max_censored_fraction=0.0)
