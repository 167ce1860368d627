"""Hypothesis property-based tests on core invariants."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.conversion import so_hazard, so_survival
from repro.analysis.lifetimes import (
    el_from_per_step,
    el_s0_po,
    el_s0_so,
    el_s1_po,
    el_s1_so,
    el_s2_po,
    per_step_compromise_s0_po,
    per_step_compromise_s2_po,
)
from repro.analysis.markov import AbsorbingMarkovChain, geometric_chain
from repro.analysis.period import el_s2_po_with_period
from repro.attacker.keytracker import KeyGuessTracker
from repro.crypto.signatures import SignatureAuthority, canonical_bytes
from repro.metrics.stats import (
    SplittingLevelStat,
    splitting_probability,
    summarize,
)
from repro.randomization.keyspace import KeySpace

alphas = st.floats(min_value=1e-6, max_value=0.5, allow_nan=False)
kappas = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
# q below ~1e-7 makes (I - Q) ill-conditioned in float64; the closed
# form is exact there while the linear solve carries ~1e-8 relative
# error, so the property is checked on the well-conditioned range.
probabilities = st.floats(min_value=1e-7, max_value=1.0, allow_nan=False)


# ----------------------------------------------------------------------
# Analytic model invariants
# ----------------------------------------------------------------------
@given(alpha=alphas)
def test_per_step_probabilities_are_probabilities(alpha):
    assert 0.0 <= per_step_compromise_s0_po(alpha) <= 1.0
    assert 0.0 <= per_step_compromise_s2_po(alpha, 0.5) <= 1.0


@given(alpha=alphas, kappa=kappas)
def test_s2_q_bounded_by_components(alpha, kappa):
    """q is at least the indirect hazard and at most the union bound."""
    q = per_step_compromise_s2_po(alpha, kappa)
    assert q >= kappa * alpha - 1e-12
    union = kappa * alpha + 3 * alpha + alpha  # crude union bound
    assert q <= min(1.0, union) + 1e-12


@given(alpha=alphas)
@settings(deadline=None)  # el_s0_so is O(1/alpha); loaded runners overrun 200ms
def test_el_ordering_po_vs_so_invariant(alpha):
    """Memoryless PO always beats SO for the same system (T2's core)."""
    assert el_s1_po(alpha) >= el_s1_so(alpha) - 1e-9
    assert el_s0_po(alpha) >= el_s0_so(alpha) - 1e-9


@given(alpha=alphas, k1=kappas, k2=kappas)
def test_el_s2_po_monotone_in_kappa(alpha, k1, k2):
    lo, hi = sorted((k1, k2))
    assert el_s2_po(alpha, lo) >= el_s2_po(alpha, hi) - 1e-9


@given(q=probabilities)
def test_el_matches_geometric_chain(q):
    assert el_from_per_step(q) == pytest.approx(
        geometric_chain(q).expected_lifetime_from(0), rel=1e-6, abs=1e-9
    )


@given(alpha=st.floats(min_value=1e-4, max_value=0.3), t=st.integers(1, 50))
def test_so_survival_equals_hazard_product(alpha, t):
    product = 1.0
    for i in range(1, t + 1):
        product *= 1.0 - so_hazard(alpha, i)
    assert product == pytest.approx(so_survival(alpha, t), abs=1e-9)


@given(
    alpha=st.floats(min_value=1e-4, max_value=0.05),
    kappa=kappas,
    period=st.integers(1, 6),
)
@settings(max_examples=30, deadline=None)
def test_period_chain_el_positive_and_bounded_by_p1(alpha, kappa, period):
    el_p = el_s2_po_with_period(alpha, kappa, period_steps=period)
    el_1 = el_s2_po_with_period(alpha, kappa, period_steps=1)
    assert el_p >= -1e-9
    assert el_p <= el_1 + 1e-6  # longer periods can only hurt


# ----------------------------------------------------------------------
# Markov solver invariants
# ----------------------------------------------------------------------
@st.composite
def random_amc(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 2))
    rows = []
    for _ in range(n):
        raw = draw(
            st.lists(
                st.floats(min_value=0.01, max_value=1.0),
                min_size=n + m,
                max_size=n + m,
            )
        )
        total = sum(raw)
        rows.append([x / total for x in raw])
    Q = np.array([[rows[i][j] for j in range(n)] for i in range(n)])
    R = np.array([[rows[i][n + j] for j in range(m)] for i in range(n)])
    return AbsorbingMarkovChain(Q, R)


@given(chain=random_amc())
@settings(max_examples=50, deadline=None)
def test_amc_invariants(chain):
    result = chain.solve()
    # Expected steps are at least 1 (you always take the absorbing step).
    assert (result.expected_steps >= 1.0 - 1e-9).all()
    # Absorption probabilities form a distribution per start state.
    assert result.absorption_probabilities.min() >= -1e-9
    assert result.absorption_probabilities.sum(axis=1) == pytest.approx(
        [1.0] * chain.n_transient
    )
    # Variances are non-negative.
    assert (result.variance_steps >= -1e-9).all()


@given(chain=random_amc(), steps=st.integers(1, 30))
@settings(max_examples=30, deadline=None)
def test_amc_survival_monotone_and_sums_to_el(chain, steps):
    curve = chain.survival_curve(steps, 0)
    assert (np.diff(curve) <= 1e-12).all()  # non-increasing
    # Σ_t S(t) converges to EL from below.
    assert curve.sum() <= chain.expected_lifetime_from(0) + 1e-6


# ----------------------------------------------------------------------
# Attacker bookkeeping invariants
# ----------------------------------------------------------------------
@given(entropy=st.integers(2, 9), seed=st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_tracker_enumerates_whole_space_without_repeats(entropy, seed):
    tracker = KeyGuessTracker(KeySpace(entropy), random.Random(seed))
    size = 1 << entropy
    guesses = [tracker.next_guess() for _ in range(size)]
    assert sorted(guesses) == list(range(size))


# ----------------------------------------------------------------------
# Crypto invariants
# ----------------------------------------------------------------------
json_like = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**9), 10**9)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@given(payload=json_like)
@settings(max_examples=50, deadline=None)
def test_sign_verify_roundtrip_any_payload(payload):
    authority = SignatureAuthority(random.Random(1))
    authority.issue_keypair("n")
    assert authority.verify(authority.sign("n", payload))


@given(payload=json_like)
@settings(max_examples=50, deadline=None)
def test_canonical_bytes_deterministic(payload):
    assert canonical_bytes(payload) == canonical_bytes(payload)


# ----------------------------------------------------------------------
# Statistics invariants
# ----------------------------------------------------------------------
@given(
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=200,
    )
)
def test_summarize_bounds(values):
    stats = summarize(values)
    slack = 1e-9 * (1.0 + abs(stats.mean))  # float summation error
    assert stats.minimum - slack <= stats.mean <= stats.maximum + slack
    assert stats.ci_low - slack <= stats.mean <= stats.ci_high + slack
    assert stats.std >= 0.0


@st.composite
def stage_counts(draw):
    """Pooled per-stage (launched, crossed) counts of one splitting fold."""
    stages = draw(st.integers(1, 6))
    counts = []
    for _ in range(stages):
        n = draw(st.integers(1, 500))
        counts.append((n, draw(st.integers(0, n))))
    return [
        SplittingLevelStat(
            level=None if k == stages - 1 else (k + 1) / stages, n=n, crossed=crossed
        )
        for k, (n, crossed) in enumerate(counts)
    ]


@given(
    level_stats=stage_counts(),
    products=st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=1,
        max_size=12,
    ),
)
@settings(max_examples=200, deadline=None)
def test_splitting_probability_is_a_bracketed_probability(level_stats, products):
    estimate = splitting_probability(level_stats, products)
    assert 0.0 <= estimate.ci_low <= estimate.probability
    assert estimate.probability <= estimate.ci_high <= 1.0
