"""Tests for the vectorized + parallel Monte-Carlo engine.

Covers the three acceptance properties of the engine rebuild:

* vectorized-vs-scalar agreement per model (bit-identity where both
  paths share the draw order, mean-within-combined-CI elsewhere);
* deterministic seed derivation — sweep results do not depend on the
  worker count;
* CI-width-based early stopping converges on the known geometric case;

plus the typed small-q guard of the step-level sampler and the
streaming accumulator's algebra.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.analysis.lifetimes import el_s1_po, el_s2_po
from repro.analysis.sensitivity import (
    mc_elasticity,
    s2_so_alpha_elasticity,
    s2_so_kappa_elasticity,
)
from repro.errors import AnalysisError
from repro.core.specs import paper_systems, s1, s2
from repro.errors import ConfigurationError, UnsampleableSpecError
from repro.mc.executor import (
    StreamingMoments,
    TaskExecutor,
    derive_point_seed,
    resolve_workers,
)
from repro.mc.models import S2POStepModel, model_for
from repro.mc.montecarlo import (
    MCTask,
    estimate_to_precision,
    mc_expected_lifetime,
    run_model,
    run_task,
)
from repro.mc.sweeps import figure1_series, sweep_alpha
from repro.randomization.obfuscation import Scheme


def _all_figure_specs():
    return paper_systems(alpha=2e-3, kappa=0.5) + [s2(Scheme.SO, alpha=2e-3, kappa=0.5)]


# ----------------------------------------------------------------------
# Vectorized vs scalar agreement
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", _all_figure_specs(), ids=lambda s: s.label)
def test_sample_batch_is_bit_identical_to_reference(spec):
    """For O(1)-per-trial models the engine path reuses the reference
    kernels, so equal seeds must give equal arrays."""
    model = model_for(spec)
    reference = model.sample(20_000, np.random.default_rng(7))
    batched = model.sample_batch(20_000, np.random.default_rng(7))
    assert np.array_equal(reference, batched)


@pytest.mark.parametrize("spec", _all_figure_specs(), ids=lambda s: s.label)
def test_scalar_loop_agrees_with_vectorized(spec, scale_trials):
    """Mean-within-combined-CI agreement between the per-trial loop and
    the batch path (they need not share a draw order)."""
    model = model_for(spec)
    n_scalar = scale_trials(4_000, floor=1_000)
    n_vector = scale_trials(40_000, floor=10_000)
    scalar = model.sample_scalar(n_scalar, np.random.default_rng(11))
    vector = model.sample_batch(n_vector, np.random.default_rng(12))
    se = np.hypot(
        scalar.std(ddof=1) / np.sqrt(scalar.size),
        vector.std(ddof=1) / np.sqrt(vector.size),
    )
    assert abs(scalar.mean() - vector.mean()) <= 5.0 * se


def test_step_model_vectorized_matches_closed_form(scale_trials):
    """The block-stepper must reproduce the Definition-3 q without ever
    using the closed form."""
    spec = s2(Scheme.PO, alpha=0.05, kappa=0.4)
    model = S2POStepModel(spec)
    n = scale_trials(60_000, floor=10_000)
    values = model.sample_batch(n, np.random.default_rng(3))
    mean = values.mean()
    se = values.std(ddof=1) / np.sqrt(n)
    assert abs(mean - el_s2_po(0.05, 0.4)) <= 5.0 * se


def test_sample_batch_chunked_covers_full_count():
    model = model_for(s1(Scheme.PO, alpha=1e-2))
    values = model.sample_batch(10_000, np.random.default_rng(5), chunk_size=999)
    assert values.shape == (10_000,)
    assert abs(values.mean() - el_s1_po(1e-2)) < 10.0


def test_sample_batch_rejects_bad_chunk():
    model = model_for(s1(Scheme.PO, alpha=1e-2))
    with pytest.raises(ConfigurationError):
        model.sample_batch(10, np.random.default_rng(0), chunk_size=0)


def test_run_model_scalar_flag_replays_reference_path():
    """``run_model`` draws through ``sample_batch`` with the seeded rng."""
    spec = s2(Scheme.SO, alpha=5e-3, kappa=0.5)
    model = model_for(spec)
    batched = model.sample_batch(5_000, np.random.default_rng(21))
    estimate = run_model(model, 5_000, seed=21)
    assert estimate.mean == pytest.approx(float(batched.mean()))
    assert estimate.stats.maximum == float(batched.max())


# ----------------------------------------------------------------------
# Small-q guard (typed error with the offending spec)
# ----------------------------------------------------------------------
def test_step_model_small_q_guard_scalar_path():
    spec = s2(Scheme.PO, alpha=1e-5, kappa=0.1)
    model = S2POStepModel(spec, max_steps=50)
    with pytest.raises(UnsampleableSpecError) as excinfo:
        model.sample(50, np.random.default_rng(0))
    assert excinfo.value.spec == spec
    assert excinfo.value.max_steps == 50
    assert "S2PO" in str(excinfo.value)
    assert "geometric" in str(excinfo.value)


def test_step_model_small_q_guard_vectorized_path():
    spec = s2(Scheme.PO, alpha=1e-5, kappa=0.1)
    model = S2POStepModel(spec, max_steps=50)
    with pytest.raises(UnsampleableSpecError) as excinfo:
        model.sample_batch(50, np.random.default_rng(0))
    assert excinfo.value.spec == spec


def test_small_q_guard_type_hierarchy():
    """Typed per the new contract (ConfigurationError) while callers
    that caught the pre-engine AnalysisError keep working."""
    assert issubclass(UnsampleableSpecError, ConfigurationError)
    assert issubclass(UnsampleableSpecError, AnalysisError)


def test_step_model_guard_agrees_between_paths():
    """The block-stepper must enforce max_steps exactly like the scalar
    loop — never returning lifetimes the scalar path would refuse."""
    spec = s2(Scheme.PO, alpha=0.05, kappa=0.4)
    # ~6% of trials at this alpha outlive 100 steps, so a budget below
    # the block size (128) must trip both paths, not just the scalar
    # one; a comfortable budget must trip neither and stay under it.
    tight = S2POStepModel(spec, max_steps=100)
    with pytest.raises(UnsampleableSpecError):
        tight.sample_scalar(5_000, np.random.default_rng(19))
    with pytest.raises(UnsampleableSpecError):
        tight.sample_batch(5_000, np.random.default_rng(19))
    roomy = S2POStepModel(spec, max_steps=1_000)
    values = roomy.sample_batch(5_000, np.random.default_rng(19))
    assert values.max() < 1_000


def test_small_q_guard_survives_pickling():
    """The guard must cross process-pool boundaries intact: a worker
    raising it sends the exception back to the parent via pickle."""
    spec = s2(Scheme.PO, alpha=1e-5, kappa=0.1)
    original = UnsampleableSpecError(spec, 50)
    clone = pickle.loads(pickle.dumps(original))
    assert isinstance(clone, UnsampleableSpecError)
    assert clone.spec == spec
    assert clone.max_steps == 50
    assert str(clone) == str(original)


# ----------------------------------------------------------------------
# Deterministic seed derivation / worker invariance
# ----------------------------------------------------------------------
def test_derive_point_seed_is_stable_and_path_sensitive():
    assert derive_point_seed(0, 1, 2) == derive_point_seed(0, 1, 2)
    assert derive_point_seed(0, 1, 2) != derive_point_seed(0, 2, 1)
    assert derive_point_seed(1, 1, 2) != derive_point_seed(0, 1, 2)
    with pytest.raises(ConfigurationError):
        derive_point_seed(-1, 0)


def test_resolve_workers():
    assert resolve_workers(None) == 1
    assert resolve_workers(0) == 1
    assert resolve_workers(3) == 3
    assert resolve_workers(-1) >= 1


def test_sweep_results_independent_of_worker_count():
    base = s2(Scheme.SO, alpha=5e-3, kappa=0.5)
    serial = sweep_alpha(base, alphas=(5e-3, 1e-2), trials=2_000, seed=9)
    fanned = sweep_alpha(base, alphas=(5e-3, 1e-2), trials=2_000, seed=9, workers=2)
    assert [p.mean for p in serial.points] == [p.mean for p in fanned.points]
    assert [p.ci_low for p in serial.points] == [p.ci_low for p in fanned.points]


def test_figure1_series_worker_invariance():
    serial = figure1_series(alphas=(2e-3,), kappa=0.5, trials=1_500, seed=4)
    fanned = figure1_series(alphas=(2e-3,), kappa=0.5, trials=1_500, seed=4, workers=2)
    for a, b in zip(serial, fanned):
        assert a.label == b.label
        assert a.means == b.means


def test_executor_preserves_task_order():
    tasks = [
        MCTask(spec=s1(Scheme.PO, alpha=alpha), seed=i, trials=500)
        for i, alpha in enumerate((1e-2, 2e-2, 5e-2))
    ]
    estimates = TaskExecutor(workers=2).map(run_task, tasks)
    assert [e.spec.alpha for e in estimates] == [1e-2, 2e-2, 5e-2]
    # Coarser alpha, shorter lifetime — order must reflect inputs, not
    # completion time.
    assert estimates[0].mean > estimates[2].mean


# ----------------------------------------------------------------------
# Streaming accumulation and early stopping
# ----------------------------------------------------------------------
def test_streaming_moments_match_numpy():
    rng = np.random.default_rng(13)
    values = rng.exponential(37.0, size=10_000)
    moments = StreamingMoments()
    for chunk in np.array_split(values, 7):
        moments.update(chunk)
    assert moments.count == values.size
    assert moments.mean == pytest.approx(values.mean())
    assert moments.std == pytest.approx(values.std(ddof=1))
    assert moments.minimum == values.min()
    assert moments.maximum == values.max()
    stats = moments.to_stats()
    assert stats.ci_low < stats.mean < stats.ci_high


def test_streaming_moments_merge_is_associative_enough():
    rng = np.random.default_rng(14)
    values = rng.geometric(0.01, size=5_000).astype(float)
    left = StreamingMoments()
    left.update(values[:1_234])
    right = StreamingMoments()
    right.update(values[1_234:])
    left.merge(right)
    assert left.count == 5_000
    assert left.mean == pytest.approx(values.mean())
    assert left.std == pytest.approx(values.std(ddof=1))


def test_early_stopping_converges_on_geometric_case(scale_trials):
    alpha = 1e-2
    model = model_for(s1(Scheme.PO, alpha=alpha))
    target = 0.02
    estimate = estimate_to_precision(
        model, rel_halfwidth=target, seed=17, max_trials=2_000_000
    )
    assert estimate.converged
    assert estimate.stats.ci_halfwidth <= target * abs(estimate.mean) * 1.0001
    # EL = 99 must sit within a few standard errors of the estimate.
    se = estimate.stats.ci_halfwidth / 1.96
    assert abs(estimate.mean - el_s1_po(alpha)) <= 5.0 * se
    assert estimate.trials >= 1_000


def test_early_stopping_respects_trial_budget():
    model = model_for(s1(Scheme.PO, alpha=1e-2))
    estimate = estimate_to_precision(
        model, rel_halfwidth=1e-6, seed=3, min_trials=100, max_trials=4_000
    )
    assert not estimate.converged
    assert estimate.trials == 4_000


def test_early_stopping_validation():
    model = model_for(s1(Scheme.PO, alpha=1e-2))
    with pytest.raises(ConfigurationError):
        estimate_to_precision(model, rel_halfwidth=0.0)
    with pytest.raises(ConfigurationError):
        estimate_to_precision(model, min_trials=10, max_trials=5)
    with pytest.raises(ConfigurationError):
        estimate_to_precision(model, batch_size=0)


def test_mc_expected_lifetime_precision_mode():
    estimate = mc_expected_lifetime(
        s1(Scheme.PO, alpha=1e-2), seed=2, precision=0.05, max_trials=500_000
    )
    assert estimate.converged
    assert estimate.label == "S1PO"
    assert estimate.stats.ci_halfwidth <= 0.05 * abs(estimate.mean) * 1.0001


def test_sweep_precision_mode_has_real_cis():
    series = sweep_alpha(s1(Scheme.PO), alphas=(1e-2,), seed=6, precision=0.05)
    point = series.points[0]
    assert point.ci_low < point.mean < point.ci_high


# ----------------------------------------------------------------------
# MC elasticities (sensitivity rewired onto the engine)
# ----------------------------------------------------------------------
def test_mc_elasticity_recovers_analytic_scaling(scale_trials):
    """S1PO has EL ∝ (1 − α)/α: elasticity ≈ −1 at small α."""
    value = mc_elasticity(
        lambda a: s1(Scheme.PO, alpha=a),
        1e-2,
        precision=0.005,
        seed=8,
        max_trials=scale_trials(2_000_000, floor=200_000),
    )
    assert value == pytest.approx(-1.0, abs=0.08)


def test_s2_so_alpha_elasticity_is_negative(scale_trials):
    value = s2_so_alpha_elasticity(5e-3, 0.5, precision=0.01, seed=8)
    assert -2.0 < value < -0.5


def test_mc_elasticity_rejects_unconverged_estimates():
    """A starved trial budget must fail loudly, not return noise."""
    with pytest.raises(AnalysisError, match="did not converge"):
        mc_elasticity(
            lambda a: s1(Scheme.PO, alpha=a),
            1e-2,
            precision=1e-6,
            seed=8,
            max_trials=5_000,
        )


def test_s2_so_kappa_elasticity_domain_boundaries():
    """No silent clipping: the κ domain edges are rejected outright."""
    with pytest.raises(AnalysisError):
        s2_so_kappa_elasticity(5e-3, 0.0)
    with pytest.raises(AnalysisError):
        s2_so_kappa_elasticity(5e-3, 1.0)
    # Just inside the boundary the perturbation interval shrinks to fit
    # and the estimate stays finite and negative.
    value = s2_so_kappa_elasticity(5e-3, 0.98, precision=0.02, seed=8)
    assert value < 0.0
