"""Tests for the parallel protocol-level campaign runner.

The determinism + censoring battery locking down the generalized task
executor (:class:`repro.mc.executor.TaskExecutor`) and the campaign
layer built on it:

* worker-count and batch-size invariance — campaign results are
  bit-identical for ``workers=1``, ``workers=4`` and the serial
  fallback, mirroring the MC-executor guarantee;
* pool-breakage resilience — a poisoned task kills the pool mid-run and
  completed results must survive;
* the paper's model-vs-protocol agreement as a *test*: S0SO protocol
  lifetimes stochastically dominate shorter-entropy variants (at a
  fixed attacker probe rate ω) and match the MC model mean within 3σ.
"""

from __future__ import annotations

import os
import time
import warnings

import numpy as np
import pytest

from repro.core.campaign import CampaignResult, campaign_grid, run_campaign
from repro.core.experiment import ProtocolTask, run_protocol_task
from repro.core.specs import SystemClass, s0, s1, s2
from repro.errors import ConfigurationError
from repro.mc.executor import TaskExecutor, derive_point_seed
from repro.mc.montecarlo import mc_expected_lifetime
from repro.randomization.obfuscation import Scheme
from repro.reporting.tables import render_campaign_table


def _pools_work() -> bool:
    """Whether this platform can actually start a process pool (the
    executor's serial fallback keeps production code working without
    one, but the pool-observing tests below have nothing to observe)."""
    from concurrent.futures import ProcessPoolExecutor

    try:
        with ProcessPoolExecutor(max_workers=1) as pool:
            return pool.submit(os.getpid).result(timeout=60) > 0
    except Exception:
        return False


needs_pool = pytest.mark.skipif(
    not _pools_work(), reason="process pools unavailable on this platform"
)


def _small_grid():
    return campaign_grid(
        systems=(SystemClass.S1, SystemClass.S2),
        schemes=(Scheme.SO,),
        alphas=(0.2,),
        kappas=(0.5,),
        entropy_bits=6,
    )


# ----------------------------------------------------------------------
# Grid construction
# ----------------------------------------------------------------------
def test_campaign_grid_shape_and_kappa_collapse():
    """κ only parameterizes S2: S0/S1 points appear once per (scheme, α)
    instead of once per κ."""
    specs = campaign_grid(
        systems=(SystemClass.S0, SystemClass.S2),
        schemes=(Scheme.PO, Scheme.SO),
        alphas=(0.1, 0.2),
        kappas=(0.25, 0.5, 0.75),
        entropy_bits=8,
    )
    s0_points = [s for s in specs if s.system is SystemClass.S0]
    s2_points = [s for s in specs if s.system is SystemClass.S2]
    assert len(s0_points) == 2 * 2  # schemes x alphas
    assert len(s2_points) == 2 * 2 * 3  # schemes x alphas x kappas
    assert len(set(specs)) == len(specs)  # no duplicate grid points


def test_campaign_grid_validation():
    with pytest.raises(ConfigurationError):
        campaign_grid(systems=(), alphas=(0.1,))
    with pytest.raises(ConfigurationError):
        campaign_grid(alphas=())
    with pytest.raises(ConfigurationError):
        campaign_grid(systems=(SystemClass.S2,), kappas=())


# ----------------------------------------------------------------------
# Worker-count / batch-size invariance (the acceptance guarantee)
# ----------------------------------------------------------------------
def test_campaign_bit_identical_across_workers_and_batches():
    specs = _small_grid()
    serial = run_campaign(specs, trials=6, max_steps=40, seed=9, workers=1)
    fanned = run_campaign(specs, trials=6, max_steps=40, seed=9, workers=4)
    rebatched = run_campaign(
        specs, trials=6, max_steps=40, seed=9, workers=4, batch_size=2
    )
    for a, b, c in zip(serial, fanned, rebatched):
        assert a.spec == b.spec == c.spec
        assert a.stats == b.stats == c.stats
        assert a.censored == b.censored == c.censored
        steps = [o.steps for o in a.outcomes]
        assert steps == [o.steps for o in b.outcomes]
        assert steps == [o.steps for o in c.outcomes]
        probes = [o.metrics.probes_direct for o in a.outcomes]
        assert probes == [o.metrics.probes_direct for o in b.outcomes]
        assert probes == [o.metrics.probes_direct for o in c.outcomes]


def test_campaign_bit_identical_under_serial_fallback(monkeypatch):
    """A platform that refuses process pools must degrade to serial
    execution with a warning — and identical results."""
    specs = _small_grid()
    baseline = run_campaign(specs, trials=4, max_steps=40, seed=3, workers=1)

    def _refuse(*args, **kwargs):
        raise PermissionError("process pools forbidden")

    monkeypatch.setattr("repro.mc.executor.ProcessPoolExecutor", _refuse)
    with pytest.warns(RuntimeWarning, match="process pool unavailable"):
        fallback = run_campaign(specs, trials=4, max_steps=40, seed=3, workers=4)
    for a, b in zip(baseline, fallback):
        assert a.stats == b.stats
        assert [o.steps for o in a.outcomes] == [o.steps for o in b.outcomes]


def test_campaign_seeds_derive_from_grid_position():
    """Per-seed derivation is structural: seeds never depend on batch
    shape or worker identity, only on (root, point index, trial index)."""
    specs = _small_grid()
    result = run_campaign(specs, trials=3, max_steps=40, seed=7, workers=1)
    for i, estimate in enumerate(result):
        expected = [derive_point_seed(7, i, j) for j in range(3)]
        assert [o.seed for o in estimate.outcomes] == expected


def test_campaign_result_accessors():
    specs = _small_grid()
    result = run_campaign(specs, trials=3, max_steps=40, seed=1)
    assert isinstance(result, CampaignResult)
    assert len(result) == len(specs)
    assert result.specs == [e.spec for e in result.estimates]
    assert result.total_runs == 3 * len(specs)
    assert result.total_censored == sum(e.censored for e in result)


def test_campaign_validation():
    with pytest.raises(ConfigurationError):
        run_campaign([], trials=3)
    with pytest.raises(ConfigurationError):
        run_campaign(_small_grid(), trials=0)
    with pytest.raises(ConfigurationError):
        run_campaign(_small_grid(), trials=3, batch_size=0)


def test_precision_mode_bit_identical_across_workers():
    """The invariance contract covers precision mode too: streaming
    rounds are sized by a constant, never the worker count, so the
    sample size and estimate match for any fan-out."""
    specs = [s1(Scheme.SO, alpha=0.2, entropy_bits=6)]
    kwargs = dict(max_steps=60, seed=2, precision=0.3, min_trials=8, max_trials=96)
    serial = run_campaign(specs, workers=1, **kwargs)
    fanned = run_campaign(specs, workers=4, **kwargs)
    rebatched = run_campaign(specs, workers=4, batch_size=3, **kwargs)
    a, b, c = (r.estimates[0] for r in (serial, fanned, rebatched))
    assert a.stats == b.stats == c.stats
    assert a.stats.n == b.stats.n == c.stats.n
    assert a.converged == b.converged == c.converged
    steps = [o.steps for o in a.outcomes]
    assert steps == [o.steps for o in b.outcomes]
    assert steps == [o.steps for o in c.outcomes]


def test_campaign_precision_mode_converges_per_point():
    specs = [s1(Scheme.SO, alpha=0.2, entropy_bits=6)]
    result = run_campaign(
        specs,
        max_steps=60,
        seed=2,
        precision=0.25,
        min_trials=8,
        max_trials=120,
    )
    estimate = result.estimates[0]
    assert estimate.converged
    assert estimate.stats.n >= 8
    halfwidth = estimate.stats.ci_halfwidth
    assert halfwidth <= 0.25 * abs(estimate.mean_steps) * 1.0001


# ----------------------------------------------------------------------
# Pool breakage: completed results survive a mid-campaign crash
# ----------------------------------------------------------------------
def _poisonable_task(task: dict) -> tuple[int, int]:
    """Returns (value*2, pid); kills its host process when poisoned —
    but only inside a pool worker, never in the parent."""
    if task["poison"] and os.getpid() != task["parent"]:
        os._exit(13)
    if task["slow"]:
        time.sleep(0.6)
    return task["value"] * 2, os.getpid()


@needs_pool
def test_poisoned_task_breaks_pool_but_partial_results_survive():
    parent = os.getpid()

    def make(value, poison=False, slow=False):
        return {"value": value, "poison": poison, "parent": parent, "slow": slow}

    # Two quick tasks first so the pool completes them before the slow
    # poisoned task hard-kills its worker, then two more behind it.
    tasks = [
        make(0),
        make(1),
        make(2, poison=True, slow=True),
        make(3),
        make(4),
    ]
    with pytest.warns(RuntimeWarning, match="process pool unavailable"):
        results = TaskExecutor(workers=2).map(_poisonable_task, tasks)
    values = [value for value, _ in results]
    assert values == [0, 2, 4, 6, 8]  # order preserved, nothing lost
    # The poisoned task was re-run serially in the parent (where its
    # poison is inert) after the pool broke.
    assert results[2][1] == parent
    # At least one pre-poison result was computed by a pool worker and
    # preserved across the breakage rather than re-run.
    assert any(pid != parent for _, pid in results[:2])


def _pid_task(task: int) -> int:
    return os.getpid()


@needs_pool
def test_persistent_pool_broken_between_rounds_degrades_serially():
    """A persistent pool whose workers die while idle must not crash
    the next round: submit-time breakage degrades to serial execution."""
    import signal

    with TaskExecutor(workers=2) as executor:
        worker_pids = set(executor.map(_pid_task, list(range(4))))
        for pid in worker_pids:
            os.kill(pid, signal.SIGKILL)
        time.sleep(0.2)  # let the pool notice its workers are gone
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            results = executor.map(_pid_task, list(range(3)))
    assert results == [os.getpid()] * 3  # the serial fallback ran them


@needs_pool
def test_persistent_executor_reuses_one_pool_across_maps():
    """Inside a ``with`` block the executor keeps one pool alive, so
    streaming rounds stop paying pool startup per round."""
    with TaskExecutor(workers=2) as executor:
        first = set(executor.map(_pid_task, list(range(4))))
        pool = executor._pool
        assert pool is not None  # held open between rounds
        second = set(executor.map(_pid_task, list(range(4))))
        assert executor._pool is pool  # same pool served both rounds
        assert os.getpid() not in first | second
    assert executor._pool is None  # closed on exit
    # After close(), mapping still works (fresh ephemeral pool).
    assert len(executor.map(_pid_task, list(range(2)))) == 2


def test_campaign_precision_falls_back_on_refused_points():
    """A heavily censored grid point must not abort the campaign: it is
    reported as an unconverged fixed-count lower bound and the healthy
    points keep their precision-targeted estimates."""
    censored_spec = s1(Scheme.PO, alpha=0.0001, entropy_bits=16)
    healthy_spec = s1(Scheme.SO, alpha=0.2, entropy_bits=6)
    with pytest.warns(RuntimeWarning, match="refused its precision target"):
        result = run_campaign(
            [censored_spec, healthy_spec],
            max_steps=5,
            seed=1,
            precision=0.35,
            min_trials=4,
            max_trials=150,
        )
    refused, healthy = result.estimates
    assert not refused.converged
    # The runs simulated before the refusal are kept, not re-run.
    assert refused.stats.n >= 4
    assert refused.censored_fraction == 1.0
    assert healthy.converged


def test_sweep_executor_still_accepts_generic_map_form():
    """SweepExecutor stays substitutable as a TaskExecutor: both the
    MC shorthand map(tasks) and the generic map(fn, tasks) work."""
    from repro.mc.executor import SweepExecutor

    executor = SweepExecutor(workers=1)
    assert executor.map(_pid_task, [1, 2]) == [os.getpid()] * 2


def test_unconverged_campaign_points_flagged_in_table():
    spec = s1(Scheme.SO, alpha=0.2, entropy_bits=6)
    result = run_campaign(
        [spec], max_steps=60, seed=2, precision=0.001, min_trials=4, max_trials=12
    )
    assert not result.estimates[0].converged
    text = render_campaign_table(result.estimates)
    assert "(unconverged)" in text


def test_protocol_task_runs_batch_in_seed_order():
    spec = s1(Scheme.SO, alpha=0.2, entropy_bits=6)
    task = ProtocolTask(spec=spec, seeds=(5, 6, 7), max_steps=40)
    outcomes = run_protocol_task(task)
    assert [o.seed for o in outcomes] == [5, 6, 7]
    assert all(o.spec == spec for o in outcomes)


# ----------------------------------------------------------------------
# The paper's model-vs-protocol check as a test (not just a bench)
# ----------------------------------------------------------------------
def test_s0_so_dominates_shorter_entropy_and_matches_mc_model(scale_trials):
    """At a fixed attacker probe rate ω, S0SO with more key entropy must
    stochastically dominate the shorter-entropy variant, and the
    high-entropy protocol mean must agree with the MC model within 3σ."""
    omega = 25.6  # probes per step, shared by both variants
    high = s0(Scheme.SO, alpha=omega / 2**8, entropy_bits=8)
    low = s0(Scheme.SO, alpha=omega / 2**6, entropy_bits=6)
    trials = scale_trials(40, floor=12)
    high_run = run_campaign([high], trials=trials, max_steps=100, seed=13)
    low_run = run_campaign([low], trials=trials, max_steps=100, seed=13)
    high_steps = np.array([o.steps for o in high_run.estimates[0].outcomes])
    low_steps = np.array([o.steps for o in low_run.estimates[0].outcomes])
    assert high_run.total_censored == 0 and low_run.total_censored == 0

    # Stochastic dominance: the high-entropy empirical CDF never exceeds
    # the low-entropy one by more than small-sample slack, and strict
    # dominance shows up somewhere.
    slack = 2.0 * np.sqrt(np.log(4.0) / (2.0 * trials))  # ~2x DKW bound
    grid = np.arange(0, 101)
    high_cdf = (high_steps[None, :] <= grid[:, None]).mean(axis=1)
    low_cdf = (low_steps[None, :] <= grid[:, None]).mean(axis=1)
    assert (high_cdf <= low_cdf + slack).all()
    assert (low_cdf - high_cdf).max() > slack

    # Agreement with the MC model within 3σ (combined standard error).
    model = mc_expected_lifetime(high, seed=11, precision=0.02, max_trials=500_000)
    protocol_se = high_steps.std(ddof=1) / np.sqrt(high_steps.size)
    model_se = model.stats.std / np.sqrt(model.stats.n)
    sigma = float(np.hypot(protocol_se, model_se))
    assert abs(high_steps.mean() - model.mean) <= 3.0 * sigma


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def test_render_campaign_table_marks_censored_lower_bounds():
    spec = s1(Scheme.PO, alpha=0.001, entropy_bits=16)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = run_campaign([spec], trials=3, max_steps=5, seed=0)
    estimate = result.estimates[0]
    assert estimate.censored == 3
    text = render_campaign_table(result.estimates, title="campaign")
    assert "campaign" in text
    assert ">=5" in text  # censored means render as lower bounds
    assert "S1PO" in text


def test_render_campaign_table_with_model_column():
    spec = s2(Scheme.SO, alpha=0.2, kappa=0.5, entropy_bits=6)
    result = run_campaign([spec], trials=3, max_steps=40, seed=0)
    text = render_campaign_table(result.estimates, model_means={0: 2.5})
    assert "model EL" in text and "2.5" in text
    with pytest.raises(ConfigurationError):
        render_campaign_table([])


# ----------------------------------------------------------------------
# Diffable campaign records
# ----------------------------------------------------------------------
def test_campaign_record_schema_and_json_round_trip():
    import json

    from repro.core.campaign import campaign_record
    from repro.core.timing import TimingSpec

    specs = campaign_grid(
        systems=(SystemClass.S1,),
        schemes=(Scheme.SO,),
        alphas=(0.2,),
        entropy_bits=6,
    )
    timing = TimingSpec.ideal()
    result = run_campaign(specs, trials=4, max_steps=100, seed=3, timing=timing)
    record = campaign_record(result, timing=timing, timing_preset="ideal")
    assert record["benchmark"] == "protocol_campaign"
    assert record["timing_preset"] == "ideal"
    assert record["timing"]["respawn_delay"] == 0.0
    assert record["grid_points"] == 1 and record["total_runs"] == 4
    (row,) = record["rows"]
    assert row["label"] == "S1SO" and row["scheme"] == "SO"
    assert row["runs"] == 4 and row["converged"] is True
    assert row["protocol_ci"][0] <= row["protocol_mean"] <= row["protocol_ci"][1]
    # must survive a JSON round trip unchanged
    assert json.loads(json.dumps(record)) == record


def test_campaign_record_mirrors_estimates():
    from repro.core.campaign import campaign_record

    specs = campaign_grid(
        systems=(SystemClass.S0,),
        schemes=(Scheme.SO,),
        alphas=(0.25,),
        entropy_bits=6,
    )
    result = run_campaign(specs, trials=3, max_steps=80, seed=1)
    record = campaign_record(result)
    assert "timing" not in record and "timing_preset" not in record
    for row, estimate in zip(record["rows"], result.estimates):
        assert row["protocol_mean"] == estimate.mean_steps
        assert row["censored"] == estimate.censored
        assert row["km_mean"] == estimate.km_mean_steps
