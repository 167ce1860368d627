"""Tests for the rare-event campaign engine (``repro.rare``).

Four layers:

* state forking — a mid-flight deployment clone, with every RNG stream
  left untouched, replays bit-identically to the unforked original; the
  level probe itself is inert (instrumented runs match bare ones on
  every outcome field but the event count); resplit children diverge
  deterministically from their split seed;
* level machinery — pilot-quantile placement, the structural
  simultaneity ladder, and the delta-method fold in metrics.stats;
* the splitting estimator — agreement with plain Monte-Carlo on a
  non-rare point (3σ), worker/batch invariance, warm-cache replay,
  and the ``estimator="auto"`` switch;
* campaign integration — estimator/events/wall-time fields on campaign
  results, records and tables.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

from repro.core.campaign import campaign_record, run_campaign
from repro.core.experiment import (
    LifetimeEstimate,
    estimate_protocol_lifetime,
    run_protocol_lifetime,
)
from repro.core.specs import s0, s1, s2
from repro.errors import AnalysisError, ConfigurationError
from repro.metrics.stats import (
    SplittingLevelStat,
    splitting_probability,
)
from repro.randomization.obfuscation import Scheme
from repro.rare.fork import child_seed, fork_trajectory, reseed_for_split
from repro.rare.levels import (
    attacker_progress,
    choose_levels,
    dedupe_levels,
    structural_levels,
)
from repro.rare.splitting import (
    PilotTask,
    SplittingConfig,
    SplittingTask,
    _new_trajectory,
)
from repro.sim.rng import derive_seed

#: Outcome fields that must survive forking/instrumentation unchanged.
#: ``events_executed`` is excluded deliberately: the level probe adds
#: (read-only) heap events, so instrumented runs execute more of them.
OUTCOME_FIELDS = ("compromised", "steps", "time", "cause")
METRICS_FIELDS = ("probes_direct", "probes_indirect")


def _outcome_view(outcome):
    view = {field: getattr(outcome, field) for field in OUTCOME_FIELDS}
    view.update({field: getattr(outcome.metrics, field) for field in METRICS_FIELDS})
    return view


def _finish(trajectory, seed, max_steps):
    from repro.core.experiment import _run_until, outcome_from_deployment

    _run_until(trajectory.deployed, max_steps * trajectory.deployed.spec.period)
    return outcome_from_deployment(trajectory.deployed, seed, max_steps)


# ----------------------------------------------------------------------
# State forking
# ----------------------------------------------------------------------
class TestForking:
    SPEC = s2(Scheme.PO, entropy_bits=8, alpha=0.1, kappa=0.8)
    MAX_STEPS = 20

    def _undecided_trajectory(self, seed, until):
        trajectory = _new_trajectory(self.SPEC, seed, self.MAX_STEPS, {}, None, 0.25)
        trajectory.deployed.sim.run(until=until)
        assert not trajectory.deployed.monitor.is_compromised, (
            "test premise broken: pick a seed that is undecided at the fork point"
        )
        return trajectory

    def test_fork_replays_bit_identically(self):
        seed = 10  # compromises at t ~ 8.3, so it is undecided at the fork
        reference = run_protocol_lifetime(
            self.SPEC, seed=seed, max_steps=self.MAX_STEPS
        )
        assert reference.compromised
        trajectory = self._undecided_trajectory(seed, until=6.0)
        clone = fork_trajectory(trajectory)
        assert clone.probe.max_level == trajectory.probe.max_level
        # Both halves continue with untouched RNG streams.
        original = _finish(trajectory, seed, self.MAX_STEPS)
        forked = _finish(clone, seed, self.MAX_STEPS)
        assert _outcome_view(original) == _outcome_view(reference)
        assert _outcome_view(forked) == _outcome_view(reference)
        # The clone is a distinct object graph: its simulator and
        # attacker are not shared with the original.
        assert clone.deployed.sim is not trajectory.deployed.sim
        assert clone.deployed.attacker is not trajectory.deployed.attacker

    def test_fork_refuses_live_simulator(self):
        from repro.errors import SimulationError

        trajectory = self._undecided_trajectory(0, until=2.0)
        sim = trajectory.deployed.sim
        boom = {}

        def poke():
            try:
                fork_trajectory(trajectory)
            except SimulationError as exc:
                boom["error"] = exc
            sim.stop()

        sim.schedule_fast(0.01, poke)
        sim.run(until=3.0)
        assert "error" in boom

    def test_probe_is_inert(self):
        for seed in range(4):
            bare = run_protocol_lifetime(self.SPEC, seed=seed, max_steps=self.MAX_STEPS)
            task = PilotTask(
                spec=self.SPEC, seeds=(seed,), max_steps=self.MAX_STEPS
            )
            ((outcome, max_level),) = task.run()
            assert _outcome_view(outcome) == _outcome_view(bare)
            assert outcome.metrics.events_executed >= bare.metrics.events_executed
            assert 0.0 <= max_level <= 1.0
            if outcome.compromised:
                assert max_level == 1.0

    def test_reseed_divergence_is_deterministic(self):
        seed = 10
        parent = self._undecided_trajectory(seed, until=6.0)
        same_a = fork_trajectory(parent)
        same_b = fork_trajectory(parent)
        other = fork_trajectory(parent)
        reseed_for_split(same_a, child_seed(seed, 0, 1))
        reseed_for_split(same_b, child_seed(seed, 0, 1))
        reseed_for_split(other, child_seed(seed, 0, 2))
        out_a = _finish(same_a, seed, self.MAX_STEPS)
        out_b = _finish(same_b, seed, self.MAX_STEPS)
        _finish(other, seed, self.MAX_STEPS)
        # Same split seed: bit-identical continuation.
        assert _outcome_view(out_a) == _outcome_view(out_b)

        def tried(trajectory):
            return {
                name: frozenset(tracker._tried)
                for name, tracker in trajectory.deployed.attacker._pools.items()
            }

        assert tried(same_a) == tried(same_b)
        # Different split seed: the guess streams diverge.
        assert tried(other) != tried(same_a)


# ----------------------------------------------------------------------
# Levels
# ----------------------------------------------------------------------
class TestLevels:
    def test_progress_bounds(self):
        spec = s2(Scheme.PO, entropy_bits=8, alpha=0.1, kappa=0.8)
        trajectory = _new_trajectory(spec, 0, 10, {}, None, 0.25)
        trajectory.deployed.sim.run(until=5.0)
        assert 0.0 <= attacker_progress(trajectory.deployed) <= 1.0

    def test_choose_levels_quantiles(self):
        values = [i / 100 for i in range(1, 81)]
        levels = choose_levels(values, p0=0.25, max_levels=4, min_tail=4)
        assert levels
        assert list(levels) == sorted(set(levels))
        assert all(min(values) < level < 1.0 for level in levels)
        # Each level keeps >= min_tail pilot maxima at or above it.
        for level in levels:
            assert sum(1 for v in values if v >= level) >= 4

    def test_choose_levels_degenerate_pilot(self):
        assert choose_levels([0.25] * 32) == ()
        assert choose_levels([1.0] * 32) == ()
        assert choose_levels([]) == ()

    def test_structural_levels(self):
        assert structural_levels(s1(Scheme.PO)) == ()
        # S0 f=1 needs 2 simultaneous falls: the 1/2 rung plus quarter
        # sub-rungs toward the second.
        assert structural_levels(s0(Scheme.PO)) == (0.5, 0.625, 0.75, 0.875)
        ladder = structural_levels(s2(Scheme.PO))  # 3 proxies
        assert ladder == tuple(
            (k + q) / 3 for k in (1, 2) for q in (0, 0.25, 0.5, 0.75)
        )
        assert all(0.0 < level < 1.0 for level in ladder)

    def test_dedupe_levels(self):
        # Near-duplicates collapse to the deepest cluster member.
        assert dedupe_levels([1 / 3, 0.3381, 0.3382, 2 / 3], 0.01) == (0.3382, 2 / 3)
        # Well-separated levels pass through (sorted).
        assert dedupe_levels([0.6, 0.2, 0.4], 0.01) == (0.2, 0.4, 0.6)
        assert dedupe_levels([], 0.01) == ()
        # min_gap=0 keeps everything.
        assert dedupe_levels([0.2, 0.2001], 0.0) == (0.2, 0.2001)

    def test_splitting_probability_fold(self):
        stats = [
            SplittingLevelStat(level=0.3, n=200, crossed=50),
            SplittingLevelStat(level=None, n=200, crossed=20),
        ]
        estimate = splitting_probability(stats, [0.025, 0.025])
        assert estimate.probability == pytest.approx(0.025)
        assert 0.0 < estimate.ci_low < 0.025 < estimate.ci_high < 1.0
        pooled = (50 / 200) * (20 / 200)
        assert estimate.ci_low < pooled < estimate.ci_high

    def test_splitting_probability_rule_of_three(self):
        stats = [
            SplittingLevelStat(level=0.3, n=100, crossed=50),
            SplittingLevelStat(level=None, n=300, crossed=0),
        ]
        estimate = splitting_probability(stats, [0.0, 0.0, 0.0])
        assert estimate.probability == 0.0
        assert estimate.ci_low == 0.0
        assert estimate.ci_high == pytest.approx(0.5 * 3.0 / 300)

    def test_splitting_probability_widens_for_replication_spread(self):
        # Pooled counts say the estimate is tight, but the replication
        # products disagree wildly (offspring correlation): the CI must
        # cover the replication-level spread.
        stats = [
            SplittingLevelStat(level=0.5, n=40, crossed=20),
            SplittingLevelStat(level=None, n=40, crossed=10),
        ]
        products = [0.4, 0.0, 0.3, 0.1]
        estimate = splitting_probability(stats, products)
        assert estimate.probability == pytest.approx(0.2)
        delta_only = splitting_probability(stats, [0.125] * 4)
        assert estimate.ci_high > delta_only.ci_high
        assert estimate.ci_low <= delta_only.ci_low
        assert estimate.ci_low <= 0.2 <= estimate.ci_high

    def test_splitting_probability_rejects_empty(self):
        with pytest.raises(AnalysisError):
            splitting_probability([], [0.5])
        with pytest.raises(AnalysisError):
            splitting_probability(
                [SplittingLevelStat(level=None, n=10, crossed=1)], []
            )


# ----------------------------------------------------------------------
# The splitting estimator
# ----------------------------------------------------------------------
SMALL_CONFIG = SplittingConfig(pilot_runs=8, replications=2, trajectories=6)


def _splitting(spec, root_seed, max_steps, workers, config=SMALL_CONFIG, **kwargs):
    """One splitting estimate: the single-point face of the round loop."""
    return estimate_protocol_lifetime(
        spec,
        max_steps=max_steps,
        seed0=root_seed,
        workers=workers,
        estimator="splitting",
        splitting=config,
        **kwargs,
    ).rare


class TestSplittingEstimator:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SplittingConfig(pilot_runs=1)
        with pytest.raises(ConfigurationError):
            SplittingConfig(replications=0)
        with pytest.raises(ConfigurationError):
            SplittingConfig(trajectories=1)
        with pytest.raises(ConfigurationError):
            SplittingConfig(p0=1.0)
        with pytest.raises(ConfigurationError):
            SplittingConfig(min_gap=1.0)
        with pytest.raises(ConfigurationError):
            SplittingConfig(poll_fraction=0.0)

    def test_replication_is_self_contained(self):
        spec = s2(Scheme.PO, entropy_bits=8, alpha=0.1, kappa=0.8)
        task = SplittingTask(
            spec=spec,
            seed=derive_seed(0, "rare:rep:0"),
            levels=(1 / 3, 2 / 3),
            max_steps=15,
            trajectories=4,
        )
        first = task.run()
        second = task.run()
        assert first == second
        assert 0.0 <= first.product <= 1.0
        assert first.events > 0
        assert first.counts[0][0] == 4

    def test_worker_invariance(self):
        spec = s2(Scheme.PO, entropy_bits=8, alpha=0.1, kappa=0.8)
        serial = _splitting(spec, root_seed=7, max_steps=15, workers=1)
        parallel = _splitting(spec, root_seed=7, max_steps=15, workers=2)
        assert serial.probability == parallel.probability
        assert serial.levels == parallel.levels
        assert serial.level_stats == parallel.level_stats
        assert serial.events == parallel.events
        assert [_outcome_view(o) for o in serial.pilot_outcomes] == [
            _outcome_view(o) for o in parallel.pilot_outcomes
        ]

    def test_agrees_with_monte_carlo_on_non_rare_point(self):
        # A point rare enough that splitting builds real stages, common
        # enough that 64 Monte-Carlo runs see plenty of compromises.
        spec = s2(Scheme.PO, entropy_bits=8, alpha=0.1, kappa=0.8)
        max_steps = 15
        mc = estimate_protocol_lifetime(spec, trials=64, max_steps=max_steps, workers=2)
        p_mc = sum(o.compromised for o in mc.outcomes) / mc.stats.n
        split = estimate_protocol_lifetime(
            spec,
            max_steps=max_steps,
            workers=2,
            estimator="splitting",
            splitting=SplittingConfig(pilot_runs=16, replications=4, trajectories=12),
        )
        assert split.estimator == "splitting"
        rare = split.rare
        assert rare is not None
        se_mc = math.sqrt(max(p_mc * (1 - p_mc), 1e-9) / mc.stats.n)
        se_split = max(rare.ci_halfwidth / 1.96, 1e-9)
        tolerance = 3.0 * math.hypot(se_mc, se_split)
        assert abs(rare.probability - p_mc) <= tolerance

    def test_estimator_auto_switches_on_censoring(self):
        # Heavily censored at this budget: nearly every MC run survives.
        spec = s2(Scheme.PO, entropy_bits=12, alpha=0.02, kappa=0.5)
        auto = estimate_protocol_lifetime(
            spec,
            trials=6,
            max_steps=10,
            workers=1,
            estimator="auto",
            splitting=SMALL_CONFIG,
        )
        assert auto.estimator == "splitting"
        assert auto.rare is not None
        mc = estimate_protocol_lifetime(spec, trials=6, max_steps=10, workers=1)
        assert mc.censored_fraction > 0.5  # the premise of the switch
        # The abandoned MC rounds stay charged to the estimate.
        assert auto.events > auto.rare.events - 1
        assert auto.events >= mc.events

    def test_estimator_mc_keeps_old_behavior(self):
        spec = s1(Scheme.SO, entropy_bits=6, alpha=0.2)
        default = estimate_protocol_lifetime(spec, trials=4, max_steps=20, workers=1)
        explicit = estimate_protocol_lifetime(
            spec, trials=4, max_steps=20, workers=1, estimator="mc"
        )
        assert default.estimator == explicit.estimator == "mc"
        assert default.rare is None
        assert [_outcome_view(o) for o in default.outcomes] == [
            _outcome_view(o) for o in explicit.outcomes
        ]
        runs = default.outcomes
        assert default.events == sum(o.metrics.events_executed for o in runs) > 0

    def test_estimator_rejects_unknown(self):
        spec = s1(Scheme.SO, entropy_bits=6, alpha=0.2)
        with pytest.raises(ConfigurationError):
            estimate_protocol_lifetime(spec, estimator="nonsense")

    def test_estimate_fields_survive_replace(self):
        spec = s1(Scheme.SO, entropy_bits=6, alpha=0.2)
        estimate = estimate_protocol_lifetime(spec, trials=4, max_steps=20, workers=1)
        bumped = dataclasses.replace(estimate, events=estimate.events + 5)
        assert bumped.events == estimate.events + 5
        assert isinstance(estimate, LifetimeEstimate)

    def test_splitting_cache_warm_replay(self, tmp_path):
        from repro.cache import ResultCache

        spec = s2(Scheme.PO, entropy_bits=8, alpha=0.1, kappa=0.8)
        cache = ResultCache(tmp_path)
        cold = _splitting(spec, root_seed=3, max_steps=15, workers=2, cache=cache)
        assert (cache.hits, cache.misses) == (0, 1)
        warm = _splitting(spec, root_seed=3, max_steps=15, workers=1, cache=cache)
        assert (cache.hits, cache.misses) == (1, 1)
        assert warm.probability == cold.probability
        assert warm.ci_low == cold.ci_low
        assert warm.ci_high == cold.ci_high
        assert warm.levels == cold.levels
        assert warm.level_stats == cold.level_stats
        assert warm.events == cold.events
        assert [_outcome_view(o) for o in warm.pilot_outcomes] == [
            _outcome_view(o) for o in cold.pilot_outcomes
        ]
        # A different config is a different key, not a stale hit.
        other = _splitting(
            spec,
            root_seed=3,
            max_steps=15,
            workers=1,
            config=SplittingConfig(pilot_runs=8, replications=3, trajectories=6),
            cache=cache,
        )
        assert (cache.hits, cache.misses) == (1, 2)
        assert other.replications == 3


# ----------------------------------------------------------------------
# Campaign integration
# ----------------------------------------------------------------------
class TestCampaignIntegration:
    SPECS = [s2(Scheme.PO, entropy_bits=8, alpha=0.1, kappa=0.8)]

    def test_campaign_splitting_fields_and_record(self):
        result = run_campaign(
            self.SPECS,
            trials=4,
            max_steps=15,
            workers=1,
            estimator="splitting",
            splitting=SMALL_CONFIG,
        )
        assert result.estimator == "splitting"
        assert result.wall_seconds is not None and result.wall_seconds > 0.0
        assert result.total_events > 0
        (estimate,) = result.estimates
        assert estimate.estimator == "splitting"
        assert estimate.rare is not None
        record = campaign_record(result)
        encoded = json.loads(json.dumps(record))
        assert encoded["estimator"] == "splitting"
        assert encoded["total_events"] == result.total_events
        assert encoded["wall_seconds"] > 0.0
        (row,) = encoded["rows"]
        assert row["estimator"] == "splitting"
        assert row["events"] == estimate.events
        assert row["rare"]["probability"] == estimate.rare.probability
        assert row["rare"]["level_stats"]

    def test_campaign_mc_record_has_estimator_fields(self):
        result = run_campaign(
            [s1(Scheme.SO, entropy_bits=6, alpha=0.2)],
            trials=4,
            max_steps=15,
            workers=1,
        )
        assert result.estimator == "mc"
        record = campaign_record(result)
        (row,) = record["rows"]
        assert row["estimator"] == "mc"
        assert row["events"] > 0
        assert "rare" not in row

    def test_campaign_rejects_unknown_estimator(self):
        with pytest.raises(ConfigurationError):
            run_campaign(self.SPECS, trials=2, estimator="nonsense")

    def test_table_shows_estimator_and_censoring(self):
        from repro.reporting.tables import render_campaign_table

        result = run_campaign(
            self.SPECS,
            trials=4,
            max_steps=15,
            workers=1,
            estimator="splitting",
            splitting=SMALL_CONFIG,
        )
        table = render_campaign_table(result.estimates)
        assert "cens%" in table
        assert "est" in table
        assert "P(comp)" in table
        assert "splitting" in table
        mc_result = run_campaign(
            [s1(Scheme.SO, entropy_bits=6, alpha=0.2)],
            trials=4,
            max_steps=15,
            workers=1,
        )
        mc_table = render_campaign_table(mc_result.estimates)
        assert "cens%" in mc_table
        assert "P(comp)" not in mc_table
