"""Fixed-effort multilevel splitting over attacker progress.

The estimator targets the probability that a deployment is compromised
within the step budget — exactly the quantity plain Monte-Carlo cannot
resolve on censor-heavy grid points — by decomposing it along nested
level sets of the attacker-progress function Φ
(:func:`repro.rare.levels.attacker_progress`):

    P(compromise) = P(M ≥ l₁) · P(M ≥ l₂ | M ≥ l₁) · … · P(compromise | M ≥ lₘ)

where ``M`` is the trajectory's running maximum of Φ.  A compromise
drives Φ to 1.0, so the events are nested by construction and the
product telescopes exactly.

An estimate is two waves:

1. a **pilot wave** of plain unconditioned runs — bit-identical to
   :func:`~repro.core.experiment.run_protocol_lifetime` (the level probe
   is read-only) — that doubles as the honest lifetime sample of the
   returned estimate and supplies the running-max quantiles the levels
   are placed on;
2. a **replication wave** of independent fixed-effort splitting
   replications.  Each replication advances a fixed number of
   trajectories stage by stage: level-crossers are promoted and resplit
   (cloned with :mod:`repro.rare.fork`, children reseeded from the
   ``"rare:split"`` derivation), non-crossers die, and the final stage's
   "level" is the compromise event itself.

The round loop of :mod:`repro.core.experiment` runs each wave as one
:class:`~repro.mc.executor.TaskExecutor` pass shared by every split
point of a campaign; this module supplies the tasks, the level
placement between the waves and the fold (the waves' cache entry is
encoded and decoded there, with every other cache format).

Forked simulator states never cross a process boundary — they are not
safely picklable, and they do not need to be: a replication is one
self-contained task that forks in-memory, and every seed it uses is
derived before dispatch from the replication's root, so results are
bit-identical for any worker count or batch size, like everything else
in the engine.

The per-replication products average to an *unbiased* probability
estimate (each replication's product telescopes the conditional
expectations; round-robin resplitting from exchangeable crossers
preserves this), and the pooled per-stage counts give the delta-method
CI of :func:`repro.metrics.stats.splitting_probability`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional, Sequence

from ..core.experiment import (
    LifetimeOutcome,
    compose_deployment,
    gc_paused,
    outcome_from_deployment,
)
from ..errors import ConfigurationError
from ..metrics.stats import (
    SplittingLevelStat,
    splitting_probability,
)
from ..sim.rng import derive_seed
from .fork import Trajectory, child_seed, reseed_for_split
from .levels import (
    DEFAULT_POLL_FRACTION,
    LevelProbe,
    choose_levels,
    dedupe_levels,
    structural_levels,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..core.specs import SystemSpec
    from ..scenarios.spec import ScenarioSpec

#: Pilot seeds dispatched per task (same amortization trade-off as
#: :data:`repro.core.experiment.DEFAULT_SEED_BATCH`).
PILOT_BATCH = 8


@dataclass(frozen=True)
class SplittingConfig:
    """Effort knobs of one splitting estimate.

    Attributes
    ----------
    pilot_runs:
        Unconditioned runs for level placement; they double as the
        estimate's honest lifetime sample.
    replications:
        Independent splitting replications (the unbiased point estimate
        averages their products; more replications tighten the CI).
    trajectories:
        Fixed effort per stage within one replication.
    p0:
        Per-stage target crossing probability for level placement.
    max_levels, min_tail:
        Level-placement bounds — see :func:`repro.rare.levels.choose_levels`.
    min_gap:
        Minimum Φ spacing between adjacent levels; nearer ones are
        merged (:func:`repro.rare.levels.dedupe_levels`) — each level
        costs a full stage of launches, so near-duplicates burn effort
        without splitting probability mass.
    poll_fraction:
        Level-poll interval as a fraction of the unit time-step.
    """

    pilot_runs: int = 64
    replications: int = 8
    trajectories: int = 32
    p0: float = 0.25
    max_levels: int = 6
    min_tail: int = 4
    min_gap: float = 0.01
    poll_fraction: float = DEFAULT_POLL_FRACTION

    def __post_init__(self) -> None:
        if self.pilot_runs < 2:
            raise ConfigurationError(f"pilot_runs must be >= 2, got {self.pilot_runs}")
        if self.replications < 1:
            raise ConfigurationError(
                f"replications must be >= 1, got {self.replications}"
            )
        if self.trajectories < 2:
            raise ConfigurationError(
                f"trajectories must be >= 2, got {self.trajectories}"
            )
        if not 0.0 < self.p0 < 1.0:
            raise ConfigurationError(f"p0 must be in (0, 1), got {self.p0}")
        if self.max_levels < 0 or self.min_tail < 1:
            raise ConfigurationError(
                f"need max_levels >= 0 and min_tail >= 1, got "
                f"{self.max_levels}, {self.min_tail}"
            )
        if not 0.0 <= self.min_gap < 1.0:
            raise ConfigurationError(f"min_gap must be in [0, 1), got {self.min_gap}")
        if self.poll_fraction <= 0:
            raise ConfigurationError(
                f"poll_fraction must be positive, got {self.poll_fraction}"
            )

    def as_dict(self) -> dict:
        """JSON-ready form (cache keys, campaign records)."""
        return {
            "pilot_runs": self.pilot_runs,
            "replications": self.replications,
            "trajectories": self.trajectories,
            "p0": self.p0,
            "max_levels": self.max_levels,
            "min_tail": self.min_tail,
            "min_gap": self.min_gap,
            "poll_fraction": self.poll_fraction,
        }


@dataclass(frozen=True)
class RareEventEstimate:
    """A folded splitting estimate of P(compromise within the budget).

    ``probability`` is unbiased (mean of per-replication products);
    ``ci_low``/``ci_high`` come from the delta-method interval of
    :func:`repro.metrics.stats.splitting_probability`.  ``events``
    counts every simulated event spent — pilot wave included — which is
    the honest denominator for events-per-CI-width comparisons against
    plain Monte-Carlo.
    """

    probability: float
    ci_low: float
    ci_high: float
    levels: tuple[float, ...]
    level_stats: tuple[SplittingLevelStat, ...]
    replications: int
    trajectories: int
    pilot_runs: int
    events: int
    pilot_outcomes: tuple["LifetimeOutcome", ...] = field(repr=False, default=())
    pilot_max_levels: tuple[float, ...] = field(repr=False, default=())
    #: Per-replication telescoping products — the independent samples
    #: behind ``probability``; their spread is folded into the CI.
    products: tuple[float, ...] = field(repr=False, default=())
    #: Whole steps survived by the final-stage compromises, a diagnostic
    #: view of *when* in the budget the rare failures land.
    compromise_steps: tuple[int, ...] = field(repr=False, default=())

    @property
    def ci_halfwidth(self) -> float:
        return (self.ci_high - self.ci_low) / 2.0


@dataclass(frozen=True)
class SplittingReplication:
    """Picklable result of one splitting replication.

    ``counts`` holds one ``(launched, crossed)`` pair per stage actually
    run (a replication whose stage dies out never runs the later ones).
    """

    product: float
    counts: tuple[tuple[int, int], ...]
    events: int
    compromise_steps: tuple[int, ...]


def _new_trajectory(
    spec: "SystemSpec",
    seed: int,
    max_steps: int,
    build_kwargs: dict,
    scenario: "ScenarioSpec | None",
    poll_fraction: float,
) -> Trajectory:
    """Compose, start and instrument one trajectory."""
    deployed = compose_deployment(
        spec, seed=seed, max_steps=max_steps, scenario=scenario, **build_kwargs
    )
    deployed.start()
    probe = LevelProbe(deployed, poll_fraction)
    probe.arm()
    return Trajectory(deployed, probe)


def _advance(trajectory: Trajectory, threshold: Optional[float], horizon: float) -> str:
    """Run a trajectory until its stage verdict.

    Returns ``"compromised"`` (terminal success — it crosses every
    remaining level by construction), ``"crossed"`` (reached the stage
    threshold; ``None`` means only compromise counts), or ``"dead"``
    (horizon reached, or the attack provably over via fast-forward).
    Never resumes a decided simulator: a compromised or horizon-exhausted
    trajectory is classified without running.
    """
    deployed = trajectory.deployed
    monitor = deployed.monitor
    if monitor.is_compromised:
        return "compromised"
    probe = trajectory.probe
    probe.threshold = threshold
    probe.crossed = False
    if threshold is not None and probe.max_level >= threshold:
        # Jumped past this level during an earlier segment.
        return "crossed"
    sim = deployed.sim
    if sim.now < horizon:
        sim.run(until=horizon)
        if monitor.is_compromised:
            return "compromised"
        if probe.crossed:
            return "crossed"
    return "dead"


@dataclass(frozen=True)
class PilotTask:
    """A batch of unconditioned, probe-instrumented runs (picklable)."""

    spec: "SystemSpec"
    seeds: tuple[int, ...]
    max_steps: int
    build_kwargs: tuple[tuple[str, Any], ...] = ()
    scenario: "ScenarioSpec | None" = None
    poll_fraction: float = DEFAULT_POLL_FRACTION

    def run(self) -> tuple[tuple["LifetimeOutcome", float], ...]:
        """Per seed: the lifetime outcome plus the running max of Φ."""
        kwargs = dict(self.build_kwargs)
        horizon = self.max_steps * self.spec.period
        results = []
        for seed in self.seeds:
            trajectory = _new_trajectory(
                self.spec, seed, self.max_steps, kwargs, self.scenario,
                self.poll_fraction,
            )
            with gc_paused():
                trajectory.deployed.sim.run(until=horizon)
            outcome = outcome_from_deployment(
                trajectory.deployed, seed, self.max_steps
            )
            # A compromise stops the simulator before the next poll can
            # observe Φ = 1.0; report the true maximum so level
            # placement sees compromised pilots at the top.
            max_level = 1.0 if outcome.compromised else trajectory.probe.max_level
            results.append((outcome, max_level))
        return tuple(results)


def run_pilot_task(task: PilotTask):
    """Module-level task runner (picklable for process pools)."""
    return task.run()


@dataclass(frozen=True)
class SplittingTask:
    """One fixed-effort splitting replication (picklable).

    The forked simulator states live and die inside this task; only the
    per-stage counts travel back.  Every seed — initial trajectories and
    resplit children — derives from ``seed``, so the replication is a
    pure function of its fields.
    """

    spec: "SystemSpec"
    seed: int
    levels: tuple[float, ...]
    max_steps: int
    trajectories: int
    build_kwargs: tuple[tuple[str, Any], ...] = ()
    scenario: "ScenarioSpec | None" = None
    poll_fraction: float = DEFAULT_POLL_FRACTION

    def run(self) -> SplittingReplication:
        kwargs = dict(self.build_kwargs)
        horizon = self.max_steps * self.spec.period
        with gc_paused():
            trajectories = [
                _new_trajectory(
                    self.spec,
                    derive_seed(self.seed, f"rare:traj:{i}"),
                    self.max_steps,
                    kwargs,
                    self.scenario,
                    self.poll_fraction,
                )
                for i in range(self.trajectories)
            ]
            thresholds: list[Optional[float]] = [*self.levels, None]
            counts: list[tuple[int, int]] = []
            compromise_steps: list[int] = []
            product = 1.0
            events = 0
            for stage, threshold in enumerate(thresholds):
                crossers = []
                for trajectory in trajectories:
                    before = trajectory.deployed.sim.events_executed
                    status = _advance(trajectory, threshold, horizon)
                    events += trajectory.deployed.sim.events_executed - before
                    if status != "dead":
                        crossers.append(trajectory)
                counts.append((len(trajectories), len(crossers)))
                product *= len(crossers) / len(trajectories)
                if not crossers:
                    break
                if threshold is None:  # final stage: crossers compromised
                    for trajectory in crossers:
                        steps = trajectory.deployed.monitor.steps_survived
                        assert steps is not None
                        compromise_steps.append(min(steps, self.max_steps))
                    break
                trajectories = self._resplit(crossers, stage)
        return SplittingReplication(
            product=product,
            counts=tuple(counts),
            events=events,
            compromise_steps=tuple(compromise_steps),
        )

    def _resplit(self, crossers: list[Trajectory], stage: int) -> list[Trajectory]:
        """Fixed-effort resplit: round-robin children over the crossers.

        Each crosser serves as its own first child (a clone of a state
        about to be reseeded is indistinguishable from the state itself),
        and the extra children are forked *before* any reseeding touches
        the parents.
        """
        survivors = len(crossers)
        children = [
            crossers[j % survivors] if j < survivors else crossers[j % survivors].fork()
            for j in range(self.trajectories)
        ]
        for j, child in enumerate(children):
            reseed_for_split(child, child_seed(self.seed, stage, j))
        return children


def run_splitting_task(task: SplittingTask) -> SplittingReplication:
    """Module-level task runner (picklable for process pools)."""
    return task.run()


# ----------------------------------------------------------------------
# Level placement and fold (the passes run in repro.core.experiment's
# round loop)
# ----------------------------------------------------------------------
def place_levels(
    spec: "SystemSpec", config: SplittingConfig, pilot_maxima: Sequence[float]
) -> tuple[float, ...]:
    """The splitting levels of one point, from its pilot wave's maxima of Φ.

    Pilot quantiles (:func:`~repro.rare.levels.choose_levels`) merged
    with the structural simultaneity ladder, then deduplicated to
    ``config.min_gap``.
    """
    merged = set(
        choose_levels(
            pilot_maxima,
            p0=config.p0,
            max_levels=config.max_levels,
            min_tail=config.min_tail,
        )
    )
    # The simultaneity ladder reaches past what the pilot wave can
    # resolve; keep every rung that is selective (at least one pilot
    # run stayed below it) — see structural_levels.
    floor = min(pilot_maxima)
    merged.update(r for r in structural_levels(spec) if floor < r < 1.0)
    return dedupe_levels(sorted(merged), config.min_gap)


def fold_estimate(
    config: SplittingConfig,
    levels: tuple[float, ...],
    pilot_results: Sequence[tuple["LifetimeOutcome", float]],
    replications: Sequence[SplittingReplication],
) -> RareEventEstimate:
    """Pool stage counts, average products, attach the delta-method CI."""
    stages = max(len(rep.counts) for rep in replications)
    pooled: list[SplittingLevelStat] = []
    for s in range(stages):
        n = sum(rep.counts[s][0] for rep in replications if len(rep.counts) > s)
        crossed = sum(rep.counts[s][1] for rep in replications if len(rep.counts) > s)
        pooled.append(
            SplittingLevelStat(
                level=levels[s] if s < len(levels) else None, n=n, crossed=crossed
            )
        )
    folded = splitting_probability(pooled, [rep.product for rep in replications])
    pilot_events = sum(o.metrics.events_executed for o, _ in pilot_results)
    compromise_steps: list[int] = []
    for rep in replications:
        compromise_steps.extend(rep.compromise_steps)
    return RareEventEstimate(
        probability=folded.probability,
        ci_low=folded.ci_low,
        ci_high=folded.ci_high,
        levels=levels,
        level_stats=folded.levels,
        replications=len(replications),
        trajectories=config.trajectories,
        pilot_runs=len(pilot_results),
        events=pilot_events + sum(rep.events for rep in replications),
        pilot_outcomes=tuple(outcome for outcome, _ in pilot_results),
        pilot_max_levels=tuple(level for _, level in pilot_results),
        products=tuple(rep.product for rep in replications),
        compromise_steps=tuple(compromise_steps),
    )
