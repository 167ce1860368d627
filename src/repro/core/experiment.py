"""Protocol-level lifetime experiments.

This is the highest-fidelity (and most expensive) of the three
evaluation methods: a full deployment is built, the attacker campaign
mounted, and the simulation run until the compromise monitor fires or a
step budget is exhausted.  Used to validate the fast Monte-Carlo models
and the analytic lifetimes against an implementation that actually
exchanges protocol messages, crashes processes and reboots nodes.

One round loop (:func:`_estimate_points`) serves both a single
estimate and every campaign of :mod:`repro.core.campaign`.  Each round
runs one seed block per still-active point through :func:`_run_blocks`,
the only code that turns seeds into :class:`ProtocolTask` batches,
consults the result cache and stores finished blocks; all misses share
one :class:`repro.mc.executor.TaskExecutor` pass.  Points bound for
rare-event splitting then share two more passes: every point's pilot
wave, then every point's replications.  Seeds are derived *before*
dispatch, so estimates are bit-identical for any worker count or batch
size — including the serial fallback.  ``precision=`` switches a point
from one fixed-count block to streaming rounds with CI-width early
stopping, mirroring the Monte-Carlo path.  Censored runs (those
that survive the whole step budget) are never folded into the mean
silently: the estimate carries a
:class:`~repro.metrics.stats.CensoredSummary` and early stopping refuses
to run on samples whose censored fraction makes the CI meaningless.
"""

from __future__ import annotations

import gc
import warnings
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional, Sequence

from ..cache import ResultCache
from ..errors import AnalysisError, ConfigurationError
from ..metrics.stats import CensoredSummary, SummaryStats, summarize_censored
from ..supervision.policy import Quarantined
from ..telemetry.registry import RunMetrics
from ..telemetry.spans import span
from .builders import DeployedSystem, add_clients, attach_attacker, build_system
from .specs import SystemSpec

if TYPE_CHECKING:  # deferred at runtime: mc.executor imports core.specs
    from ..mc.executor import TaskExecutor
    from ..rare.splitting import RareEventEstimate, SplittingConfig
    from ..scenarios.spec import ScenarioSpec

#: Seeds dispatched per :class:`ProtocolTask` (amortizes process-pool
#: dispatch without starving workers on small campaigns).
DEFAULT_SEED_BATCH = 8

#: Seeds per streaming round in precision mode.  Deliberately a
#: constant — deriving it from the worker count or batch size would
#: make the convergence checkpoints (and therefore the sample size and
#: final estimate) depend on the fan-out configuration, breaking the
#: bit-identical-for-any-worker-count/batch-size contract for
#: precision runs.
PRECISION_ROUND_SEEDS = 32

#: Censored fraction above which a precision-targeted estimate refuses
#: to report a CI (the interval would describe the budget, not the
#: lifetime).
DEFAULT_MAX_CENSORED = 0.5


@dataclass(frozen=True)
class LifetimeOutcome:
    """Result of one protocol-level lifetime run.

    Attributes
    ----------
    spec, seed:
        What was run.
    compromised:
        Whether the system fell within the step budget.
    steps:
        Whole unit time-steps survived (Definition 7).  Equal to the
        budget when censored (``compromised`` is False).
    time:
        Simulated time of compromise (or the horizon).
    cause:
        Human-readable compromise cause, if any.
    metrics:
        The run's counters (:class:`~repro.telemetry.registry.RunMetrics`),
        read once at run end: attacker effort (``probes_direct``,
        ``probes_indirect``) and ``events_executed``, the estimator-cost
        unit (wall time is hardware-dependent; event counts are
        bit-reproducible).  Estimators never read the counters to
        decide a verdict.
    """

    spec: SystemSpec
    seed: int
    compromised: bool
    steps: int
    time: float
    cause: Optional[str]
    metrics: RunMetrics


def compose_deployment(
    spec: SystemSpec,
    *,
    seed: int = 0,
    max_steps: int = 500,
    with_workload: bool = False,
    scenario: "ScenarioSpec | None" = None,
    **build_kwargs,
) -> DeployedSystem:
    """Compose the deployment exactly as :func:`run_protocol_lifetime` does.

    Composition only — the caller starts and runs it.  Shared with the
    rare-event engine (:mod:`repro.rare`) so that splitting trajectories
    replay bit-identically to plain lifetime runs.

    With ``scenario`` set, the deployment is composed by
    :func:`~repro.scenarios.runtime.deploy_scenario` — scenario timing,
    adversary strategy, seeded fault plan and workload — and
    ``with_workload`` is ignored (the scenario declares its own
    traffic).  The epoch fast-forward arms only when the scenario has
    no faults and no workload in play (see ``deploy_scenario``).
    ``build_kwargs`` pass through to
    :func:`~repro.core.builders.build_system` either way.
    """
    if scenario is not None:
        from ..scenarios.runtime import deploy_scenario  # deferred: layering

        deployed = deploy_scenario(
            spec, scenario, seed=seed, max_steps=max_steps, **build_kwargs
        )
        assert deployed.attacker is not None
        return deployed
    deployed = build_system(spec, seed=seed, **build_kwargs)
    attacker = attach_attacker(deployed)
    if with_workload:
        add_clients(deployed, count=1)
    else:
        # No workload to serve: once every probe stream is provably
        # dead the run's verdict is decided, so let the attacker
        # fast-forward past the remaining (censored) epochs instead
        # of simulating heartbeat/refresh churn to the horizon.
        # Outcomes are bit-identical either way.
        attacker.enable_fast_forward()
    return deployed


def _run_until(deployed: DeployedSystem, horizon: float) -> None:
    """Advance a started deployment to ``horizon`` with cyclic GC paused.

    The simulation allocates at probe rate but creates no cycles the
    young-generation collector could reclaim mid-run; pausing cyclic
    GC for the run avoids per-allocation-burst scan pauses.  (The
    deployment's own cycles are collected after re-enabling.)
    """
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        deployed.sim.run(until=horizon)
    finally:
        if gc_was_enabled:
            gc.enable()


def _sample_run_metrics(deployed: DeployedSystem) -> RunMetrics:
    """Read the run's counters into one frozen telemetry sample.

    Called exactly once per run, at verdict time — the counters
    themselves are plain integers the hot paths maintain anyway, so
    this is the entire cost of always-on run telemetry.
    """
    sim = deployed.sim
    network = deployed.network
    attacker = deployed.attacker
    return RunMetrics(
        events_executed=sim.events_executed,
        events_elided=network.events_elided,
        probes_direct=0 if attacker is None else attacker.probes_sent_direct,
        probes_indirect=0 if attacker is None else attacker.probes_sent_indirect,
        fast_forward_arms=0 if attacker is None else attacker.fast_forward_arms,
        heap_compactions=sim.heap_compactions,
        messages_sent=network.messages_sent,
        messages_delivered=network.messages_delivered,
        messages_dropped=network.messages_dropped,
    )


def outcome_from_deployment(
    deployed: DeployedSystem, seed: int, max_steps: int
) -> LifetimeOutcome:
    """Read the verdict of a finished (or fast-forwarded) run."""
    spec = deployed.spec
    monitor = deployed.monitor
    metrics = _sample_run_metrics(deployed)
    if monitor.is_compromised:
        steps = monitor.steps_survived
        assert steps is not None
        return LifetimeOutcome(
            spec=spec,
            seed=seed,
            compromised=True,
            steps=min(steps, max_steps),
            time=monitor.compromised_at or deployed.sim.now,
            cause=monitor.cause,
            metrics=metrics,
        )
    return LifetimeOutcome(
        spec=spec,
        seed=seed,
        compromised=False,
        steps=max_steps,
        time=max_steps * spec.period,
        cause=None,
        metrics=metrics,
    )


def run_protocol_lifetime(
    spec: SystemSpec,
    seed: int = 0,
    max_steps: int = 500,
    with_workload: bool = False,
    scenario: "ScenarioSpec | None" = None,
    **build_kwargs,
) -> LifetimeOutcome:
    """Run one deployment until compromise or ``max_steps`` whole steps.

    Composition is delegated to :func:`compose_deployment` (see there
    for the ``scenario``/``with_workload`` semantics).
    """
    deployed = compose_deployment(
        spec,
        seed=seed,
        max_steps=max_steps,
        with_workload=with_workload,
        scenario=scenario,
        **build_kwargs,
    )
    deployed.start()
    _run_until(deployed, max_steps * spec.period)
    return outcome_from_deployment(deployed, seed, max_steps)


class CensoredPrecisionError(AnalysisError):
    """A precision-targeted estimate refused a heavily censored sample.

    Carries the outcomes already simulated so callers (e.g. campaign
    runners) can still report a fixed-count lower-bound estimate
    without re-running the slowest (budget-exhausting) simulations.
    """

    def __init__(self, message: str, outcomes: tuple["LifetimeOutcome", ...]):
        super().__init__(message)
        self.outcomes = outcomes


@dataclass(frozen=True)
class ProtocolTask:
    """A batch of protocol-lifetime seeds for one spec (picklable).

    Seeds are fixed by the caller *before* dispatch, which is what makes
    campaign results independent of the worker count and of how seeds
    are grouped into batches.
    """

    spec: SystemSpec
    seeds: tuple[int, ...]
    max_steps: int = 500
    build_kwargs: tuple[tuple[str, Any], ...] = ()
    scenario: "ScenarioSpec | None" = None

    def run(self) -> tuple[LifetimeOutcome, ...]:
        """Evaluate every seed of this batch in the current process."""
        kwargs = dict(self.build_kwargs)
        return tuple(
            run_protocol_lifetime(
                self.spec,
                seed=seed,
                max_steps=self.max_steps,
                scenario=self.scenario,
                **kwargs,
            )
            for seed in self.seeds
        )


def run_protocol_task(task: ProtocolTask) -> tuple[LifetimeOutcome, ...]:
    """Module-level task runner (picklable for process pools)."""
    return task.run()


@dataclass(frozen=True)
class LifetimeEstimate:
    """Aggregated protocol-level lifetime over several seeds.

    Attributes
    ----------
    spec:
        The spec run.
    stats:
        Naive summary of whole steps survived.  Censored runs contribute
        the step budget, so mean and CI are *lower bounds* whenever
        ``censored > 0`` (see :attr:`censoring` for the honest view).
    censored:
        Number of runs that survived the whole budget.
    outcomes:
        Every per-seed :class:`LifetimeOutcome`, in seed order.
    censoring:
        Censoring-aware summary (censored fraction, Kaplan-Meier
        restricted mean).  Derived from ``outcomes`` when omitted.
    converged:
        ``False`` only for precision-targeted estimates that exhausted
        their seed budget before reaching the requested CI half-width.
    estimator:
        Which estimator produced this: ``"mc"`` (plain Monte-Carlo) or
        ``"splitting"`` (rare-event multilevel splitting; ``outcomes``
        then holds the unconditioned pilot wave and :attr:`rare` the
        folded probability estimate).
    rare:
        The :class:`~repro.rare.splitting.RareEventEstimate` when
        ``estimator == "splitting"``, else ``None``.
    events:
        Total simulator events spent producing the estimate — including
        Monte-Carlo rounds abandoned by an ``estimator="auto"`` switch,
        so estimator cost comparisons stay honest.
    """

    spec: SystemSpec
    stats: SummaryStats
    censored: int
    outcomes: tuple[LifetimeOutcome, ...]
    censoring: Optional[CensoredSummary] = field(repr=False, default=None)
    converged: bool = True
    estimator: str = "mc"
    rare: Optional["RareEventEstimate"] = field(repr=False, default=None)
    events: int = 0

    def __post_init__(self) -> None:
        # Derive the censoring summary (and event total) for callers
        # constructing the pre-campaign 4-field form, so km_mean_steps
        # and cost accounting always work.
        if self.censoring is None and self.outcomes:
            object.__setattr__(
                self,
                "censoring",
                summarize_censored(
                    [float(o.steps) for o in self.outcomes],
                    [not o.compromised for o in self.outcomes],
                ),
            )
        if self.events == 0 and self.outcomes:
            object.__setattr__(
                self, "events", sum(o.metrics.events_executed for o in self.outcomes)
            )

    @property
    def mean_steps(self) -> float:
        """Mean whole steps survived (censored runs count the budget,
        so this is a lower bound when ``censored > 0``)."""
        return self.stats.mean

    @property
    def censored_fraction(self) -> float:
        """Fraction of runs that outlived the step budget."""
        return self.censored / self.stats.n

    @property
    def km_mean_steps(self) -> float:
        """Kaplan-Meier restricted mean steps survived."""
        return self.censoring.km_mean


def _aggregate(
    spec: SystemSpec,
    outcomes: list[LifetimeOutcome],
    converged: bool = True,
) -> LifetimeEstimate:
    """Fold per-seed outcomes into a censoring-aware estimate."""
    censoring = summarize_censored(
        [float(o.steps) for o in outcomes],
        [not o.compromised for o in outcomes],
    )
    return LifetimeEstimate(
        spec=spec,
        stats=censoring.stats,
        censored=censoring.n_censored,
        outcomes=tuple(outcomes),
        censoring=censoring,
        converged=converged,
    )


def _batched(seeds: list[int], batch_size: int) -> Iterator[tuple[int, ...]]:
    for start in range(0, len(seeds), batch_size):
        yield tuple(seeds[start : start + batch_size])


# ----------------------------------------------------------------------
# Result-cache plumbing
# ----------------------------------------------------------------------
def _outcome_block_payload(
    spec: SystemSpec,
    seeds: list[int],
    max_steps: int,
    build_kwargs: dict,
    scenario: "ScenarioSpec | None",
) -> dict:
    """Cache-key payload for one (spec × seed block) of protocol runs.

    Covers everything that determines the outcomes — and nothing about
    the fan-out (``workers``/``batch_size`` never appear), so cached and
    recomputed results agree bit-for-bit under any executor
    configuration.  ``build_kwargs`` values (e.g. a
    :class:`~repro.core.timing.TimingSpec`) serialize through their
    ``as_dict`` (see :func:`repro.cache.keys.jsonable`).
    """
    return {
        "kind": "protocol_outcomes",
        "spec": spec,
        "seeds": list(seeds),
        "max_steps": max_steps,
        "build_kwargs": dict(build_kwargs),
        "scenario": scenario,
    }


def _outcome_payload(outcome: LifetimeOutcome) -> dict:
    """JSON-ready form of one outcome (spec lives in the cache key)."""
    return {
        "seed": outcome.seed,
        "compromised": outcome.compromised,
        "steps": outcome.steps,
        "time": outcome.time,
        "cause": outcome.cause,
        "metrics": outcome.metrics.as_dict(),
    }


def _outcome_from_entry(spec: SystemSpec, entry: Any) -> LifetimeOutcome:
    """Rebuild one cached outcome; raise on malformed entries."""
    cause = entry["cause"]
    if cause is not None and not isinstance(cause, str):
        raise ValueError("cached outcome carries a malformed cause")
    return LifetimeOutcome(
        spec=spec,
        seed=int(entry["seed"]),
        compromised=bool(entry["compromised"]),
        steps=int(entry["steps"]),
        time=float(entry["time"]),
        cause=cause,
        metrics=RunMetrics.from_dict(entry["metrics"]),
    )


def _outcomes_from_payload(
    spec: SystemSpec, payload: Any, seeds: list[int]
) -> list[LifetimeOutcome]:
    """Rebuild a cached outcome block; raise if it doesn't match ``seeds``."""
    if not isinstance(payload, list) or len(payload) != len(seeds):
        raise ValueError("cached outcome block does not match the request")
    outcomes: list[LifetimeOutcome] = []
    for seed, entry in zip(seeds, payload):
        if entry["seed"] != seed:
            raise ValueError("cached outcome block does not match the request")
        outcomes.append(_outcome_from_entry(spec, entry))
    return outcomes


def _cache_fetch(cache: ResultCache, key: str, decode: Callable[[Any], Any]) -> Any:
    """``decode`` of the entry under ``key``, or ``None`` on a (possibly
    reclassified) miss — the one cache read of the round loop."""
    payload = cache.lookup(key)
    if payload is None:
        return None
    try:
        return decode(payload)
    except (KeyError, TypeError, ValueError):
        # A readable entry that doesn't decode to the request is as
        # good as corrupt: reclassify the lookup as a miss and let the
        # caller recompute (and overwrite the entry).
        cache.hits -= 1
        cache.misses += 1
        return None


# ----------------------------------------------------------------------
# The round loop
# ----------------------------------------------------------------------
@dataclass(eq=False)
class _Block:
    """One (spec × seed block) of a round: the unit of cache lookup and store.

    ``batches`` holds one slot per dispatched task — or the one decoded
    cache hit — in seed order.  ``left`` counts the tasks still out; a
    quarantined task never counts down, so a block with holes is never
    complete and never stored.
    """

    spec: SystemSpec
    seeds: list[int]
    batches: list = field(default_factory=list)
    left: int = 0
    key: Optional[str] = None

    @property
    def landed(self) -> bool:
        """Every slot holds a result (quarantine markers included)."""
        return bool(self.batches) and None not in self.batches

    @property
    def lost(self) -> bool:
        return any(isinstance(batch, Quarantined) for batch in self.batches)

    @property
    def outcomes(self) -> list[LifetimeOutcome]:
        """The surviving outcomes, in seed order."""
        return [
            outcome
            for batch in self.batches
            if batch is not None and not isinstance(batch, Quarantined)
            for outcome in batch
        ]


def _run_blocks(
    executor: "TaskExecutor",
    blocks: list[_Block],
    *,
    max_steps: int,
    batch_size: int,
    build_kwargs: dict,
    scenario: "ScenarioSpec | None",
    cache: Optional[ResultCache],
    on_outcomes: Optional[Callable[[Sequence[LifetimeOutcome]], None]],
) -> None:
    """Run one round: every block's seeds through one executor pass.

    The only place seeds become :class:`ProtocolTask` batches.  With
    ``cache`` set each block is looked up first — a hit fills it without
    dispatch, so a fully warm round submits nothing — and every miss
    joins the same ``executor.map``.  A block is stored from the result
    callback the moment its last task lands, so an interrupt loses only
    the blocks still in flight.  ``on_outcomes`` observes every landed
    batch and every cache hit (live progress).
    """
    frozen_kwargs = tuple(sorted(build_kwargs.items()))
    tasks: list[ProtocolTask] = []
    slots: list[tuple[_Block, int]] = []
    with span("campaign.prepare", grid_points=len(blocks), trials=len(blocks[0].seeds)):
        for block in blocks:
            if cache is not None:
                block.key = cache.key_for(
                    _outcome_block_payload(
                        block.spec, block.seeds, max_steps, build_kwargs, scenario
                    )
                )
                decode = partial(_outcomes_from_payload, block.spec, seeds=block.seeds)
                cached = _cache_fetch(cache, block.key, decode)
                if cached is not None:
                    block.batches = [cached]
                    if on_outcomes is not None:
                        on_outcomes(cached)
                    continue
            for batch in _batched(block.seeds, batch_size):
                slots.append((block, len(block.batches)))
                block.batches.append(None)
                tasks.append(
                    ProtocolTask(
                        spec=block.spec,
                        seeds=batch,
                        max_steps=max_steps,
                        build_kwargs=frozen_kwargs,
                        scenario=scenario,
                    )
                )
            block.left = len(block.batches)

    def collect(index: int, result) -> None:
        block, slot = slots[index]
        block.batches[slot] = result
        if isinstance(result, Quarantined):
            return
        if on_outcomes is not None:
            on_outcomes(result)
        block.left -= 1
        if block.left == 0 and block.key is not None:
            cache.store(block.key, [_outcome_payload(o) for o in block.outcomes])

    if tasks:
        with span("campaign.dispatch", tasks=len(tasks)):
            executor.map(run_protocol_task, tasks, on_result=collect)


@dataclass(eq=False)
class _Point:
    """One estimate's progress through the round loop.

    ``next_seed`` is the index of the next seed to dispatch.  It is
    tracked here and never re-derived from how many outcomes survived,
    so a seed whose batch was quarantined is never run again under a
    later round.
    """

    spec: SystemSpec
    seed_for: Callable[[int], int]
    outcomes: list[LifetimeOutcome] = field(default_factory=list)
    next_seed: int = 0
    lost: bool = False  # supervision quarantined some of its work
    warned: bool = False  # the censored-lower-bound warning went out
    done: bool = False  # out of the Monte-Carlo rounds
    split: bool = False  # waiting for the splitting passes
    refused: Optional[CensoredPrecisionError] = None
    estimate: Optional[LifetimeEstimate] = None
    # Splitting: the cache key, surviving pilot results, placed levels
    # and one slot per replication task.
    key: Optional[str] = None
    pilot: list = field(default_factory=list)
    levels: tuple[float, ...] = ()
    reps: list = field(default_factory=list)


def _check_options(
    *,
    trials: int,
    batch_size: int,
    precision: Optional[float],
    min_trials: int,
    max_trials: int,
    max_censored_fraction: float,
    estimator: str,
) -> None:
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    if estimator not in ("mc", "splitting", "auto"):
        raise ConfigurationError(
            f"estimator must be 'mc', 'splitting' or 'auto', got {estimator!r}"
        )
    if not 0.0 < max_censored_fraction <= 1.0:
        raise ConfigurationError(
            "max_censored_fraction must be in (0, 1], got "
            f"{max_censored_fraction}"
        )
    if estimator == "splitting":
        return
    if precision is None:
        if trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {trials}")
        return
    if precision <= 0:
        raise ConfigurationError(f"precision must be positive, got {precision}")
    if not 2 <= min_trials <= max_trials:
        raise ConfigurationError(
            f"need 2 <= min_trials <= max_trials, got {min_trials}, {max_trials}"
        )


def _fold_block(
    point: _Point,
    block: _Block,
    *,
    max_steps: int,
    precision: Optional[float],
    min_trials: int,
    max_trials: int,
    max_censored_fraction: float,
    estimator: str,
) -> None:
    """Fold one landed block into its point and apply the stop rules."""
    point.outcomes.extend(block.outcomes)
    point.lost = point.lost or block.lost
    point.next_seed += len(block.seeds)
    spec, outcomes = point.spec, point.outcomes
    converged = precision is None
    if precision is not None and len(outcomes) >= min_trials:
        estimate = _aggregate(spec, outcomes, converged=False)
        if estimate.censored_fraction > max_censored_fraction:
            point.done = True
            if estimator == "auto":
                point.split = True
                return
            point.refused = CensoredPrecisionError(
                f"{spec.label}: {estimate.censored} of {estimate.stats.n} "
                f"protocol runs were censored at the {max_steps}-step "
                f"budget (fraction {estimate.censored_fraction:.2f} > "
                f"{max_censored_fraction:.2f}); the requested precision "
                "target is meaningless — raise max_steps or drop "
                "precision=",
                outcomes=tuple(outcomes),
            )
            return
        if estimate.censored and not point.warned:
            warnings.warn(
                f"{spec.label}: {estimate.censored} of {estimate.stats.n} "
                "protocol runs censored at the step budget; the mean and "
                "CI are lower bounds on the true lifetime",
                RuntimeWarning,
                stacklevel=2,
            )
            point.warned = True
        scale = max(abs(estimate.stats.mean), 1e-300)
        converged = estimate.stats.ci_halfwidth <= precision * scale
    point.done = converged or point.next_seed >= max_trials
    if not point.done or not outcomes:
        return  # still streaming, or every run was quarantined
    estimate = _aggregate(spec, outcomes, converged=converged)
    if (
        precision is None
        and estimator == "auto"
        and estimate.censored_fraction > max_censored_fraction
    ):
        point.split = True
    else:
        point.estimate = estimate


def _estimate_points(
    executor: "TaskExecutor",
    points: list[_Point],
    *,
    trials: int,
    max_steps: int,
    batch_size: int,
    precision: Optional[float],
    min_trials: int,
    max_trials: int,
    max_censored_fraction: float,
    scenario: "ScenarioSpec | None",
    cache: Optional[ResultCache],
    estimator: str,
    splitting: "SplittingConfig | None",
    build_kwargs: dict,
    on_outcomes: Optional[Callable[[Sequence[LifetimeOutcome]], None]] = None,
) -> None:
    """The round loop behind every protocol estimate and campaign.

    Each round runs one block per still-active point through
    :func:`_run_blocks` — a fixed-count point's only block is its whole
    ``trials`` seeds, a precision point's its next
    :data:`PRECISION_ROUND_SEEDS` — then folds every block into its
    point and applies the stop rules.  Points that leave the rounds for
    rare-event splitting (``estimator="splitting"``, or ``"auto"`` on a
    censor-heavy point) then share two passes on the same executor —
    every pilot task, then every replication — charged the Monte-Carlo
    events they already spent.

    Results land on the points: ``estimate`` (left ``None`` when every
    run was quarantined), or ``refused`` for a precision point the
    ``"mc"`` estimator cannot report.  An interrupt still folds the
    blocks that landed before it propagates.
    """
    _check_options(
        trials=trials,
        batch_size=batch_size,
        precision=precision,
        min_trials=min_trials,
        max_trials=max_trials,
        max_censored_fraction=max_censored_fraction,
        estimator=estimator,
    )
    for point in points:
        point.split = point.done = estimator == "splitting"
    active = [point for point in points if not point.done]
    while active:
        blocks = []
        for point in active:
            stop = trials
            if precision is not None:
                stop = min(point.next_seed + PRECISION_ROUND_SEEDS, max_trials)
            seeds = [point.seed_for(j) for j in range(point.next_seed, stop)]
            blocks.append(_Block(point.spec, seeds))
        try:
            _run_blocks(
                executor,
                blocks,
                max_steps=max_steps,
                batch_size=batch_size,
                build_kwargs=build_kwargs,
                scenario=scenario,
                cache=cache,
                on_outcomes=on_outcomes,
            )
        finally:
            with span("campaign.fold", grid_points=len(blocks)):
                for point, block in zip(active, blocks):
                    if block.landed:
                        _fold_block(
                            point,
                            block,
                            max_steps=max_steps,
                            precision=precision,
                            min_trials=min_trials,
                            max_trials=max_trials,
                            max_censored_fraction=max_censored_fraction,
                            estimator=estimator,
                        )
        active = [point for point in active if not point.done]

    # Splitting: one pass runs every split point's pilot tasks, levels
    # are placed per point, and a second pass runs every replication.
    # A point is folded, and stored if whole, from the result callback
    # as its last replication lands, so an interrupt loses only the
    # points in flight.  Quarantined pilot batches and replications are
    # skipped and the survivors folded (never cached); a point with
    # none left is lost.
    needy = [point for point in points if point.split]
    if not needy:
        return
    from ..rare import splitting as rare  # layering; runners resolve at call time
    from ..sim.rng import derive_seed

    config = splitting or rare.SplittingConfig()
    frozen_kwargs = tuple(sorted(build_kwargs.items()))
    pilot: list[tuple[_Point, Any]] = []  # (owner, task) per pilot task
    reps: list[tuple[_Point, int, Any]] = []  # (owner, slot, task)

    def finish(point: _Point, folded: "RareEventEstimate | None") -> None:
        point.split = False
        if folded is None:  # no pilot run or replication survived
            point.lost = True
            return
        point.lost = point.lost or (
            folded.pilot_runs < config.pilot_runs
            or folded.replications < config.replications
        )
        # The pilot wave is plain unconditioned runs, bit-identical to
        # what "mc" would produce for those seeds; ``rare`` carries the
        # folded rare-event probability.
        mc_events = sum(o.metrics.events_executed for o in point.outcomes)
        point.estimate = replace(
            _aggregate(point.spec, list(folded.pilot_outcomes)),
            estimator="splitting",
            rare=folded,
            events=folded.events + mc_events,
        )
        if on_outcomes is not None:
            on_outcomes(point.estimate.outcomes)

    def fold(index: int, result) -> None:
        point, slot, _ = reps[index]
        point.reps[slot] = result
        if None in point.reps:
            return
        survivors = [rep for rep in point.reps if not isinstance(rep, Quarantined)]
        folded = None
        if survivors:
            folded = rare._fold(config, point.levels, point.pilot, survivors)
            whole = (
                len(point.pilot) == config.pilot_runs
                and len(survivors) == config.replications
            )
            if whole and point.key is not None:
                cache.store(point.key, rare._estimate_payload(folded, survivors))
        finish(point, folded)

    with span("campaign.prepare", estimator="splitting", grid_points=len(needy)):
        for point in needy:
            spec, root = point.spec, point.seed_for(0)
            if cache is not None:
                point.key = cache.key_for(
                    rare._splitting_key_payload(
                        spec, root, max_steps, build_kwargs, scenario, config
                    )
                )
                decode = partial(rare._estimate_from_payload, spec, config=config)
                folded = _cache_fetch(cache, point.key, decode)
                if folded is not None:
                    finish(point, folded)
                    continue
            seeds = [
                derive_seed(root, f"rare:pilot:{i}") for i in range(config.pilot_runs)
            ]
            for batch in _batched(seeds, rare.PILOT_BATCH):
                task = rare.PilotTask(
                    spec=spec,
                    seeds=batch,
                    max_steps=max_steps,
                    build_kwargs=frozen_kwargs,
                    scenario=scenario,
                    poll_fraction=config.poll_fraction,
                )
                pilot.append((point, task))
    if pilot:
        with span("campaign.dispatch", estimator="splitting", tasks=len(pilot)):
            results = executor.map(rare.run_pilot_task, [task for _, task in pilot])
        with span("campaign.fold", estimator="splitting", grid_points=len(needy)):
            for (point, _), batch in zip(pilot, results):
                if not isinstance(batch, Quarantined):
                    point.pilot.extend(batch)
            for point in dict.fromkeys(point for point, _ in pilot):
                if not point.pilot:
                    finish(point, None)
                    continue
                maxima = [level for _, level in point.pilot]
                point.levels = rare.place_levels(point.spec, config, maxima)
                point.reps = [None] * config.replications
                root = point.seed_for(0)
                for r in range(config.replications):
                    task = rare.SplittingTask(
                        spec=point.spec,
                        seed=derive_seed(root, f"rare:rep:{r}"),
                        levels=point.levels,
                        max_steps=max_steps,
                        trajectories=config.trajectories,
                        build_kwargs=frozen_kwargs,
                        scenario=scenario,
                        poll_fraction=config.poll_fraction,
                    )
                    reps.append((point, r, task))
    if reps:
        with span("campaign.dispatch", estimator="splitting", tasks=len(reps)):
            tasks = [task for *_, task in reps]
            executor.map(rare.run_splitting_task, tasks, on_result=fold)


def estimate_protocol_lifetime(
    spec: SystemSpec,
    trials: int = 20,
    max_steps: int = 500,
    seed0: int = 0,
    *,
    workers: int | None = None,
    batch_size: int = DEFAULT_SEED_BATCH,
    precision: float | None = None,
    min_trials: int = 20,
    max_trials: int = 2_000,
    max_censored_fraction: float = DEFAULT_MAX_CENSORED,
    seed_for: Callable[[int], int] | None = None,
    executor: "TaskExecutor | None" = None,
    scenario: "ScenarioSpec | None" = None,
    cache: Optional[ResultCache] = None,
    estimator: str = "mc",
    splitting: "SplittingConfig | None" = None,
    **build_kwargs,
) -> LifetimeEstimate:
    """Estimate the expected lifetime from independent protocol runs.

    The round loop of :func:`~repro.core.campaign.run_campaign` over one
    point.  Seeds are ``seed0 + i`` (or ``seed_for(i)`` when given),
    fixed before dispatch, and the runs fan out across ``workers``
    processes in batches of ``batch_size`` seeds — results are
    bit-identical for any worker count or batch size (in precision mode
    too: streaming rounds are sized by the constant
    :data:`PRECISION_ROUND_SEEDS`, never by the fan-out configuration).
    A caller can pass its own ``executor`` to reuse one process pool
    across many estimates; its lifetime stays the caller's.

    With ``precision=`` set, ``trials`` is ignored as a count: rounds of
    seeds stream in until the 95% CI half-width drops below
    ``precision × |mean|`` (bounded by ``min_trials``/``max_trials``).
    Censored runs make that CI a lower-bound statement, so a precision
    run warns as soon as any run is censored and raises
    :class:`CensoredPrecisionError` once the censored fraction exceeds
    ``max_censored_fraction`` — at that point the interval describes
    the step budget, not the lifetime.

    ``scenario`` composes every run through the scenario runtime
    (adversary strategy, seeded fault plan, workload) — see
    :func:`run_protocol_lifetime`; all fan-out guarantees hold
    unchanged because the scenario travels inside the task.

    ``cache`` consults a :class:`~repro.cache.ResultCache` before every
    dispatch: seed blocks already on disk skip simulation entirely, and
    fresh blocks are stored for the next run.  Because seeds are fixed
    before dispatch, cached and recomputed estimates are bit-identical.

    ``estimator`` selects how censor-heavy points are handled:

    * ``"mc"`` (default) — plain Monte-Carlo, exactly as before;
    * ``"splitting"`` — rare-event multilevel splitting
      (:mod:`repro.rare.splitting`, shaped by ``splitting=``; the
      pilot and replication seeds derive from ``seed_for(0)``): the
      returned estimate's ``outcomes`` are the
      unconditioned pilot wave and its ``rare`` field carries the
      survival-failure probability with CI — resolvable far below what
      ``max_trials`` Monte-Carlo runs could see;
    * ``"auto"`` — Monte-Carlo first, switching to splitting when the
      censored fraction exceeds ``max_censored_fraction`` (for
      precision runs: exactly when :class:`CensoredPrecisionError`
      would have been raised).  Events already spent on the abandoned
      Monte-Carlo rounds are charged to the estimate.
    """
    from ..mc.executor import TaskExecutor  # deferred: avoids cycle

    if seed_for is None:

        def seed_for(i: int) -> int:
            return seed0 + i

    point = _Point(spec, seed_for)
    with ExitStack() as stack:
        if executor is None:
            executor = stack.enter_context(TaskExecutor(workers))
        _estimate_points(
            executor,
            [point],
            trials=trials,
            max_steps=max_steps,
            batch_size=batch_size,
            precision=precision,
            min_trials=min_trials,
            max_trials=max_trials,
            max_censored_fraction=max_censored_fraction,
            scenario=scenario,
            cache=cache,
            estimator=estimator,
            splitting=splitting,
            build_kwargs=build_kwargs,
        )
    if point.refused is not None:
        raise point.refused
    if point.estimate is None:
        raise AnalysisError(
            f"{spec.label}: supervision quarantined every run; nothing to "
            "estimate (see the failure manifest)"
        )
    return point.estimate
