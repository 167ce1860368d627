"""Protocol-level lifetime experiments.

This is the highest-fidelity (and most expensive) of the three
evaluation methods: a full deployment is built, the attacker campaign
mounted, and the simulation run until the compromise monitor fires or a
step budget is exhausted.  Used to validate the fast Monte-Carlo models
and the analytic lifetimes against an implementation that actually
exchanges protocol messages, crashes processes and reboots nodes.

The estimator runs on the generic task fan-out of
:class:`repro.mc.executor.TaskExecutor`: seeds are derived *before*
dispatch and grouped into :class:`ProtocolTask` batches, so estimates
are bit-identical for any worker count or batch size — including the
serial fallback.  ``precision=`` switches from a fixed seed count to
streaming accumulation with CI-width-based early stopping, mirroring
the Monte-Carlo path.  Censored runs (those that survive the whole step
budget) are never folded into the mean silently: the estimate carries a
:class:`~repro.metrics.stats.CensoredSummary` and early stopping refuses
to run on samples whose censored fraction makes the CI meaningless.
"""

from __future__ import annotations

import gc
import warnings
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

from ..cache import ResultCache
from ..errors import AnalysisError, ConfigurationError
from ..metrics.stats import CensoredSummary, SummaryStats, summarize_censored
from ..supervision.policy import Quarantined
from ..telemetry.registry import RunMetrics
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
    probes_direct, probes_indirect:
        Attacker effort expended.
    events:
        Simulator events the run executed — the honest cost denominator
        when comparing estimators (wall time is hardware-dependent;
        event counts are bit-reproducible).
    metrics:
        Full per-run telemetry sample (:class:`~repro.telemetry.registry.
        RunMetrics`), read once at run end.  ``None`` on outcomes
        replayed from pre-telemetry cache entries.  Pure observation —
        estimators never read it.
    """

    spec: SystemSpec
    seed: int
    compromised: bool
    steps: int
    time: float
    cause: Optional[str]
    probes_direct: int
    probes_indirect: int
    events: int = 0
    metrics: Optional[RunMetrics] = None


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
    attacker = deployed.attacker
    assert attacker is not None
    monitor = deployed.monitor
    events = deployed.sim.events_executed
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
            probes_direct=attacker.probes_sent_direct,
            probes_indirect=attacker.probes_sent_indirect,
            events=events,
            metrics=metrics,
        )
    return LifetimeOutcome(
        spec=spec,
        seed=seed,
        compromised=False,
        steps=max_steps,
        time=max_steps * spec.period,
        cause=None,
        probes_direct=attacker.probes_sent_direct,
        probes_indirect=attacker.probes_sent_indirect,
        events=events,
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
                self, "events", sum(o.events for o in self.outcomes)
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
        "probes_direct": outcome.probes_direct,
        "probes_indirect": outcome.probes_indirect,
        "events": outcome.events,
        "metrics": None if outcome.metrics is None else outcome.metrics.as_dict(),
    }


def _outcome_from_entry(spec: SystemSpec, entry: Any) -> LifetimeOutcome:
    """Rebuild one cached outcome; raise on malformed entries."""
    cause = entry["cause"]
    if cause is not None and not isinstance(cause, str):
        raise ValueError("cached outcome carries a malformed cause")
    metrics_payload = entry.get("metrics")
    return LifetimeOutcome(
        spec=spec,
        seed=int(entry["seed"]),
        compromised=bool(entry["compromised"]),
        steps=int(entry["steps"]),
        time=float(entry["time"]),
        cause=cause,
        probes_direct=int(entry["probes_direct"]),
        probes_indirect=int(entry["probes_indirect"]),
        events=int(entry["events"]),
        metrics=(
            None if metrics_payload is None else RunMetrics.from_dict(metrics_payload)
        ),
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


def _cache_fetch(
    cache: ResultCache, key: str, spec: SystemSpec, seeds: list[int]
) -> Optional[list[LifetimeOutcome]]:
    """Decoded outcomes for ``key``, or ``None`` on a (possibly
    reclassified) miss."""
    payload = cache.lookup(key)
    if payload is None:
        return None
    try:
        return _outcomes_from_payload(spec, payload, seeds)
    except (KeyError, TypeError, ValueError):
        # A readable entry that doesn't decode to the requested block is
        # as good as corrupt: reclassify the lookup as a miss and let
        # the caller recompute (and overwrite the entry).
        cache.hits -= 1
        cache.misses += 1
        return None


def _dispatch(
    executor: TaskExecutor,
    spec: SystemSpec,
    seeds: list[int],
    max_steps: int,
    batch_size: int,
    build_kwargs: dict,
    scenario: "ScenarioSpec | None" = None,
    cache: Optional[ResultCache] = None,
) -> list[LifetimeOutcome]:
    """Run ``seeds`` through the executor as :class:`ProtocolTask` batches.

    With ``cache`` set, the whole seed block is looked up first — a hit
    skips dispatch entirely — and freshly computed blocks are stored for
    the next run.
    """
    key: Optional[str] = None
    if cache is not None:
        key = cache.key_for(
            _outcome_block_payload(spec, seeds, max_steps, build_kwargs, scenario)
        )
        cached = _cache_fetch(cache, key, spec, seeds)
        if cached is not None:
            return cached
    frozen_kwargs = tuple(sorted(build_kwargs.items()))
    tasks = [
        ProtocolTask(
            spec=spec,
            seeds=batch,
            max_steps=max_steps,
            build_kwargs=frozen_kwargs,
            scenario=scenario,
        )
        for batch in _batched(seeds, batch_size)
    ]
    outcomes: list[LifetimeOutcome] = []
    quarantined = 0
    for batch_outcomes in executor.map(run_protocol_task, tasks):
        if isinstance(batch_outcomes, Quarantined):
            # A supervised executor quarantined this batch: the estimate
            # proceeds on the surviving seeds (the executor already
            # manifested the loss); never cache a block with holes.
            quarantined += 1
            continue
        outcomes.extend(batch_outcomes)
    if cache is not None and key is not None and quarantined == 0:
        cache.store(key, [_outcome_payload(o) for o in outcomes])
    return outcomes


def _splitting_estimate(
    spec: SystemSpec,
    *,
    max_steps: int,
    root_seed: int,
    config: "SplittingConfig | None",
    executor: "TaskExecutor | None",
    workers: int | None,
    scenario: "ScenarioSpec | None",
    cache: Optional[ResultCache],
    build_kwargs: dict,
    extra_events: int = 0,
) -> LifetimeEstimate:
    """Wrap a multilevel-splitting run as a :class:`LifetimeEstimate`.

    The estimate's ``outcomes``/``stats`` come from the splitting pilot
    wave — plain unconditioned runs, bit-identical to what ``"mc"``
    would produce for those seeds — while :attr:`LifetimeEstimate.rare`
    carries the folded rare-event probability.  ``extra_events``
    accounts for Monte-Carlo work a preceding ``"auto"`` attempt spent
    before switching.
    """
    from ..rare.splitting import run_splitting  # deferred: layering

    rare = run_splitting(
        spec,
        root_seed=root_seed,
        max_steps=max_steps,
        config=config,
        executor=executor,
        workers=workers,
        scenario=scenario,
        cache=cache,
        **build_kwargs,
    )
    outcomes = list(rare.pilot_outcomes)
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
        converged=True,
        estimator="splitting",
        rare=rare,
        events=rare.events + extra_events,
    )


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

    Seeds are ``seed0 + i`` (or ``seed_for(i)`` when given), fixed before
    dispatch, and the runs fan out across ``workers`` processes in
    batches of ``batch_size`` seeds — results are bit-identical for any
    worker count or batch size (in precision mode too: streaming rounds
    are sized by the constant :data:`PRECISION_ROUND_SEEDS`, never by
    the fan-out configuration).  Campaign runners can pass a shared
    ``executor`` to reuse one process pool across many estimates; its
    lifetime stays theirs.

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
      (:func:`repro.rare.splitting.run_splitting`, shaped by
      ``splitting=``): the returned estimate's ``outcomes`` are the
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
    if seed_for is None:

        def seed_for(i: int) -> int:
            return seed0 + i

    owns_executor = executor is None
    if executor is None:
        executor = TaskExecutor(workers)
    if estimator == "splitting":
        return _splitting_estimate(
            spec,
            max_steps=max_steps,
            root_seed=seed_for(0),
            config=splitting,
            executor=None if owns_executor else executor,
            workers=workers,
            scenario=scenario,
            cache=cache,
            build_kwargs=build_kwargs,
        )
    if precision is None:
        if trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {trials}")
        seeds = [seed_for(i) for i in range(trials)]
        outcomes = _dispatch(
            executor, spec, seeds, max_steps, batch_size, build_kwargs, scenario, cache
        )
        estimate = _aggregate(spec, outcomes)
        if (
            estimator == "auto"
            and estimate.censored_fraction > max_censored_fraction
        ):
            return _splitting_estimate(
                spec,
                max_steps=max_steps,
                root_seed=seed_for(0),
                config=splitting,
                executor=None if owns_executor else executor,
                workers=workers,
                scenario=scenario,
                cache=cache,
                build_kwargs=build_kwargs,
                extra_events=estimate.events,
            )
        return estimate

    if precision <= 0:
        raise ConfigurationError(f"precision must be positive, got {precision}")
    if not 2 <= min_trials <= max_trials:
        raise ConfigurationError(
            f"need 2 <= min_trials <= max_trials, got {min_trials}, {max_trials}"
        )
    try:
        return _precision_rounds(
            spec,
            executor,
            owns_executor,
            seed_for,
            max_steps=max_steps,
            batch_size=batch_size,
            precision=precision,
            min_trials=min_trials,
            max_trials=max_trials,
            max_censored_fraction=max_censored_fraction,
            scenario=scenario,
            cache=cache,
            build_kwargs=build_kwargs,
        )
    except CensoredPrecisionError as exc:
        if estimator != "auto":
            raise
        # The CI-targeted stopping rule is meaningless on this point;
        # switch to the rare-event estimator, charging the abandoned
        # Monte-Carlo rounds to the estimate.
        return _splitting_estimate(
            spec,
            max_steps=max_steps,
            root_seed=seed_for(0),
            config=splitting,
            executor=None if owns_executor else executor,
            workers=workers,
            scenario=scenario,
            cache=cache,
            build_kwargs=build_kwargs,
            extra_events=sum(o.events for o in exc.outcomes),
        )


def _precision_rounds(
    spec: SystemSpec,
    executor: "TaskExecutor",
    owns_executor: bool,
    seed_for: Callable[[int], int],
    *,
    max_steps: int,
    batch_size: int,
    precision: float,
    min_trials: int,
    max_trials: int,
    max_censored_fraction: float,
    scenario: "ScenarioSpec | None",
    cache: Optional[ResultCache],
    build_kwargs: dict,
) -> LifetimeEstimate:
    """Stream seed rounds until the CI converges (the ``precision=`` path)."""
    round_size = PRECISION_ROUND_SEEDS
    outcomes: list[LifetimeOutcome] = []
    warned_censored = False
    converged = False
    # Hold one pool open across the streaming rounds: early stopping
    # dispatches many small rounds, and paying pool startup per round
    # would swamp the parallel speedup.  (A caller-supplied executor is
    # left open — its owner manages the pool's lifetime.)
    with ExitStack() as stack:
        if owns_executor:
            stack.enter_context(executor)
        while len(outcomes) < max_trials:
            take = min(round_size, max_trials - len(outcomes))
            seeds = [seed_for(len(outcomes) + i) for i in range(take)]
            outcomes.extend(
                _dispatch(
                    executor,
                    spec,
                    seeds,
                    max_steps,
                    batch_size,
                    build_kwargs,
                    scenario,
                    cache,
                )
            )
            if len(outcomes) < min_trials:
                continue
            estimate = _aggregate(spec, outcomes, converged=False)
            if estimate.censored_fraction > max_censored_fraction:
                raise CensoredPrecisionError(
                    f"{spec.label}: {estimate.censored} of {estimate.stats.n} "
                    f"protocol runs were censored at the {max_steps}-step "
                    f"budget (fraction {estimate.censored_fraction:.2f} > "
                    f"{max_censored_fraction:.2f}); the requested precision "
                    "target is meaningless — raise max_steps or drop "
                    "precision=",
                    outcomes=tuple(outcomes),
                )
            if estimate.censored and not warned_censored:
                warnings.warn(
                    f"{spec.label}: {estimate.censored} of {estimate.stats.n} "
                    "protocol runs censored at the step budget; the mean and "
                    "CI are lower bounds on the true lifetime",
                    RuntimeWarning,
                    stacklevel=2,
                )
                warned_censored = True
            scale = max(abs(estimate.stats.mean), 1e-300)
            if estimate.stats.ci_halfwidth <= precision * scale:
                converged = True
                break
    return _aggregate(spec, outcomes, converged=converged)
