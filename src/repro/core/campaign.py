"""Protocol-level campaigns: grids of full-deployment lifetime runs.

The protocol analogue of :mod:`repro.mc.sweeps`: a campaign evaluates
(system × scheme × α × κ) grids of protocol-level lifetimes, fanning
*every* seed of *every* grid point across worker processes through the
generic :class:`repro.mc.executor.TaskExecutor` — parallelism spans the
whole campaign, not one grid point at a time.

Determinism contract: every seed is derived before dispatch with
:func:`repro.mc.executor.derive_point_seed` from the root seed, the grid
point's index and the trial index, so campaign results are bit-identical
for any worker count or batch size (including the serial fallback, and
including mid-campaign pool breakage).

``precision=`` switches each grid point from a fixed seed count to
CI-width-targeted early stopping (see
:func:`repro.core.experiment.estimate_protocol_lifetime` for the
censoring rules that guard it).
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from ..cache import ResultCache
from ..errors import ConfigurationError, ReproError
from ..randomization.obfuscation import Scheme
from ..supervision.policy import Quarantined, SupervisionPolicy, TaskFailure
from ..supervision.signals import deliver_sigterm_as_interrupt
from ..telemetry.registry import MetricsRegistry, MetricsSnapshot, fold_run_metrics
from ..telemetry.spans import span
from .experiment import (
    DEFAULT_MAX_CENSORED,
    DEFAULT_SEED_BATCH,
    CensoredPrecisionError,
    LifetimeEstimate,
    ProtocolTask,
    _aggregate,
    _batched,
    _cache_fetch,
    _outcome_block_payload,
    _outcome_payload,
    estimate_protocol_lifetime,
    run_protocol_task,
)
from .specs import SystemClass, SystemSpec
from .timing import TimingSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..mc.executor import TaskExecutor
    from ..rare.splitting import SplittingConfig
    from ..scenarios.spec import ScenarioSpec
    from ..supervision.chaos import ChaosSpec
    from ..telemetry.progress import ProgressReporter


@dataclass(frozen=True)
class CampaignResult:
    """All grid points of one protocol campaign, in grid order.

    ``cache_hits`` / ``cache_misses`` count result-cache lookups made by
    this campaign (``None`` when it ran without a cache).
    ``estimator`` records the campaign-level request (per-point
    estimates carry what each point actually used — an ``"auto"``
    campaign mixes ``"mc"`` and ``"splitting"`` rows).  ``wall_seconds``
    is the campaign's wall-clock time; unlike everything else in the
    result it is *not* reproducible and stays out of cache keys.
    """

    estimates: tuple[LifetimeEstimate, ...]
    root_seed: int
    trials: int
    max_steps: int
    cache_hits: Optional[int] = None
    cache_misses: Optional[int] = None
    estimator: str = "mc"
    wall_seconds: Optional[float] = None
    supervised: bool = False
    failures: tuple[TaskFailure, ...] = ()
    retries: int = 0
    timeouts: int = 0

    def __len__(self) -> int:
        return len(self.estimates)

    def __iter__(self):
        return iter(self.estimates)

    @property
    def specs(self) -> list[SystemSpec]:
        return [e.spec for e in self.estimates]

    @property
    def total_runs(self) -> int:
        """Protocol runs executed across the whole campaign."""
        return sum(e.stats.n for e in self.estimates)

    @property
    def total_censored(self) -> int:
        return sum(e.censored for e in self.estimates)

    @property
    def total_events(self) -> int:
        """Simulator events executed across the whole campaign."""
        return sum(e.events for e in self.estimates)

    @property
    def quarantined(self) -> int:
        """Tasks quarantined by supervision (see :attr:`failures`)."""
        return len(self.failures)

    def metrics_snapshot(self) -> MetricsSnapshot:
        """Fold the whole campaign into one frozen metrics snapshot.

        Computed on demand from the retained per-run samples plus the
        cache / supervision / rare-event tallies the result
        already carries.  Counter totals are fan-out-invariant: per-run
        samples merge by addition, so the same campaign snapshotted
        under any worker count, batch size or dispatch order reports
        identical totals.  (Cache hit/miss counters describe *this*
        execution — a warm re-run legitimately differs there.)
        """
        registry = MetricsRegistry()
        outcomes = [o for e in self.estimates for o in e.outcomes]
        run_totals = fold_run_metrics(o.metrics for o in outcomes)
        counters = registry.counter
        counters("runs_total").inc(self.total_runs)
        counters("runs_censored").inc(self.total_censored)
        counters("events_executed").inc(self.total_events)
        for name, value in run_totals.as_dict().items():
            if name == "events_executed":
                continue  # total_events above also covers splitting waves
            counters(f"sim_{name}").inc(value)
        if self.cache_hits is not None:
            counters("cache_hits").inc(self.cache_hits)
            counters("cache_misses").inc(self.cache_misses or 0)
        if self.supervised:
            counters("supervision_retries").inc(self.retries)
            counters("supervision_timeouts").inc(self.timeouts)
            counters("supervision_quarantined").inc(self.quarantined)
        rare_estimates = [e for e in self.estimates if e.rare is not None]
        if rare_estimates:
            counters("rare_points").inc(len(rare_estimates))
            counters("rare_replications").inc(
                sum(e.rare.replications for e in rare_estimates)
            )
            counters("rare_trajectories").inc(
                sum(e.rare.trajectories for e in rare_estimates)
            )
        registry.gauge("grid_points").set(len(self.estimates))
        if self.wall_seconds is not None:
            registry.gauge("wall_seconds").set(self.wall_seconds)
            if self.wall_seconds > 0:
                registry.gauge("events_per_second").set(
                    self.total_events / self.wall_seconds
                )
        steps = registry.histogram("steps_survived")
        for outcome in outcomes:
            steps.observe(outcome.steps)
        return registry.snapshot()


class CampaignInterrupted(ReproError):
    """A campaign was interrupted (Ctrl-C / SIGTERM) after partial work.

    Carries the partial :class:`CampaignResult` built from every grid
    point that had fully completed at the moment of interruption.  With
    a result cache those points are already stored, so re-running the
    same campaign against the same cache dispatches none of them again.
    """

    def __init__(self, message: str, partial: CampaignResult) -> None:
        super().__init__(message)
        self.partial = partial


def campaign_record(
    result: CampaignResult,
    *,
    timing: Optional[TimingSpec] = None,
    timing_preset: Optional[str] = None,
    scenario: "ScenarioSpec | None" = None,
    metrics: Optional[MetricsSnapshot] = None,
) -> dict:
    """Serialize a campaign as a diffable JSON-ready record.

    The schema mirrors the BENCH records under ``benchmarks/results/``
    (one row per grid point with the protocol mean, 95% CI, censoring
    and Kaplan-Meier summary), so sweep outputs and bench outputs diff
    against each other.  ``timing`` / ``timing_preset`` document the
    :class:`~repro.core.timing.TimingSpec` the campaign ran under;
    ``scenario`` embeds the full scenario spec (name + composition) so
    a scenario campaign record is self-describing and reproducible.
    ``metrics`` (usually ``result.metrics_snapshot()``) embeds the
    telemetry snapshot — opt-in, so records stay diffable against
    pre-telemetry baselines unless the caller asks for it.
    """
    rows = []
    for estimate in result.estimates:
        spec = estimate.spec
        row = {
            "label": spec.label,
            "system": spec.system.value,
            "scheme": spec.scheme.name,
            "alpha": spec.alpha,
            "kappa": spec.kappa,
            "entropy_bits": spec.entropy_bits,
            "runs": estimate.stats.n,
            "protocol_mean": estimate.mean_steps,
            "protocol_ci": [estimate.stats.ci_low, estimate.stats.ci_high],
            "std": estimate.stats.std,
            "min": estimate.stats.minimum,
            "max": estimate.stats.maximum,
            "censored": estimate.censored,
            "censored_fraction": estimate.censored_fraction,
            "km_mean": estimate.km_mean_steps,
            "converged": estimate.converged,
            "estimator": estimate.estimator,
            "events": estimate.events,
        }
        rare = estimate.rare
        if rare is not None:
            row["rare"] = {
                "probability": rare.probability,
                "ci": [rare.ci_low, rare.ci_high],
                "levels": list(rare.levels),
                "level_stats": [
                    {"level": s.level, "n": s.n, "crossed": s.crossed}
                    for s in rare.level_stats
                ],
                "replications": rare.replications,
                "trajectories": rare.trajectories,
                "pilot_runs": rare.pilot_runs,
            }
        rows.append(row)
    record = {
        "benchmark": "protocol_campaign",
        "root_seed": result.root_seed,
        "trials_per_point": result.trials,
        "max_steps": result.max_steps,
        "grid_points": len(result),
        "total_runs": result.total_runs,
        "total_censored": result.total_censored,
        "total_events": result.total_events,
        "estimator": result.estimator,
        "rows": rows,
    }
    if result.wall_seconds is not None:
        record["wall_seconds"] = result.wall_seconds
    if timing_preset is not None:
        record["timing_preset"] = timing_preset
    if timing is not None:
        record["timing"] = timing.as_dict()
    if scenario is not None:
        record["scenario"] = scenario.name
        record["scenario_spec"] = scenario.as_dict()
    if result.cache_hits is not None:
        record["cache"] = {
            "hits": result.cache_hits,
            "misses": result.cache_misses,
        }
    if result.supervised:
        record["supervision"] = {
            "retries": result.retries,
            "timeouts": result.timeouts,
            "quarantined": result.quarantined,
            "failures": [failure.as_dict() for failure in result.failures],
        }
    if metrics is not None:
        record["metrics"] = metrics.as_dict()
    return record


def campaign_grid(
    systems: Sequence[SystemClass] = tuple(SystemClass),
    schemes: Sequence[Scheme] = (Scheme.PO, Scheme.SO),
    alphas: Sequence[float] = (0.1,),
    kappas: Sequence[float] = (0.5,),
    entropy_bits: int = 8,
    **spec_kwargs,
) -> list[SystemSpec]:
    """Build the (system × scheme × α × κ) spec grid of a campaign.

    κ only parameterizes S2 (Definition 5), so S0/S1 points are emitted
    once per (scheme, α) instead of once per κ — the grid never contains
    duplicate specs.
    """
    if not systems or not schemes or not alphas:
        raise ConfigurationError("campaign grid axes must be non-empty")
    if not kappas and SystemClass.S2 in systems:
        raise ConfigurationError("S2 campaigns need a non-empty kappa grid")
    specs: list[SystemSpec] = []
    for system in systems:
        for scheme in schemes:
            for alpha in alphas:
                effective_kappas = kappas if system is SystemClass.S2 else (0.5,)
                for kappa in effective_kappas:
                    specs.append(
                        SystemSpec(
                            system=system,
                            scheme=scheme,
                            alpha=alpha,
                            kappa=kappa,
                            entropy_bits=entropy_bits,
                            **spec_kwargs,
                        )
                    )
    return specs


def _campaign_executor(
    workers: int | None,
    supervision: Optional[SupervisionPolicy],
    chaos: "ChaosSpec | None",
) -> "TaskExecutor":
    """The campaign's executor, supervised when a policy or chaos is set.

    A chaos spec wraps the plain backend for the worker count in a
    :class:`~repro.supervision.ChaosBackend`; the executor's
    :attr:`~repro.mc.executor.TaskExecutor.manifest` accumulates across
    every round of the campaign.
    """
    from ..mc.executor import TaskExecutor, backend_for, resolve_workers

    resolved = resolve_workers(workers)
    if supervision is None and chaos is None:
        return TaskExecutor(resolved)
    backend = backend_for(resolved)
    if chaos is not None:
        from ..supervision.chaos import ChaosBackend

        backend = ChaosBackend(chaos, backend)
    policy = supervision if supervision is not None else SupervisionPolicy()
    return TaskExecutor(resolved, backend=backend, policy=policy)


def _kept_note(cache: Optional[ResultCache]) -> str:
    """What an interrupted campaign left on disk, for its message."""
    if cache is None:
        return "nothing was kept on disk"
    return "completed grid points are in the result cache"


def run_campaign(
    specs: Sequence[SystemSpec],
    trials: int = 20,
    max_steps: int = 300,
    seed: int = 0,
    *,
    workers: int | None = None,
    batch_size: int = DEFAULT_SEED_BATCH,
    precision: Optional[float] = None,
    min_trials: int = 20,
    max_trials: int = 2_000,
    max_censored_fraction: float = DEFAULT_MAX_CENSORED,
    scenario: "ScenarioSpec | None" = None,
    cache: Optional[ResultCache] = None,
    estimator: str = "mc",
    splitting: "SplittingConfig | None" = None,
    supervision: Optional[SupervisionPolicy] = None,
    chaos: "ChaosSpec | None" = None,
    manifest_path: Path | str | None = None,
    progress: "ProgressReporter | None" = None,
    **build_kwargs,
) -> CampaignResult:
    """Protocol-level lifetimes for every spec of a campaign grid.

    Fixed-count campaigns flatten all (spec, seed-batch) tasks into one
    executor pass, so workers stay busy across grid-point boundaries;
    ``precision=`` campaigns stream each grid point through
    :func:`~repro.core.experiment.estimate_protocol_lifetime` (early
    stopping needs the accumulating CI between rounds).  ``scenario``
    composes every run through the scenario runtime (most callers use
    :func:`run_scenario_campaign`, which also derives the grid).

    ``cache`` consults a :class:`~repro.cache.ResultCache` per grid
    point (fixed-count) or per streaming round (precision): cached
    points skip dispatch entirely — a fully warm fixed-count campaign
    submits zero tasks — and the result reports hit/miss counts.
    Because every seed is derived before dispatch, cached and
    recomputed campaigns are bit-identical.  The cache is also the
    campaign's only durable store: a fixed-count grid point is stored
    the moment its last task lands, so an interrupted or killed campaign
    resumes when the same call runs again against the same cache.

    ``estimator`` selects how censor-heavy grid points are handled (see
    :func:`~repro.core.experiment.estimate_protocol_lifetime`):
    ``"splitting"`` runs every point through the rare-event engine;
    ``"auto"`` runs plain Monte-Carlo and re-estimates the points whose
    censored fraction exceeds ``max_censored_fraction`` with
    multilevel splitting (their Monte-Carlo events stay charged to the
    replacement estimate).

    ``supervision`` (a :class:`~repro.supervision.SupervisionPolicy`)
    and/or ``chaos`` (a :class:`~repro.supervision.ChaosSpec`) supervise
    the executor: task failures are retried on a seed-derived backoff
    schedule, hung tasks time out, and poison tasks are quarantined into
    the campaign's failure manifest (surfaced as
    :attr:`CampaignResult.failures` and, with ``manifest_path``, written
    to disk) instead of killing the campaign.  Because retries replay
    exact per-task seeds, a supervised campaign under any recoverable
    fault pattern is bit-identical to the fault-free run; grid points
    that lose tasks to quarantine estimate from the surviving runs (or
    are dropped, with a warning, when nothing survives) and are never
    cache-stored.

    ``KeyboardInterrupt`` and ``SIGTERM`` raise
    :class:`CampaignInterrupted` carrying the completed grid points.

    ``progress`` (a :class:`~repro.telemetry.progress.ProgressReporter`)
    streams live runs-completed / CI-width / censoring / events-per-sec
    lines off the same result path — pure observation, so progress-on
    and progress-off campaigns are bit-identical.
    """
    from ..mc.executor import TaskExecutor, derive_point_seed  # avoids cycle

    start = time.perf_counter()
    specs = list(specs)
    if not specs:
        raise ConfigurationError("campaign needs at least one spec")
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    if estimator not in ("mc", "splitting", "auto"):
        raise ConfigurationError(
            f"estimator must be 'mc', 'splitting' or 'auto', got {estimator!r}"
        )
    hits_before = cache.hits if cache is not None else 0
    misses_before = cache.misses if cache is not None else 0
    executor = _campaign_executor(workers, supervision, chaos)
    manifest = executor.manifest

    def build_result(estimates: list, *, trials_out: int) -> CampaignResult:
        return CampaignResult(
            estimates=tuple(estimates),
            root_seed=seed,
            trials=trials_out,
            max_steps=max_steps,
            cache_hits=cache.hits - hits_before if cache is not None else None,
            cache_misses=(
                cache.misses - misses_before if cache is not None else None
            ),
            estimator=estimator,
            wall_seconds=time.perf_counter() - start,
            supervised=manifest is not None,
            failures=tuple(manifest.failures) if manifest is not None else (),
            retries=manifest.retries if manifest is not None else 0,
            timeouts=manifest.timeouts if manifest is not None else 0,
        )

    def write_manifest() -> None:
        if manifest is not None and manifest_path is not None:
            manifest.write(manifest_path)

    def progress_update(outcomes) -> None:
        if progress is not None:
            progress.update(outcomes)

    def progress_finish() -> None:
        if progress is not None:
            progress.finish()

    if precision is not None or estimator == "splitting":
        estimates = []
        # One pool serves every grid point — paying pool startup per
        # point would swamp the parallel speedup on larger grids.
        # (Pure-splitting campaigns stream per point too: each point is
        # one folded estimate, not a flat fan-out of seed batches.)
        trials_out = 0 if precision is not None else trials
        if progress is not None:
            progress.begin(None)  # streaming rounds: no fixed run count
        try:
            with deliver_sigterm_as_interrupt(), executor:
                for i, spec in enumerate(specs):
                    try:
                        with span("campaign.point", index=i, label=spec.label):
                            estimate = estimate_protocol_lifetime(
                                spec,
                                trials=trials,
                                max_steps=max_steps,
                                batch_size=batch_size,
                                precision=precision,
                                min_trials=min_trials,
                                max_trials=max_trials,
                                max_censored_fraction=max_censored_fraction,
                                seed_for=lambda j, i=i: derive_point_seed(
                                    seed, i, j
                                ),
                                executor=executor,
                                scenario=scenario,
                                cache=cache,
                                estimator=estimator,
                                splitting=splitting,
                                **build_kwargs,
                            )
                    except CensoredPrecisionError as exc:
                        # One heavily censored grid point must not discard
                        # the rest of the campaign: keep the outcomes it
                        # already simulated as an unconverged lower-bound
                        # estimate (censored runs burn the whole step
                        # budget — the last thing to do is simulate them
                        # twice) and move on.  (estimator="auto" never gets
                        # here — it re-estimates such points by splitting.)
                        warnings.warn(
                            f"campaign point {i} refused its precision target "
                            f"({exc}); reporting the {len(exc.outcomes)} runs "
                            "already simulated as a lower-bound estimate "
                            "instead",
                            RuntimeWarning,
                            stacklevel=2,
                        )
                        estimate = _aggregate(
                            spec, list(exc.outcomes), converged=False
                        )
                    estimates.append(estimate)
                    progress_update(estimate.outcomes)
        except KeyboardInterrupt:
            progress_finish()
            write_manifest()
            raise CampaignInterrupted(
                f"campaign interrupted with {len(estimates)} of "
                f"{len(specs)} grid points complete ({_kept_note(cache)})",
                build_result(estimates, trials_out=trials_out),
            ) from None
        progress_finish()
        write_manifest()
        return build_result(estimates, trials_out=trials_out)

    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    if progress is not None:
        progress.begin(len(specs) * trials)
    frozen_kwargs = tuple(sorted(build_kwargs.items()))
    tasks: list[ProtocolTask] = []
    owners: list[int] = []
    per_spec: list[list] = [[] for _ in specs]
    # Cache keys of the grid points whose seed block missed; each is
    # stored as soon as its last task lands.  One entry covers a point's
    # whole seed block, so a fully warm campaign scores exactly one hit
    # per grid point — and builds no tasks at all.
    point_keys: dict[int, str] = {}
    # Task indices of each grid point, in seed order.
    point_tasks: dict[int, range] = {}
    with span("campaign.prepare", grid_points=len(specs), trials=trials):
        for i, spec in enumerate(specs):
            point_seeds = [derive_point_seed(seed, i, j) for j in range(trials)]
            if cache is not None:
                key = cache.key_for(
                    _outcome_block_payload(
                        spec, point_seeds, max_steps, build_kwargs, scenario
                    )
                )
                cached = _cache_fetch(cache, key, spec, point_seeds)
                if cached is not None:
                    per_spec[i] = cached
                    progress_update(cached)
                    continue
                point_keys[i] = key
            first = len(tasks)
            for batch in _batched(point_seeds, batch_size):
                tasks.append(
                    ProtocolTask(
                        spec=spec,
                        seeds=batch,
                        max_steps=max_steps,
                        build_kwargs=frozen_kwargs,
                        scenario=scenario,
                    )
                )
                owners.append(i)
            point_tasks[i] = range(first, len(tasks))

    # Tasks still out per grid point.  A quarantined task never counts
    # down, so its point is never stored (and reads as incomplete).
    left = [len(point_tasks.get(i, ())) for i in range(len(specs))]
    task_results: list = [None] * len(tasks)

    def collect(ti: int, result) -> None:
        task_results[ti] = result
        if isinstance(result, Quarantined):
            return
        progress_update(result)
        i = owners[ti]
        left[i] -= 1
        if left[i] == 0 and i in point_keys:
            block = [o for tj in point_tasks[i] for o in task_results[tj]]
            cache.store(point_keys[i], [_outcome_payload(o) for o in block])

    interrupted = False
    if tasks:
        try:
            with deliver_sigterm_as_interrupt(), span(
                "campaign.dispatch", tasks=len(tasks)
            ):
                executor.map(run_protocol_task, tasks, on_result=collect)
        except KeyboardInterrupt:
            interrupted = True

    # Fold task results back per grid point, in task (= seed) order;
    # quarantined points keep their surviving runs.
    with span("campaign.fold", tasks=len(task_results)):
        for ti, result in enumerate(task_results):
            if result is not None and not isinstance(result, Quarantined):
                per_spec[owners[ti]].extend(result)

    if interrupted:
        complete = [i for i in range(len(specs)) if not left[i]]
        progress_finish()
        write_manifest()
        raise CampaignInterrupted(
            f"campaign interrupted with {len(complete)} of {len(specs)} "
            f"grid points complete ({_kept_note(cache)})",
            build_result(
                [_aggregate(specs[i], per_spec[i]) for i in complete],
                trials_out=trials,
            ),
        ) from None

    # (spec index, estimate) pairs: quarantine can drop grid points, so
    # the auto re-pass below must not assume estimates align with specs.
    indexed_estimates: list[tuple[int, LifetimeEstimate]] = []
    for i, spec in enumerate(specs):
        if left[i]:
            if per_spec[i]:
                warnings.warn(
                    f"grid point {i} ({spec.label}) lost quarantined "
                    f"tasks; its estimate uses the {len(per_spec[i])} "
                    "surviving runs (see the failure manifest)",
                    RuntimeWarning,
                    stacklevel=2,
                )
            else:
                warnings.warn(
                    f"grid point {i} ({spec.label}) was fully quarantined; "
                    "dropped from the campaign estimates (see the failure "
                    "manifest)",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
        indexed_estimates.append((i, _aggregate(spec, per_spec[i])))
    if estimator == "auto":
        needy = [
            k
            for k, (_, estimate) in enumerate(indexed_estimates)
            if estimate.censored_fraction > max_censored_fraction
        ]
        if needy:
            # Censor-heavy points get a second pass through the
            # rare-event engine; the Monte-Carlo events already spent
            # stay charged to the replacement estimate so the campaign's
            # cost accounting is honest.
            with TaskExecutor(workers) as shared_executor:
                for k in needy:
                    i, mc_estimate = indexed_estimates[k]
                    refined = estimate_protocol_lifetime(
                        specs[i],
                        max_steps=max_steps,
                        seed_for=lambda j, i=i: derive_point_seed(seed, i, j),
                        executor=shared_executor,
                        scenario=scenario,
                        cache=cache,
                        estimator="splitting",
                        splitting=splitting,
                        **build_kwargs,
                    )
                    indexed_estimates[k] = (
                        i,
                        replace(
                            refined, events=refined.events + mc_estimate.events
                        ),
                    )
    progress_finish()
    write_manifest()
    return build_result(
        [estimate for _, estimate in indexed_estimates], trials_out=trials
    )


def run_scenario_campaign(
    scenario: "ScenarioSpec",
    trials: int = 20,
    max_steps: int = 300,
    seed: int = 0,
    *,
    workers: int | None = None,
    batch_size: int = DEFAULT_SEED_BATCH,
    precision: Optional[float] = None,
    min_trials: int = 20,
    max_trials: int = 2_000,
    max_censored_fraction: float = DEFAULT_MAX_CENSORED,
    cache: Optional[ResultCache] = None,
    estimator: str = "mc",
    splitting: "SplittingConfig | None" = None,
    supervision: Optional[SupervisionPolicy] = None,
    chaos: "ChaosSpec | None" = None,
    manifest_path: Path | str | None = None,
    progress: "ProgressReporter | None" = None,
    **build_kwargs,
) -> CampaignResult:
    """Run one named scenario as a protocol campaign.

    The grid comes from the scenario itself
    (:meth:`~repro.scenarios.spec.ScenarioSpec.grid`), and every run is
    composed by the scenario runtime: scenario timing, adversary
    strategy, per-seed fault plan, workload.  The scenario travels
    inside each :class:`~repro.core.experiment.ProtocolTask`, so the
    whole campaign fans out through the same
    :class:`~repro.mc.executor.TaskExecutor` machinery with the same
    worker/batch-invariant per-seed derivation as a plain campaign.
    """
    return run_campaign(
        scenario.grid(),
        trials=trials,
        max_steps=max_steps,
        seed=seed,
        workers=workers,
        batch_size=batch_size,
        precision=precision,
        min_trials=min_trials,
        max_trials=max_trials,
        max_censored_fraction=max_censored_fraction,
        scenario=scenario,
        cache=cache,
        estimator=estimator,
        splitting=splitting,
        supervision=supervision,
        chaos=chaos,
        manifest_path=manifest_path,
        progress=progress,
        **build_kwargs,
    )
