"""Protocol-level campaigns: grids of full-deployment lifetime runs.

The protocol analogue of :mod:`repro.mc.sweeps`: a campaign evaluates
(system × scheme × α × κ) grids of protocol-level lifetimes.  Every
campaign kind — fixed-count, ``precision=``, ``estimator="splitting"``
and ``"auto"`` — runs the one round loop of
:mod:`repro.core.experiment` inside one executor scope: each round fans
one seed block per still-active grid point across worker processes in
a single :class:`repro.mc.executor.TaskExecutor` pass, so parallelism
spans the whole grid, not one grid point at a time.

Determinism contract: every seed is derived before dispatch with
:func:`repro.mc.executor.derive_point_seeds` from the root seed, the grid
point's index and the trial index (a block of trial indices per round),
so campaign results are bit-identical for any worker count or batch size
(including the serial fallback, and including mid-campaign pool
breakage), and each grid point's estimate equals
:func:`~repro.core.experiment.estimate_protocol_lifetime` run on that
point alone with the same seeds.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from ..cache import ResultCache
from ..errors import ConfigurationError, ReproError
from ..mc.executor import TaskExecutor, backend_for, derive_point_seeds, resolve_workers
from ..randomization.obfuscation import Scheme
from ..supervision.policy import SupervisionPolicy, TaskFailure
from ..supervision.signals import deliver_sigterm_as_interrupt
from ..telemetry.registry import MetricsSnapshot, fold_run_metrics, histogram
from .experiment import (
    DEFAULT_MAX_CENSORED,
    DEFAULT_SEED_BATCH,
    LifetimeEstimate,
    _aggregate,
    _estimate_points,
    _Point,
    _Rules,
)
from .specs import SystemClass, SystemSpec
from .timing import TimingSpec

if TYPE_CHECKING:  # pragma: no cover
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
        outcomes = [o for e in self.estimates for o in e.outcomes]
        run_totals = fold_run_metrics(o.metrics for o in outcomes).as_dict()
        # total_events also covers splitting waves, so it stands in for
        # the per-run events_executed sum.
        del run_totals["events_executed"]
        counters = {
            "runs_total": self.total_runs,
            "runs_censored": self.total_censored,
            "events_executed": self.total_events,
            **{f"sim_{name}": value for name, value in run_totals.items()},
        }
        if self.cache_hits is not None:
            counters["cache_hits"] = self.cache_hits
            counters["cache_misses"] = self.cache_misses or 0
        if self.supervised:
            counters["supervision_retries"] = self.retries
            counters["supervision_timeouts"] = self.timeouts
            counters["supervision_quarantined"] = self.quarantined
        rare_estimates = [e.rare for e in self.estimates if e.rare is not None]
        if rare_estimates:
            counters["rare_points"] = len(rare_estimates)
            counters["rare_replications"] = sum(r.replications for r in rare_estimates)
            counters["rare_trajectories"] = sum(r.trajectories for r in rare_estimates)
        gauges = {"grid_points": float(len(self.estimates))}
        if self.wall_seconds is not None:
            gauges["wall_seconds"] = float(self.wall_seconds)
            if self.wall_seconds > 0:
                gauges["events_per_second"] = self.total_events / self.wall_seconds
        return MetricsSnapshot(
            counters=dict(sorted(counters.items())),
            gauges=dict(sorted(gauges.items())),
            histograms={"steps_survived": histogram(o.steps for o in outcomes)},
        )


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


def _reported_estimates(points: list[_Point]) -> list[LifetimeEstimate]:
    """The finished points' estimates, in grid order.

    The one place a campaign turns precision refusal and quarantine into
    warnings.  A refused point keeps the runs it already simulated as an
    unconverged lower-bound estimate (censored runs burn the whole step
    budget — the last thing to do is simulate them twice); a point that
    lost tasks estimates from its surviving runs; a point with none is
    dropped.  Points an interrupt left unfinished are skipped.
    """
    estimates = []
    for i, point in enumerate(points):
        spec = point.spec
        if not point.done or point.split:
            continue
        if point.refused is not None:
            warnings.warn(
                f"campaign point {i} refused its precision target "
                f"({point.refused}); reporting the {len(point.outcomes)} runs "
                "already simulated as a lower-bound estimate instead",
                RuntimeWarning,
                stacklevel=3,
            )
            estimates.append(_aggregate(spec, point.outcomes, converged=False))
            continue
        if point.estimate is None:
            warnings.warn(
                f"grid point {i} ({spec.label}) was fully quarantined; "
                "dropped from the campaign estimates (see the failure "
                "manifest)",
                RuntimeWarning,
                stacklevel=3,
            )
            continue
        if point.lost:
            warnings.warn(
                f"grid point {i} ({spec.label}) lost quarantined "
                f"tasks; its estimate uses the {point.estimate.stats.n} "
                "surviving runs (see the failure manifest)",
                RuntimeWarning,
                stacklevel=3,
            )
        estimates.append(point.estimate)
    return estimates


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

    Every campaign kind runs the same round loop
    (:func:`repro.core.experiment._estimate_points`) inside one executor
    scope: each round gathers one seed block per still-active grid point
    into a single executor pass, so workers stay busy across grid-point
    boundaries.  A fixed-count point's only block is its whole ``trials``
    seeds; with ``precision=`` every point streams blocks of
    :data:`~repro.core.experiment.PRECISION_ROUND_SEEDS` seeds until its
    own stop rule fires (see
    :func:`~repro.core.experiment.estimate_protocol_lifetime`), and the
    points still streaming share each round.  ``scenario`` composes
    every run through the scenario runtime (most callers use
    :func:`run_scenario_campaign`, which also derives the grid).

    ``cache`` consults a :class:`~repro.cache.ResultCache` per seed
    block: cached blocks skip dispatch entirely — a fully warm
    campaign submits zero tasks — and the result reports hit/miss
    counts.  Because every seed is derived before dispatch, cached and
    recomputed campaigns are bit-identical.  The cache is also the
    campaign's only durable store: a block is stored the moment its last
    task lands, so an interrupted or killed campaign resumes when the
    same call runs again against the same cache.

    ``estimator`` selects how censor-heavy grid points are handled (see
    :func:`~repro.core.experiment.estimate_protocol_lifetime`):
    ``"splitting"`` runs every point through the rare-event engine;
    ``"auto"`` runs plain Monte-Carlo and re-estimates the points whose
    censored fraction exceeds ``max_censored_fraction`` with
    multilevel splitting on the same executor (their Monte-Carlo events
    stay charged to the replacement estimate).  Without ``"auto"``, a
    precision point that refuses its target is reported, with a warning,
    as an unconverged lower-bound estimate of the runs already simulated.

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
    are dropped, with a warning, when nothing survives) and their
    blocks are never cache-stored.

    ``KeyboardInterrupt`` and ``SIGTERM`` raise
    :class:`CampaignInterrupted` carrying the completed grid points.

    ``progress`` (a :class:`~repro.telemetry.progress.ProgressReporter`)
    streams live runs-completed / CI-width / censoring / events-per-sec
    lines off the same result path — pure observation, so progress-on
    and progress-off campaigns are bit-identical.
    """
    start = time.perf_counter()
    specs = list(specs)
    if not specs:
        raise ConfigurationError("campaign needs at least one spec")
    rules = _Rules(
        trials=trials,
        max_steps=max_steps,
        batch_size=batch_size,
        precision=precision,
        min_trials=min_trials,
        max_trials=max_trials,
        max_censored_fraction=max_censored_fraction,
        estimator=estimator,
        splitting=splitting,
        scenario=scenario,
        build_kwargs=tuple(sorted(build_kwargs.items())),
    )
    hits_before = cache.hits if cache is not None else 0
    misses_before = cache.misses if cache is not None else 0
    executor = _campaign_executor(workers, supervision, chaos)
    manifest = executor.manifest
    points = [
        _Point(spec, partial(derive_point_seeds, seed, i))
        for i, spec in enumerate(specs)
    ]
    if progress is not None:
        # Only a plain fixed-count campaign knows its run count upfront.
        fixed = precision is None and estimator == "mc"
        progress.begin(len(specs) * trials if fixed else None)
    try:
        with deliver_sigterm_as_interrupt(), executor:
            _estimate_points(
                executor,
                points,
                rules,
                cache,
                on_outcomes=progress.update if progress is not None else None,
            )
    except KeyboardInterrupt:
        interrupted = True
    else:
        interrupted = False
    if progress is not None:
        progress.finish()
    if manifest is not None and manifest_path is not None:
        manifest.write(manifest_path)
    result = CampaignResult(
        estimates=tuple(_reported_estimates(points)),
        root_seed=seed,
        trials=0 if precision is not None else trials,
        max_steps=max_steps,
        cache_hits=cache.hits - hits_before if cache is not None else None,
        cache_misses=cache.misses - misses_before if cache is not None else None,
        estimator=estimator,
        wall_seconds=time.perf_counter() - start,
        supervised=manifest is not None,
        failures=tuple(manifest.failures) if manifest is not None else (),
        retries=manifest.retries if manifest is not None else 0,
        timeouts=manifest.timeouts if manifest is not None else 0,
    )
    if interrupted:
        raise CampaignInterrupted(
            f"campaign interrupted with {len(result)} of {len(specs)} grid "
            f"points complete ({_kept_note(cache)})",
            result,
        ) from None
    return result


def run_scenario_campaign(scenario: "ScenarioSpec", *args, **options) -> CampaignResult:
    """Run one named scenario as a protocol campaign.

    The grid comes from the scenario itself
    (:meth:`~repro.scenarios.spec.ScenarioSpec.grid`), and every run is
    composed by the scenario runtime: scenario timing, adversary
    strategy, per-seed fault plan, workload.  The scenario travels
    inside each :class:`~repro.core.experiment.ProtocolTask`, so the
    whole campaign fans out through the same round loop with the same
    worker/batch-invariant per-seed derivation as a plain campaign.
    Positional and keyword arguments are those of :func:`run_campaign`.
    """
    # Load the scenario run path here, before a pool forks, so that no
    # worker of any pool imports it again.
    from ..attacker import strategies  # noqa: F401
    from ..scenarios import runtime  # noqa: F401

    return run_campaign(scenario.grid(), *args, scenario=scenario, **options)
