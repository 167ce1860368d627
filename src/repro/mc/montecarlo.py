"""Monte-Carlo estimation of expected lifetimes.

Thin runner over the samplers in :mod:`repro.mc.models`: draws trials,
summarizes them with a 95% confidence interval, and exposes the same
Definition-7 lifetime convention as the analytic formulas so the two can
be compared term by term.  Every runner draws through the models'
chunked ``sample_batch`` engine path.

Passing ``precision=`` switches from a fixed trial count to streaming
accumulation with CI-width-based early stopping
(:func:`estimate_to_precision`): batches fold into a
:class:`~repro.mc.executor.StreamingMoments` accumulator until the 95%
interval half-width falls below ``precision × |mean|`` or the trial
budget runs out.

Sweeps fan their grid points out as :class:`MCTask` objects through the
generic :class:`~repro.mc.executor.TaskExecutor`
(``TaskExecutor(workers).map(run_task, tasks)``).  The sweeps assign
per-point seeds as simple root-seed offsets (preserving the pre-engine
seed layout); that is already deterministic and worker-count
independent, and ``np.random.default_rng`` hashes integer seeds through
``SeedSequence``, so adjacent offsets still get decorrelated PCG64
streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.specs import SystemSpec
from ..core.timing import TimingSpec
from ..errors import ConfigurationError
from ..metrics.stats import SummaryStats, Z_95
from .executor import StreamingMoments
from .models import LifetimeModel, model_for

#: Trials drawn per streaming batch (small enough to stop promptly once
#: the target precision is reached, large enough to amortize dispatch).
DEFAULT_BATCH = 16_384


@dataclass(frozen=True)
class MCEstimate:
    """A Monte-Carlo expected-lifetime estimate.

    Attributes
    ----------
    label:
        Short system label (``"S2PO"`` etc.).
    spec:
        The spec sampled.
    stats:
        Mean / CI / spread of the sampled lifetimes.
    trials:
        Number of trials drawn.
    converged:
        ``False`` only for precision-targeted runs that hit their trial
        budget before reaching the requested CI half-width.
    """

    label: str
    spec: SystemSpec
    stats: SummaryStats
    trials: int
    converged: bool = True

    @property
    def mean(self) -> float:
        """Mean whole steps survived."""
        return self.stats.mean

    def within_ci(self, value: float) -> bool:
        """Whether ``value`` lies inside the 95% interval."""
        return self.stats.ci_low <= value <= self.stats.ci_high


def summarize_array(values: np.ndarray) -> SummaryStats:
    """95% normal-interval summary of a sample array.

    Single-sample arrays carry an infinite CI half-width (one draw has
    no spread information — see :func:`repro.metrics.stats.summarize`).
    """
    n = int(values.size)
    mean = float(values.mean())
    std = float(values.std(ddof=1)) if n > 1 else 0.0
    half = float(Z_95 * std / np.sqrt(n)) if n > 1 else float("inf")
    return SummaryStats(
        n=n,
        mean=mean,
        std=std,
        ci_low=mean - half,
        ci_high=mean + half,
        minimum=float(values.min()),
        maximum=float(values.max()),
    )


def run_model(model: LifetimeModel, trials: int, seed: int = 0) -> MCEstimate:
    """Draw ``trials`` lifetimes from ``model`` and summarize them."""
    if trials < 2:
        raise ConfigurationError(f"need at least 2 trials for a CI, got {trials}")
    values = model.sample_batch(trials, np.random.default_rng(seed))
    return MCEstimate(
        label=model.label,
        spec=model.spec,
        stats=summarize_array(values.astype(np.float64)),
        trials=trials,
    )


def estimate_to_precision(
    model: LifetimeModel,
    rel_halfwidth: float = 0.01,
    seed: int = 0,
    *,
    min_trials: int = 1_000,
    max_trials: int = 10_000_000,
    batch_size: int = DEFAULT_BATCH,
) -> MCEstimate:
    """Sample until the 95% CI half-width is ``rel_halfwidth × |mean|``.

    Batches stream into a :class:`StreamingMoments` accumulator, so
    memory stays O(batch) regardless of how many trials the target
    precision ends up costing.  ``converged=False`` on the returned
    estimate means the ``max_trials`` budget ran out first.
    """
    if rel_halfwidth <= 0:
        raise ConfigurationError(f"rel_halfwidth must be positive, got {rel_halfwidth}")
    if not 2 <= min_trials <= max_trials:
        raise ConfigurationError(
            f"need 2 <= min_trials <= max_trials, got {min_trials}, {max_trials}"
        )
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    rng = np.random.default_rng(seed)
    moments = StreamingMoments()
    converged = False
    while moments.count < max_trials:
        take = min(batch_size, max_trials - moments.count)
        moments.update(model.sample_batch(take, rng).astype(np.float64))
        if moments.count < min_trials:
            continue
        scale = max(abs(moments.mean), np.finfo(float).tiny)
        if moments.ci_halfwidth <= rel_halfwidth * scale:
            converged = True
            break
    return MCEstimate(
        label=model.label,
        spec=model.spec,
        stats=moments.to_stats(),
        trials=moments.count,
        converged=converged,
    )


def mc_expected_lifetime(
    spec: SystemSpec,
    trials: int = 10_000,
    seed: int = 0,
    step_level: bool = False,
    *,
    precision: float | None = None,
    max_trials: int | None = None,
    timing: Optional[TimingSpec] = None,
) -> MCEstimate:
    """Monte-Carlo EL of ``spec`` (see :func:`repro.mc.models.model_for`).

    With ``precision`` set, ``trials`` is ignored as a count and
    sampling instead streams batches until the 95% CI half-width drops
    below ``precision × |mean|`` (budget: ``max_trials``, default 10M).
    ``timing`` selects the timing-aware samplers (same correction the
    protocol stack exhibits; ``None`` is the paper's pure model).
    """
    model = model_for(spec, step_level=step_level, timing=timing)
    if precision is not None:
        return estimate_to_precision(
            model,
            rel_halfwidth=precision,
            seed=seed,
            max_trials=10_000_000 if max_trials is None else max_trials,
        )
    return run_model(model, trials, seed)


def mc_survival_curve(
    spec: SystemSpec,
    steps: int,
    trials: int = 10_000,
    seed: int = 0,
    *,
    timing: Optional[TimingSpec] = None,
) -> np.ndarray:
    """Empirical ``S(t)`` for ``t = 1..steps`` from sampled lifetimes."""
    if steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps}")
    lifetimes = model_for(spec, timing=timing).sample_batch(
        trials, np.random.default_rng(seed)
    )
    t = np.arange(1, steps + 1)
    # A run with lifetime L survives t whole steps iff L >= t.
    return (lifetimes[None, :] >= t[:, None]).mean(axis=1)


# ----------------------------------------------------------------------
# Grid fan-out
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MCTask:
    """One grid point of a sweep: a spec plus its sampling policy.

    ``seed`` is fixed by the caller before dispatch, which is what makes
    sweep results independent of the worker count.
    """

    spec: SystemSpec
    seed: int
    trials: int = 10_000
    step_level: bool = False
    precision: float | None = None
    max_trials: int = 10_000_000

    def run(self) -> MCEstimate:
        """Evaluate this point in the current process."""
        return mc_expected_lifetime(
            self.spec,
            self.trials,
            self.seed,
            self.step_level,
            precision=self.precision,
            max_trials=self.max_trials,
        )


def run_task(task: MCTask) -> MCEstimate:
    """Module-level task runner (picklable for process pools)."""
    return task.run()
