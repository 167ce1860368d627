"""Summary statistics and confidence intervals for simulation output.

Monte-Carlo lifetime estimates are means of highly skewed (roughly
geometric) samples; :func:`summarize` gives their normal-approximation
confidence interval.

Protocol-level lifetime runs are additionally *right-censored*: a run
that survives the whole step budget reveals only that its lifetime is at
least the budget.  :func:`summarize_censored` keeps the censored runs
visible instead of silently folding them into the mean — the naive
summary is flagged as a lower bound whenever any run was censored, the
censored fraction is reported outright, and a Kaplan-Meier restricted
mean (:func:`kaplan_meier` / :func:`km_restricted_mean`) gives the
standard survival-analysis estimate of the same quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from ..errors import AnalysisError

#: Two-sided z value for a 95% normal interval.
Z_95 = 1.959963984540054


@dataclass(frozen=True)
class SummaryStats:
    """Mean, spread and a 95% confidence interval of a sample.

    Attributes
    ----------
    n:
        Sample size.
    mean, std:
        Sample mean and (n-1) standard deviation.
    ci_low, ci_high:
        95% normal-approximation interval for the mean.
    minimum, maximum:
        Sample range.
    """

    n: int
    mean: float
    std: float
    ci_low: float
    ci_high: float
    minimum: float
    maximum: float

    @property
    def ci_halfwidth(self) -> float:
        """Half-width of the 95% interval."""
        return (self.ci_high - self.ci_low) / 2.0

    def overlaps(self, other: "SummaryStats") -> bool:
        """Whether the two 95% intervals intersect."""
        return self.ci_low <= other.ci_high and other.ci_low <= self.ci_high


def summarize(values: Sequence[float]) -> SummaryStats:
    """Compute :class:`SummaryStats` over a non-empty sample.

    A single observation carries no spread information, so its interval
    is *infinite* (``ci_low = -inf``, ``ci_high = +inf``) — a zero-width
    CI there would be indistinguishable from a converged estimate and
    could satisfy a precision-targeted stopping rule vacuously.
    """
    if not values:
        raise AnalysisError("cannot summarize an empty sample")
    n = len(values)
    mean = sum(values) / n
    if n > 1:
        var = sum((v - mean) ** 2 for v in values) / (n - 1)
    else:
        var = 0.0
    std = math.sqrt(var)
    half = Z_95 * std / math.sqrt(n) if n > 1 else math.inf
    return SummaryStats(
        n=n,
        mean=mean,
        std=std,
        ci_low=mean - half,
        ci_high=mean + half,
        minimum=min(values),
        maximum=max(values),
    )


@dataclass(frozen=True)
class CensoredSummary:
    """Summary of a right-censored sample of lifetimes.

    Attributes
    ----------
    stats:
        Naive :class:`SummaryStats` over the *observed* values (censored
        runs contribute their censoring time).  When ``n_censored > 0``
        the mean is a lower bound on the true expected lifetime and the
        CI covers the censored mean, not the true one.
    n_censored:
        How many observations were censored (survived their budget).
    km_mean:
        Kaplan-Meier restricted mean survival time over the observed
        horizon.  With all censoring at a common budget this equals the
        naive mean; with mixed censoring times it corrects for the
        information censored runs still carry.
    """

    stats: SummaryStats
    n_censored: int
    km_mean: float

    @property
    def n(self) -> int:
        """Total number of observations (censored included)."""
        return self.stats.n

    @property
    def censored_fraction(self) -> float:
        """Fraction of observations censored, in [0, 1]."""
        return self.n_censored / self.stats.n

    @property
    def is_lower_bound(self) -> bool:
        """Whether the mean understates the true expected lifetime."""
        return self.n_censored > 0


def kaplan_meier(
    times: Sequence[float], events: Sequence[bool]
) -> list[tuple[float, float]]:
    """Kaplan-Meier survival curve of a right-censored sample.

    Parameters
    ----------
    times:
        Observed values: the lifetime for uncensored observations, the
        censoring time for censored ones.
    events:
        ``True`` where the observation is an actual failure,
        ``False`` where it was censored at ``times[i]``.

    Returns
    -------
    ``[(t, S(t))]`` pairs at each distinct *event* time, in increasing
    order, where ``S(t)`` is the estimated probability of surviving
    strictly beyond ``t``.  Ties between failures and censorings at the
    same time follow the standard convention: failures happen first.
    """
    if len(times) != len(events):
        raise AnalysisError(
            f"times and events lengths differ: {len(times)} vs {len(events)}"
        )
    if not times:
        raise AnalysisError("cannot estimate a survival curve from an empty sample")
    if any(t < 0 for t in times):
        raise AnalysisError("lifetimes must be non-negative")
    observations = sorted(zip(times, events))
    n_at_risk = len(observations)
    survival = 1.0
    curve: list[tuple[float, float]] = []
    index = 0
    while index < len(observations):
        t = observations[index][0]
        deaths = 0
        removed = 0
        while index < len(observations) and observations[index][0] == t:
            if observations[index][1]:
                deaths += 1
            removed += 1
            index += 1
        if deaths:
            survival *= 1.0 - deaths / n_at_risk
            curve.append((t, survival))
        n_at_risk -= removed
    return curve


def km_restricted_mean(
    times: Sequence[float],
    events: Sequence[bool],
    horizon: float | None = None,
) -> float:
    """Kaplan-Meier restricted mean survival time ``∫₀ᵗ S(u) du``.

    ``horizon`` defaults to the largest observed value.  For discrete
    whole-step lifetimes this is the KM estimate of ``E[min(T, horizon)]``;
    when every censoring happens at the common budget it reduces to the
    naive mean of the observed values.
    """
    curve = kaplan_meier(times, events)
    if horizon is None:
        horizon = max(times)
    if horizon < 0:
        raise AnalysisError(f"horizon must be non-negative, got {horizon}")
    area = 0.0
    previous_t = 0.0
    survival = 1.0
    for t, s in curve:
        if t >= horizon:
            break
        area += survival * (min(t, horizon) - previous_t)
        previous_t = t
        survival = s
    area += survival * (horizon - previous_t)
    return area


def summarize_censored(
    times: Sequence[float], censored: Sequence[bool]
) -> CensoredSummary:
    """Summarize a right-censored sample without hiding the censoring.

    ``censored[i]`` marks observation ``i`` as a survival past
    ``times[i]`` rather than an observed failure.
    """
    if len(times) != len(censored):
        raise AnalysisError(
            f"times and censored lengths differ: {len(times)} vs {len(censored)}"
        )
    stats = summarize(times)
    events = [not c for c in censored]
    return CensoredSummary(
        stats=stats,
        n_censored=sum(1 for c in censored if c),
        km_mean=km_restricted_mean(times, events),
    )


@dataclass(frozen=True)
class SplittingLevelStat:
    """Pooled crossing counts of one splitting stage.

    Attributes
    ----------
    level:
        The Φ threshold of the stage, or ``None`` for the final stage
        (whose "crossing" is the rare event itself, judged by the
        compromise monitor).
    n:
        Trajectories launched into the stage, pooled over replications.
    crossed:
        How many reached the threshold (or compromised outright — a
        compromise crosses every remaining level by construction).
    """

    level: Optional[float]
    n: int
    crossed: int

    @property
    def p(self) -> float:
        """Pooled conditional crossing probability of the stage."""
        return self.crossed / self.n


@dataclass(frozen=True)
class SplittingEstimate:
    """Rare-event probability folded from multilevel-splitting stages.

    ``probability`` is the mean of the per-replication products of
    conditional stage estimates — *exactly* unbiased for the rare-event
    probability (each replication's product telescopes the conditional
    expectations).  The interval is a delta-method CI on the log of the
    pooled product: per-stage binomial variances propagated through
    ``ln Π p̂ₖ = Σ ln p̂ₖ`` under the standard independent-stages
    approximation of the splitting literature, then exponentiated (so
    the interval is asymmetric and never dips below zero).
    """

    probability: float
    ci_low: float
    ci_high: float
    levels: tuple[SplittingLevelStat, ...]


def splitting_probability(
    level_stats: Sequence[SplittingLevelStat],
    products: Sequence[float],
) -> SplittingEstimate:
    """Fold per-stage counts and per-replication products into an estimate.

    Parameters
    ----------
    level_stats:
        Pooled counts per stage, in stage order, truncated after the
        first stage no trajectory crossed (later stages never ran).
    products:
        One ``Π p̂ₖ`` per replication (0.0 where a stage died out).

    When some pooled stage has zero crossers the point estimate is the
    (possibly zero) product mean and the upper bound falls back to the
    rule of three on the dead stage — ``3/n`` crossings would have been
    seen with ≥95% probability were the conditional probability that
    large — scaled by the product of the preceding stages.

    The delta-method interval assumes independent per-stage Bernoulli
    trials, but resplit offspring of one parent share that parent's
    state and can decide together; the replications, by contrast, are
    genuinely independent.  The returned interval is therefore the
    delta-method one *widened* to cover the t-interval of the
    per-replication products whenever their empirical spread says the
    pooled counts were overconfident.
    """
    if not products:
        raise AnalysisError("need at least one splitting replication")
    if not level_stats:
        raise AnalysisError("need at least one splitting stage")
    probability = sum(products) / len(products)
    ci_low, ci_high = _replication_spread(products, probability)
    pooled = 1.0
    log_var = 0.0
    for stat in level_stats:
        if stat.n <= 0:
            raise AnalysisError("splitting stage with no trajectories")
        if stat.crossed == 0:
            upper = pooled * min(3.0 / stat.n, 1.0)
            return SplittingEstimate(
                probability=probability,
                ci_low=0.0,
                ci_high=max(ci_high, upper),
                levels=tuple(level_stats),
            )
        p = stat.p
        pooled *= p
        log_var += (1.0 - p) / (stat.n * p)
    spread = math.exp(Z_95 * math.sqrt(log_var))
    return SplittingEstimate(
        probability=probability,
        ci_low=min(ci_low, pooled / spread),
        ci_high=min(max(ci_high, pooled * spread), 1.0),
        levels=tuple(level_stats),
    )


#: Two-sided 97.5% Student-t quantiles by degrees of freedom (>=30: ~Z).
_T_95 = {
    1: 12.706,
    2: 4.303,
    3: 3.182,
    4: 2.776,
    5: 2.571,
    6: 2.447,
    7: 2.365,
    8: 2.306,
    9: 2.262,
    10: 2.228,
    11: 2.201,
    12: 2.179,
    13: 2.160,
    14: 2.145,
    15: 2.131,
    20: 2.086,
    25: 2.060,
    29: 2.045,
}


def _replication_spread(
    products: Sequence[float], mean: float
) -> tuple[float, float]:
    """t-interval of the per-replication products around their mean.

    Returns ``(mean, mean)`` for a single replication — one product
    carries no spread information, and the delta-method interval is
    then the only one available.
    """
    n = len(products)
    if n < 2:
        return mean, mean
    var = sum((x - mean) ** 2 for x in products) / (n - 1)
    dof = n - 1
    t = _T_95.get(dof, Z_95 if dof > 29 else _T_95[max(k for k in _T_95 if k <= dof)])
    half = t * math.sqrt(var / n)
    return max(mean - half, 0.0), min(mean + half, 1.0)
