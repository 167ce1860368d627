"""Parameter sweeps: the series behind the paper's figures.

A sweep produces :class:`Series` objects — ``(x, EL)`` points with
confidence intervals — that the benchmark harness renders as the rows of
Figure 1 (EL vs α for the five systems) and Figure 2 (EL of S2PO as κ
varies).  Sweeps can use either the analytic formulas or the
Monte-Carlo samplers, so benches can show both side by side.

Monte-Carlo grid points are evaluated as
:class:`repro.mc.montecarlo.MCTask` objects through the generic
:class:`~repro.mc.executor.TaskExecutor` fan-out (which also hosts the
protocol-level campaigns of :mod:`repro.core.campaign`): pass
``workers=N`` to fan the (system × α × κ) grid out across processes.
Every point's seed is a fixed offset of the root seed computed before
dispatch (the pre-engine layout, kept for bit-compatible regression
runs), so sweep results do not depend on the worker count.
``precision=`` switches the points from fixed trial counts to CI-width
targeted early stopping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..analysis.lifetimes import expected_lifetime
from ..core.specs import SystemClass, SystemSpec, paper_systems, s2
from ..errors import AnalysisError
from ..randomization.obfuscation import Scheme
from .executor import TaskExecutor
from .montecarlo import MCTask, run_task

#: Log-spaced α grid covering the paper's "realistic range" (§5).
FIGURE1_ALPHAS = (1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2)

#: κ grid for Figure 2 (log-scale friendly, plus the endpoints the
#: paper's trends single out).
FIGURE2_KAPPAS = (0.0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)


@dataclass(frozen=True)
class SweepPoint:
    """One (x, EL) sample of a sweep."""

    x: float
    mean: float
    ci_low: float
    ci_high: float


@dataclass
class Series:
    """A labelled curve: EL as a function of the swept parameter."""

    label: str
    x_name: str
    points: list[SweepPoint] = field(default_factory=list)

    @property
    def xs(self) -> list[float]:
        return [p.x for p in self.points]

    @property
    def means(self) -> list[float]:
        return [p.mean for p in self.points]


def _needs_mc(
    spec: SystemSpec, trials: Optional[int], precision: Optional[float]
) -> bool:
    """Whether a grid point must be sampled rather than solved."""
    return (
        trials is not None
        or precision is not None
        or (spec.scheme is Scheme.SO and spec.system is SystemClass.S2)
    )


def _evaluate_grid(
    specs: Sequence[SystemSpec],
    seeds: Sequence[int],
    trials: Optional[int],
    precision: Optional[float],
    workers: Optional[int],
) -> list[tuple[float, float, float]]:
    """(mean, ci_low, ci_high) per spec; MC points fan out in parallel.

    Analytic points are solved inline (they cost microseconds); every
    Monte-Carlo point becomes one :class:`MCTask` and the whole batch
    goes through a single :class:`TaskExecutor` pass, so parallelism spans
    the full grid rather than one sweep axis at a time.
    """
    tasks: list[MCTask] = []
    mc_slots: list[int] = []
    results: list[Optional[tuple[float, float, float]]] = [None] * len(specs)
    for i, spec in enumerate(specs):
        if _needs_mc(spec, trials, precision):
            tasks.append(
                MCTask(
                    spec=spec,
                    seed=seeds[i],
                    trials=10_000 if trials is None else trials,
                    precision=precision,
                )
            )
            mc_slots.append(i)
        else:
            value = expected_lifetime(spec)
            results[i] = (value, value, value)
    if tasks:
        estimates = TaskExecutor(workers).map(run_task, tasks)
        for slot, estimate in zip(mc_slots, estimates):
            results[slot] = (
                estimate.mean,
                estimate.stats.ci_low,
                estimate.stats.ci_high,
            )
    return results  # type: ignore[return-value]


def sweep_alpha(
    base: SystemSpec,
    alphas: Sequence[float] = FIGURE1_ALPHAS,
    trials: Optional[int] = None,
    seed: int = 0,
    *,
    precision: Optional[float] = None,
    workers: Optional[int] = None,
) -> Series:
    """EL of ``base`` across an α grid.

    ``trials=None`` uses the analytic formula where one exists (S2SO
    always falls back to Monte-Carlo, as in the paper).
    """
    if not alphas:
        raise AnalysisError("alpha grid must be non-empty")
    specs = [base.with_alpha(alpha) for alpha in alphas]
    seeds = [seed + i for i in range(len(specs))]
    evaluated = _evaluate_grid(specs, seeds, trials, precision, workers)
    series = Series(label=base.label, x_name="alpha")
    for alpha, (mean, lo, hi) in zip(alphas, evaluated):
        series.points.append(SweepPoint(x=alpha, mean=mean, ci_low=lo, ci_high=hi))
    return series


def sweep_kappa(
    base: SystemSpec,
    kappas: Sequence[float] = FIGURE2_KAPPAS,
    trials: Optional[int] = None,
    seed: int = 0,
    *,
    precision: Optional[float] = None,
    workers: Optional[int] = None,
) -> Series:
    """EL of ``base`` across a κ grid (S2 systems)."""
    if base.system is not SystemClass.S2:
        raise AnalysisError("kappa sweeps only apply to S2 systems")
    specs = [base.with_kappa(kappa) for kappa in kappas]
    seeds = [seed + i for i in range(len(specs))]
    evaluated = _evaluate_grid(specs, seeds, trials, precision, workers)
    series = Series(label=f"{base.label}@alpha={base.alpha:g}", x_name="kappa")
    for kappa, (mean, lo, hi) in zip(kappas, evaluated):
        series.points.append(SweepPoint(x=kappa, mean=mean, ci_low=lo, ci_high=hi))
    return series


def _series_grid(
    bases: Sequence[SystemSpec],
    alphas: Sequence[float],
    trials: Optional[int],
    seed: int,
    precision: Optional[float],
    workers: Optional[int],
) -> list[Series]:
    """Evaluate several EL-vs-α series as one flat fanned-out grid."""
    if not alphas:
        raise AnalysisError("alpha grid must be non-empty")
    specs: list[SystemSpec] = []
    seeds: list[int] = []
    for i, base in enumerate(bases):
        for j, alpha in enumerate(alphas):
            specs.append(base.with_alpha(alpha))
            seeds.append(seed + 1000 * i + j)
    evaluated = _evaluate_grid(specs, seeds, trials, precision, workers)
    out: list[Series] = []
    width = len(alphas)
    for i, base in enumerate(bases):
        series = Series(label=base.label, x_name="alpha")
        for j, alpha in enumerate(alphas):
            mean, lo, hi = evaluated[i * width + j]
            series.points.append(SweepPoint(x=alpha, mean=mean, ci_low=lo, ci_high=hi))
        out.append(series)
    return out


def figure1_series(
    alphas: Sequence[float] = FIGURE1_ALPHAS,
    kappa: float = 0.5,
    trials: Optional[int] = None,
    seed: int = 0,
    *,
    precision: Optional[float] = None,
    workers: Optional[int] = None,
) -> list[Series]:
    """The five curves of Figure 1 (S0PO, S2PO, S1PO, S1SO, S0SO)."""
    return _series_grid(
        paper_systems(kappa=kappa), alphas, trials, seed, precision, workers
    )


def figure2_series(
    alphas: Sequence[float] = FIGURE1_ALPHAS,
    kappas: Sequence[float] = FIGURE2_KAPPAS,
    trials: Optional[int] = None,
    seed: int = 0,
    *,
    precision: Optional[float] = None,
    workers: Optional[int] = None,
) -> list[Series]:
    """Figure 2: one EL-vs-α curve of S2PO per κ value."""
    bases = [s2(Scheme.PO, kappa=kappa) for kappa in kappas]
    out = _series_grid(bases, alphas, trials, seed, precision, workers)
    for series, kappa in zip(out, kappas):
        series.label = f"S2PO kappa={kappa:g}"
    return out
