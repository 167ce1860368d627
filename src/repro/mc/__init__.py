"""Monte-Carlo harness: samplers, trial runner, executor, sweeps.

This package init is *lazy* (PEP 562): names resolve on first attribute
access, so importing :mod:`repro.mc.executor` — the dispatch loop every
protocol campaign uses — never loads the numpy samplers.
"""

from __future__ import annotations

from .._exports import lazy_exports

_EXPORTS = {
    "GeometricPOModel": "models",
    "LifetimeModel": "models",
    "S0POModel": "models",
    "S0SOModel": "models",
    "S1POModel": "models",
    "S1SOModel": "models",
    "S2POModel": "models",
    "S2POStepModel": "models",
    "S2SOModel": "models",
    "model_for": "models",
    "ExecutorBackend": "executor",
    "LocalPoolBackend": "executor",
    "MCEstimate": "montecarlo",
    "MCTask": "montecarlo",
    "SerialBackend": "executor",
    "StreamingMoments": "executor",
    "TaskExecutor": "executor",
    "backend_for": "executor",
    "derive_point_seed": "executor",
    "derive_point_seeds": "executor",
    "estimate_to_precision": "montecarlo",
    "mc_expected_lifetime": "montecarlo",
    "mc_survival_curve": "montecarlo",
    "run_model": "montecarlo",
    "run_task": "montecarlo",
    "summarize_array": "montecarlo",
    "FIGURE1_ALPHAS": "sweeps",
    "FIGURE2_KAPPAS": "sweeps",
    "Series": "sweeps",
    "SweepPoint": "sweeps",
    "figure1_series": "sweeps",
    "figure2_series": "sweeps",
    "sweep_alpha": "sweeps",
    "sweep_kappa": "sweeps",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
