"""Workload generation: key distributions, open-loop Poisson clients."""

from .._exports import lazy_exports

_EXPORTS = {
    "KeyDistribution": "distributions",
    "UniformKeys": "distributions",
    "ZipfKeys": "distributions",
    "kv_body_factory": "distributions",
    "OpenLoopClient": "openloop",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
