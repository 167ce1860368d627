"""Key-popularity distributions for workload generation.

Real KV workloads are rarely uniform; a small set of hot keys receives
most of the traffic.  :class:`ZipfKeys` provides the standard skewed
distribution (used by the open-loop client and the richer body
factories), :class:`UniformKeys` the baseline.
"""

from __future__ import annotations

import bisect
import itertools
import random
from abc import ABC, abstractmethod

from ..errors import ConfigurationError


class KeyDistribution(ABC):
    """Samples key names for a KV workload."""

    @abstractmethod
    def sample(self, rng: random.Random) -> str:
        """Return one key name."""


class UniformKeys(KeyDistribution):
    """Every key equally likely."""

    def __init__(self, n_keys: int = 64, prefix: str = "k") -> None:
        if n_keys < 1:
            raise ConfigurationError(f"need at least one key, got {n_keys}")
        self.n_keys = n_keys
        self.prefix = prefix

    def sample(self, rng: random.Random) -> str:
        return f"{self.prefix}{rng.randrange(self.n_keys)}"


class ZipfKeys(KeyDistribution):
    """Zipf(s)-distributed key popularity over ``n_keys`` keys.

    Key ``i`` (0-based) has probability proportional to ``1/(i+1)^s``.
    Sampling inverts the precomputed CDF with a binary search — O(log n)
    per draw, no scipy dependency.
    """

    def __init__(self, n_keys: int = 64, s: float = 1.0, prefix: str = "k") -> None:
        if n_keys < 1:
            raise ConfigurationError(f"need at least one key, got {n_keys}")
        if s < 0:
            raise ConfigurationError(f"Zipf exponent must be >= 0, got {s}")
        self.n_keys = n_keys
        self.s = s
        self.prefix = prefix
        weights = [1.0 / (i + 1) ** s for i in range(n_keys)]
        total = sum(weights)
        self._cdf = list(itertools.accumulate(w / total for w in weights))
        self._cdf[-1] = 1.0  # guard against float drift

    def sample(self, rng: random.Random) -> str:
        index = bisect.bisect_left(self._cdf, rng.random())
        return f"{self.prefix}{min(index, self.n_keys - 1)}"

    def probability(self, index: int) -> float:
        """P(key ``index``), for tests and analysis."""
        if not 0 <= index < self.n_keys:
            raise ConfigurationError(f"key index {index} out of range")
        low = self._cdf[index - 1] if index > 0 else 0.0
        return self._cdf[index] - low


def kv_body_factory(
    key_distribution: KeyDistribution,
    read_ratio: float = 0.7,
):
    """Build a request-body factory with the given read/write mix.

    Returns a callable for any workload client's ``body_factory`` (see
    :class:`repro.core.clients.RequestClient`).
    """
    if not 0.0 <= read_ratio <= 1.0:
        raise ConfigurationError(f"read_ratio must be in [0, 1], got {read_ratio}")

    def factory(i: int, rng: random.Random) -> dict:
        key = key_distribution.sample(rng)
        if rng.random() < read_ratio:
            return {"op": "get", "key": key}
        if i % 5 == 0:
            return {"op": "incr", "key": key}
        return {"op": "put", "key": key, "value": i}

    return factory
