"""Monte-Carlo lifetime samplers for every system × scheme combination.

Each model draws i.i.d. system lifetimes (whole steps survived,
Definition 7) directly from the §4 attack model:

* **PO models** are memoryless, so lifetimes are geometric in the
  per-step compromise probability.  :class:`S2POStepModel` additionally
  simulates S2PO step by step (binomial proxy draws, indirect and
  launch-pad coin flips) *without* using the closed-form q — it exists to
  cross-validate the analytic formula.
* **SO models** exploit the without-replacement structure: the position
  of a key in the attacker's random probe order is uniform on
  ``{1..χ}``, so a lifetime is a function of a handful of uniform draws
  — O(1) per trial even when the lifetime is millions of steps.

The S2SO model is the one the paper itself needs Monte-Carlo for (its
state space is path-dependent).  Modelling notes for S2SO:

* once a proxy's key is known, recovery does not change it, so the
  attacker re-compromises that proxy instantly at every later step: from
  the step after the first proxy-key discovery the server pool is probed
  at ``(1+κ)·ω`` per step (full-rate launch pad + the paced indirect
  stream);
* the system falls when the server key is found or when all proxy keys
  are known (the attacker then holds all proxies simultaneously);
* the sub-step λ refinement of the discovery step is neglected (it
  shifts lifetimes by less than one step).

Sampling paths
--------------
Every model exposes three entry points with identical distributions:

``sample_batch(n, rng, chunk_size=None)``
    The engine path, and the one every runner of
    :mod:`repro.mc.montecarlo` draws through: fully vectorized numpy
    sampling, drawn in bounded chunks so arbitrarily large trial counts
    run in constant memory.  For :class:`S2POStepModel` — the only truly
    sequential sampler — this simulates *blocks* of steps for all
    pending trials at once and retires finished trials between blocks.
``sample(n, rng)``
    The reference path, preserved bit-for-bit from the original
    implementation; the tests hold ``sample_batch`` to it (bit-identical
    wherever the two share a draw order).
``sample_scalar(n, rng)``
    A deliberate one-trial-at-a-time pure-Python loop over
    ``_sample_one``; the throughput baseline that
    ``benchmarks/bench_mc_engine.py`` compares the batch path against.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from ..analysis.lifetimes import per_step_compromise
from ..core.specs import SystemClass, SystemSpec
from ..core.timing import TimingSpec, launchpad_window_scale
from ..errors import ConfigurationError, UnsampleableSpecError
from ..randomization.obfuscation import Scheme

#: Default number of trials drawn per vectorized chunk.  Bounds peak
#: memory at a few tens of MB per intermediate array while keeping the
#: per-chunk numpy dispatch overhead negligible.
DEFAULT_CHUNK = 1 << 20


class LifetimeModel(ABC):
    """Draws i.i.d. lifetimes (whole steps survived) for one spec.

    ``timing`` selects the timing-aware correction path: per-step
    probabilities and probe budgets are adjusted for a protocol stack's
    respawn/reconnect delays and within-step launch-pad window (see
    :meth:`repro.core.timing.TimingSpec.effective_attack`).  ``None``
    (default) is the paper's pure model — bit-identical to the
    pre-timing implementation.
    """

    #: Per-model override of the vectorized chunk size (step-level
    #: simulation allocates (trials × block) scratch, so it chunks
    #: harder than the O(1)-per-trial samplers).
    batch_chunk: int = DEFAULT_CHUNK

    def __init__(self, spec: SystemSpec, timing: Optional[TimingSpec] = None) -> None:
        self.spec = spec
        self.timing = timing

    @property
    def label(self) -> str:
        """The spec's short label (e.g. ``"S2PO"``)."""
        return self.spec.label

    @abstractmethod
    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Return ``n`` independent lifetimes as an int64 array.

        Reference path — bit-identical to the pre-engine implementation
        for a given generator state.
        """

    @abstractmethod
    def _sample_one(self, rng: np.random.Generator) -> int:
        """Draw a single lifetime (scalar kernel for the loop path)."""

    def _sample_vectorized(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """One vectorized chunk; by default the reference path is
        already array-at-a-time, so it is reused directly."""
        return self.sample(n, rng)

    def sample_batch(
        self,
        n: int,
        rng: np.random.Generator,
        chunk_size: int | None = None,
    ) -> np.ndarray:
        """Vectorized sampling of ``n`` lifetimes in bounded chunks."""
        self._check_n(n)
        chunk = self.batch_chunk if chunk_size is None else chunk_size
        if chunk < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {chunk}")
        if n <= chunk:
            return self._sample_vectorized(n, rng)
        parts = []
        remaining = n
        while remaining > 0:
            take = min(chunk, remaining)
            parts.append(self._sample_vectorized(take, rng))
            remaining -= take
        return np.concatenate(parts)

    def sample_scalar(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """One-trial-at-a-time loop path (throughput baseline)."""
        self._check_n(n)
        out = np.empty(n, dtype=np.int64)
        for i in range(n):
            out[i] = self._sample_one(rng)
        return out

    def _check_n(self, n: int) -> None:
        if n < 1:
            raise ConfigurationError(f"need at least one trial, got {n}")


# ----------------------------------------------------------------------
# PO models (memoryless)
# ----------------------------------------------------------------------
class GeometricPOModel(LifetimeModel):
    """Common machinery: lifetimes are geometric(q) minus one."""

    def __init__(self, spec: SystemSpec, timing: Optional[TimingSpec] = None) -> None:
        if spec.scheme is not Scheme.PO:
            raise ConfigurationError(f"{type(self).__name__} requires a PO spec")
        super().__init__(spec, timing)
        self.q = per_step_compromise(spec, timing)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        self._check_n(n)
        # rng.geometric returns the index of the first success (>= 1);
        # whole steps survived is one less.
        return rng.geometric(self.q, size=n).astype(np.int64) - 1

    def _sample_one(self, rng: np.random.Generator) -> int:
        return int(rng.geometric(self.q)) - 1


class S0POModel(GeometricPOModel):
    """S0 (4-replica SMR) under proactive obfuscation."""


class S1POModel(GeometricPOModel):
    """S1 (primary-backup) under proactive obfuscation."""


class S2POModel(GeometricPOModel):
    """S2 (FORTRESS) under proactive obfuscation — fast sampler."""


class S2POStepModel(LifetimeModel):
    """S2PO simulated step by step, independent of the closed form.

    Each step: draw the indirect attack, the per-proxy direct attacks
    and (when a proxy falls) the same-step launch-pad attack, then apply
    Definition 3's compromise conditions.  Used to validate
    :func:`repro.analysis.lifetimes.per_step_compromise_s2_po`.

    The vectorized path simulates ``block_steps`` steps for every
    pending trial at once, retires the trials whose first compromise
    falls inside the block (``argmax`` over the step axis), and repeats
    with the survivors — the chunked fallback for this genuinely
    sequential sampler.
    """

    batch_chunk = 8192
    block_steps = 128

    def __init__(
        self,
        spec: SystemSpec,
        max_steps: int = 10_000_000,
        timing: Optional[TimingSpec] = None,
    ) -> None:
        if spec.scheme is not Scheme.PO or spec.system is not SystemClass.S2:
            raise ConfigurationError("S2POStepModel requires an S2 PO spec")
        super().__init__(spec, timing)
        self.max_steps = max_steps
        if timing is None:
            self._q_indirect = spec.kappa * spec.alpha
            self._alpha_proxy = spec.alpha
            self._q_launchpad = spec.launchpad_fraction * spec.alpha
        else:
            eff = timing.effective_attack(
                spec.alpha,
                spec.chi,
                kappa=spec.kappa,
                launchpad_fraction=spec.launchpad_fraction,
                period=spec.period,
            )
            self._q_indirect = eff.kappa * spec.alpha
            self._alpha_proxy = eff.alpha_direct
            self._q_launchpad = eff.launchpad_fraction * spec.alpha

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.sample_scalar(n, rng)

    def _sample_one(self, rng: np.random.Generator) -> int:
        spec = self.spec
        steps = 0
        timed = self.timing is not None
        while True:
            if steps >= self.max_steps:
                raise UnsampleableSpecError(spec, self.max_steps)
            if timed:
                # Timing-aware structure: indirect + launch pad share
                # one without-replacement pool, so their successes add.
                fallen = rng.binomial(spec.n_proxies, self._alpha_proxy)
                if fallen == spec.n_proxies:
                    break  # all proxies held simultaneously
                q_server = self._q_indirect
                if fallen >= 1:
                    q_server += self._q_launchpad * launchpad_window_scale(fallen)
                if rng.random() < q_server:
                    break  # server key found (indirect or launch pad)
                steps += 1
                continue
            if rng.random() < self._q_indirect:
                break  # indirect attack landed
            fallen = rng.binomial(spec.n_proxies, self._alpha_proxy)
            if fallen == spec.n_proxies:
                break  # all proxies held simultaneously
            if fallen >= 1 and rng.random() < self._q_launchpad:
                break  # same-step launch-pad attack landed
            steps += 1
        return steps

    def _sample_vectorized(self, n: int, rng: np.random.Generator) -> np.ndarray:
        spec = self.spec
        q_indirect = self._q_indirect
        q_launchpad = self._q_launchpad
        timed = self.timing is not None
        out = np.empty(n, dtype=np.int64)
        pending = np.arange(n)
        survived = 0  # steps already survived by every pending trial
        while pending.size:
            if survived >= self.max_steps:
                raise UnsampleableSpecError(spec, self.max_steps)
            # Never simulate past the budget: the scalar path raises the
            # moment a trial reaches max_steps, so no returned lifetime
            # may equal or exceed it.
            block = min(self.block_steps, self.max_steps - survived)
            m = pending.size
            if timed:
                fallen = rng.binomial(
                    spec.n_proxies, self._alpha_proxy, size=(m, block)
                )
                q_server = np.where(
                    fallen >= 1,
                    q_indirect + q_launchpad * launchpad_window_scale(fallen),
                    q_indirect,
                )
                ended = (rng.random((m, block)) < q_server) | (fallen == spec.n_proxies)
            else:
                indirect = rng.random((m, block)) < q_indirect
                fallen = rng.binomial(
                    spec.n_proxies, self._alpha_proxy, size=(m, block)
                )
                launchpad = (fallen >= 1) & (rng.random((m, block)) < q_launchpad)
                ended = indirect | (fallen == spec.n_proxies) | launchpad
            done = ended.any(axis=1)
            out[pending[done]] = survived + ended.argmax(axis=1)[done]
            pending = pending[~done]
            survived += block
        return out


# ----------------------------------------------------------------------
# SO models (without replacement; O(1) per trial)
# ----------------------------------------------------------------------
class S1SOModel(LifetimeModel):
    """S1 under start-up-only randomization.

    The tier shares one key whose position in the attacker's probe order
    is uniform on ``{1..χ}``; it is found in the step where cumulative
    probes first reach it.
    """

    def __init__(self, spec: SystemSpec, timing: Optional[TimingSpec] = None) -> None:
        if spec.scheme is not Scheme.SO or spec.system is not SystemClass.S1:
            raise ConfigurationError("S1SOModel requires an S1 SO spec")
        super().__init__(spec, timing)
        self._omega = _so_omega(spec, timing)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        self._check_n(n)
        positions = rng.integers(1, self.spec.chi + 1, size=n)
        found_step = np.ceil(positions / self._omega).astype(np.int64)
        return found_step - 1

    def _sample_one(self, rng: np.random.Generator) -> int:
        position = int(rng.integers(1, self.spec.chi + 1))
        return math.ceil(position / self._omega) - 1


class S0SOModel(LifetimeModel):
    """S0 under start-up-only randomization.

    Four diverse keys; the system falls when the ``(f+1)``-th key is
    discovered, i.e. at the ``(f+1)``-th order statistic of the per-node
    discovery steps.
    """

    def __init__(self, spec: SystemSpec, timing: Optional[TimingSpec] = None) -> None:
        if spec.scheme is not Scheme.SO or spec.system is not SystemClass.S0:
            raise ConfigurationError("S0SOModel requires an S0 SO spec")
        super().__init__(spec, timing)
        self._omega = _so_omega(spec, timing)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        self._check_n(n)
        spec = self.spec
        positions = rng.integers(1, spec.chi + 1, size=(n, spec.n_servers))
        found_steps = np.ceil(positions / self._omega).astype(np.int64)
        found_steps.sort(axis=1)
        fatal = found_steps[:, spec.f]  # 0-indexed: the (f+1)-th discovery
        return fatal - 1

    def _sample_one(self, rng: np.random.Generator) -> int:
        spec = self.spec
        found_steps = sorted(
            math.ceil(int(rng.integers(1, spec.chi + 1)) / self._omega)
            for _ in range(spec.n_servers)
        )
        return found_steps[spec.f] - 1


class S2SOModel(LifetimeModel):
    """S2 under start-up-only randomization (see module docstring)."""

    def __init__(self, spec: SystemSpec, timing: Optional[TimingSpec] = None) -> None:
        if spec.scheme is not Scheme.SO or spec.system is not SystemClass.S2:
            raise ConfigurationError("S2SOModel requires an S2 SO spec")
        super().__init__(spec, timing)
        if timing is None:
            self._omega_proxy = spec.omega
            self._rate_indirect = spec.kappa * spec.omega
            self._rate_combined = (1.0 + spec.kappa) * spec.omega
        else:
            eff = timing.effective_attack(
                spec.alpha, spec.chi, kappa=spec.kappa, period=spec.period
            )
            self._omega_proxy = eff.omega_direct
            self._rate_indirect = eff.indirect_rate
            self._rate_combined = eff.indirect_rate + eff.launchpad_rate

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        self._check_n(n)
        spec = self.spec

        proxy_positions = rng.integers(1, spec.chi + 1, size=(n, spec.n_proxies))
        proxy_steps = np.ceil(proxy_positions / self._omega_proxy).astype(np.int64)
        first_proxy = proxy_steps.min(axis=1)
        all_proxies = proxy_steps.max(axis=1)

        server_position = rng.integers(1, spec.chi + 1, size=n).astype(np.float64)

        if self._rate_indirect > 0.0:
            # Server key found by the paced indirect stream alone?
            early = np.ceil(server_position / self._rate_indirect).astype(np.int64)
        else:
            early = np.full(n, np.iinfo(np.int64).max)
        found_early = early <= first_proxy

        # Otherwise the stream accelerates once the first proxy key is
        # known (full-rate launch pad joins in).
        consumed_by_t1 = self._rate_indirect * first_proxy.astype(np.float64)
        remaining = np.maximum(server_position - consumed_by_t1, 0.0)
        late = first_proxy + np.ceil(remaining / self._rate_combined).astype(np.int64)
        # If the key position falls exactly within step T1's combined
        # budget, ceil() of 0 remaining gives T1 itself, which is right.
        late = np.maximum(late, first_proxy)

        server_step = np.where(found_early, early, late)
        fatal = np.minimum(server_step, all_proxies)
        return (fatal - 1).astype(np.int64)

    def _sample_one(self, rng: np.random.Generator) -> int:
        spec = self.spec

        proxy_steps = [
            math.ceil(int(rng.integers(1, spec.chi + 1)) / self._omega_proxy)
            for _ in range(spec.n_proxies)
        ]
        first_proxy = min(proxy_steps)
        all_proxies = max(proxy_steps)

        server_position = float(rng.integers(1, spec.chi + 1))
        if self._rate_indirect > 0.0:
            early = math.ceil(server_position / self._rate_indirect)
            if early <= first_proxy:
                return min(early, all_proxies) - 1

        remaining = max(server_position - self._rate_indirect * first_proxy, 0.0)
        late = first_proxy + math.ceil(remaining / self._rate_combined)
        return min(max(late, first_proxy), all_proxies) - 1


# ----------------------------------------------------------------------
def _so_omega(spec: SystemSpec, timing: Optional[TimingSpec]) -> float:
    """Probes landed per step by one direct stream (ω with no timing)."""
    if timing is None:
        return spec.omega
    return timing.effective_attack(
        spec.alpha, spec.chi, period=spec.period
    ).omega_direct


def model_for(
    spec: SystemSpec,
    step_level: bool = False,
    timing: Optional[TimingSpec] = None,
) -> LifetimeModel:
    """Return the sampler for ``spec``.

    ``step_level=True`` selects the step-by-step S2PO validator instead
    of the closed-form geometric sampler (only meaningful for S2 PO).
    ``timing`` selects the timing-aware correction path (see
    :class:`LifetimeModel`).
    """
    if spec.scheme is Scheme.PO:
        if spec.system is SystemClass.S0:
            return S0POModel(spec, timing=timing)
        if spec.system is SystemClass.S1:
            return S1POModel(spec, timing=timing)
        if step_level:
            return S2POStepModel(spec, timing=timing)
        return S2POModel(spec, timing=timing)
    if spec.system is SystemClass.S0:
        return S0SOModel(spec, timing=timing)
    if spec.system is SystemClass.S1:
        return S1SOModel(spec, timing=timing)
    return S2SOModel(spec, timing=timing)
