"""The unified timing model shared by all three evaluation layers.

The paper abstracts time into unit steps and treats every infrastructure
delay as negligible.  The protocol-level simulation cannot: forking
daemons take time to respawn a crashed process, attackers take a network
round trip to reconnect, proxies take a timeout to classify a request as
invalid.  At laptop-scale parameters (χ = 2^8, α ≈ 0.1) those delays are
a large fraction of a unit step and used to open a ~1.45× S2PO
protocol-vs-model lifetime gap.

:class:`TimingSpec` makes every such delay an explicit, sweepable knob
and is threaded through all three evaluation layers:

* the **protocol simulation** — :func:`repro.core.builders.build_system`
  installs the spec's delays into every process it wires up;
* the **Monte-Carlo samplers** — :mod:`repro.mc.models` corrects its
  per-step probabilities and probe budgets for the same effects
  (see :meth:`TimingSpec.effective_attack`);
* the **analytic models** — :mod:`repro.analysis.lifetimes` and
  :mod:`repro.analysis.s2so` evaluate EL curves under the same
  assumptions.

``timing=None`` everywhere means "the paper's pure model" (no
correction); :meth:`TimingSpec.ideal` means "a protocol stack with
zero delays" — the two differ only in the within-step launch-pad
window, which exists even in a zero-delay protocol stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar

from ..errors import ConfigurationError

#: Forking-daemon respawn delay after a probe crash (paper-realistic
#: default; the paper itself treats respawn as instantaneous).
DEFAULT_RESPAWN_DELAY = 0.01

#: One-way network latency, and hence the attacker's reconnect cost
#: after observing a crash (default: 1 ms against a period of 1.0).
DEFAULT_RECONNECT_LATENCY = 0.001

#: How long a proxy waits for an authentic server response before
#: classifying the request as invalid (the detection observation lag).
DEFAULT_DETECTION_LAG = 0.4


@dataclass(frozen=True)
class TimingSpec:
    """Every infrastructure delay of a deployment, as data.

    One spec parameterizes the protocol simulation *and* the model-side
    corrections, so all three evaluation layers share one set of timing
    assumptions.  Instances are frozen (hashable, picklable) and travel
    through :class:`~repro.core.experiment.ProtocolTask` batches to
    worker processes unchanged.

    Attributes
    ----------
    respawn_delay:
        Time the forking daemon needs to restore a crashed process.
        While a node is mid-respawn it drops datagrams (indirect probes,
        client requests) and refuses connections — the dominant source
        of the S2PO fidelity gap at laptop-scale α.
    reconnect_latency:
        One-way network latency; the attacker observes a crash and
        re-opens his probe connection one latency later, and every
        protocol message pays it too.
    probe_pacing:
        Multiplier on the attacker's probe intervals (1.0 = the paper's
        pacing of ω probes per step; 2.0 = an attacker half as fast).
        Applies to direct, indirect and launch-pad streams alike.
    epoch_stagger:
        Fraction of the period over which the refreshes of *diversely*
        randomized nodes (proxies, SMR replicas) are spread, in batches
        of one (0.0 = all refresh at the epoch boundary, 1.0 = the full
        Roeder-Schneider spread).  Identically randomized groups always
        refresh together.
    detection_lag:
        How long a proxy waits for an authentic server response before
        logging the request as invalid (its request timeout) — the lag
        between a wrong-guess probe and the detection log seeing it.
    """

    respawn_delay: float = DEFAULT_RESPAWN_DELAY
    reconnect_latency: float = DEFAULT_RECONNECT_LATENCY
    probe_pacing: float = 1.0
    epoch_stagger: float = 0.0
    detection_lag: float = DEFAULT_DETECTION_LAG

    def __post_init__(self) -> None:
        if self.respawn_delay < 0:
            raise ConfigurationError(
                f"respawn_delay must be >= 0, got {self.respawn_delay}"
            )
        if self.reconnect_latency < 0:
            raise ConfigurationError(
                f"reconnect_latency must be >= 0, got {self.reconnect_latency}"
            )
        if self.probe_pacing <= 0:
            raise ConfigurationError(
                f"probe_pacing must be positive, got {self.probe_pacing}"
            )
        if not 0.0 <= self.epoch_stagger <= 1.0:
            raise ConfigurationError(
                f"epoch_stagger must be in [0, 1], got {self.epoch_stagger}"
            )
        if self.detection_lag <= 0:
            raise ConfigurationError(
                f"detection_lag must be positive, got {self.detection_lag}"
            )

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def ideal(cls) -> "TimingSpec":
        """Zero-delay infrastructure: instant respawn, free reconnects,
        boundary-aligned refreshes.  Under this preset the protocol
        simulation and the timing-aware models must agree for every
        system (the bench asserts it); the only surviving protocol
        effect is the within-step launch-pad window."""
        return cls(respawn_delay=0.0, reconnect_latency=0.0, epoch_stagger=0.0)

    @classmethod
    def paper(cls) -> "TimingSpec":
        """The historical defaults of the protocol stack (10 ms respawn,
        1 ms latency, 0.4 detection timeout against a period of 1.0)."""
        return cls()

    @classmethod
    def degraded(cls) -> "TimingSpec":
        """Slow operations: a sluggish daemon, a lossy WAN-ish latency,
        staggered refreshes and a slow detection pipeline.  A scenario
        axis the paper never ran; the models correct for its delays but
        not for the stagger (the recorded gap quantifies that)."""
        return cls(
            respawn_delay=0.05,
            reconnect_latency=0.005,
            probe_pacing=1.25,
            epoch_stagger=0.5,
            detection_lag=1.0,
        )

    #: CLI / campaign-axis preset names, in sweep order.
    PRESETS: ClassVar[tuple[str, ...]] = ("ideal", "paper", "degraded")

    @classmethod
    def named(cls, name: str) -> "TimingSpec":
        """Resolve a preset by name (``ideal`` / ``paper`` / ``degraded``)."""
        try:
            return {
                "ideal": cls.ideal,
                "paper": cls.paper,
                "degraded": cls.degraded,
            }[name]()
        except KeyError:
            raise ConfigurationError(
                f"unknown timing preset {name!r}; choose from {cls.PRESETS}"
            ) from None

    def as_dict(self) -> dict:
        """Plain-dict form for JSON records."""
        return {name: getattr(self, name) for name in _TIMING_FIELDS}

    # ------------------------------------------------------------------
    # Model-side corrections
    # ------------------------------------------------------------------
    def direct_slowdown(self, omega: float, period: float = 1.0) -> int:
        """Pacing intervals consumed per *landed* direct probe.

        A direct stream fires on a fixed grid of ``pacing·period/ω``.
        A wrong guess crashes the target one latency after the fire; the
        daemon restores it ``respawn_delay`` later; the next fire that
        actually lands is the first grid point past the downtime.  When
        ``respawn_delay + latency`` fits inside one interval (the paper
        presets at laptop scale), no fire is lost and the slowdown is 1.
        """
        if omega <= 0:
            raise ConfigurationError(f"omega must be positive, got {omega}")
        dead = self.respawn_delay + self.reconnect_latency
        if dead <= 0:
            return 1
        interval = self.probe_pacing * period / omega
        return max(1, math.ceil(dead / interval - 1e-12))

    def effective_direct_rate(self, omega: float, period: float = 1.0) -> float:
        """Direct probes *landed* per step by one ω-strength stream."""
        return omega / (self.probe_pacing * self.direct_slowdown(omega, period))

    def effective_attack(
        self,
        alpha: float,
        chi: int,
        kappa: float = 0.0,
        launchpad_fraction: float = 0.0,
        period: float = 1.0,
    ) -> "EffectiveAttack":
        """First-order timing corrections to the §4 attack parameters.

        Derivation (all rates per unit step, wrong-guess probability
        taken ≈ 1 where it multiplies a delay):

        * a direct stream lands ``ω / (pacing · slowdown)`` probes per
          step (:meth:`direct_slowdown`), so its per-step success is
          ``alpha_direct = ω_direct / χ``;
        * every landed wrong probe knocks the target over for
          ``respawn_delay``, so a proxy is mid-respawn for
          ``ω_direct · respawn_delay`` of each step and *drops* the
          indirect probes (datagrams) arriving then;
        * the indirect probes that do reach a proxy are forwarded to the
          primary, which they also knock over — a fixed point solved in
          closed form (``x = r/(1 + r·respawn)``);
        * the launch pad starts at the (uniform) within-step instant the
          compromising direct probe lands and fires until the epoch
          boundary cleanses its host, so it completes
          ``window = (ω_direct − 1)/(2 ω_direct)`` of a full-rate step —
          the one correction that survives even under
          :meth:`TimingSpec.ideal`.

        The stagger knob is deliberately *not* modelled (staggered
        refreshes desynchronize the attacker's pool resets from the key
        changes); campaigns under a staggered preset record the residual
        gap instead.
        """
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
        if chi < 1:
            raise ConfigurationError(f"chi must be >= 1, got {chi}")
        omega = alpha * chi
        omega_direct = self.effective_direct_rate(omega, period)
        alpha_direct = omega_direct / chi

        # Indirect stream: submitted -> reaching a live proxy -> executed
        # by a live primary (the last step is a fixed point: executed
        # probes themselves crash the primary).
        crash_rate = omega_direct * (1.0 - alpha_direct)
        proxy_downtime = min(1.0, crash_rate * self.respawn_delay / period)
        submitted = kappa * omega / self.probe_pacing
        reaching = submitted * (1.0 - proxy_downtime)
        executed = reaching / (1.0 + reaching * self.respawn_delay / period)
        kappa_eff = executed / omega if omega > 0 else 0.0

        # Launch pad: full direct rate from the compromised proxy, less
        # the probes that find the server mid-respawn from the indirect
        # stream's crashes, over the remaining fraction of the step.
        primary_downtime = min(1.0, executed * self.respawn_delay / period)
        launchpad_rate = omega_direct * (1.0 - primary_downtime)
        if omega_direct > 1.0:
            window = (omega_direct - 1.0) / (2.0 * omega_direct)
        else:
            window = 0.0
        launchpad_eff = launchpad_fraction * (launchpad_rate / omega) * window

        return EffectiveAttack(
            alpha_direct=alpha_direct,
            omega_direct=omega_direct,
            kappa=kappa_eff,
            indirect_rate=executed,
            launchpad_fraction=launchpad_eff,
            launchpad_rate=launchpad_rate,
        )


_TIMING_FIELDS = tuple(f.name for f in fields(TimingSpec))


@dataclass(frozen=True)
class EffectiveAttack:
    """Timing-corrected attack parameters (see
    :meth:`TimingSpec.effective_attack`).

    Attributes
    ----------
    alpha_direct:
        Per-step success probability of one direct stream against one
        freshly randomized node.
    omega_direct:
        Direct probes landed per step by one stream.
    kappa:
        Effective indirect coefficient — executed request-path probes as
        a fraction of ω (so the per-step indirect success is
        ``kappa · α``).
    indirect_rate:
        Request-path probes executed by the primary per step.
    launchpad_fraction:
        Effective same-step launch-pad scale λ_eff (per-step launch-pad
        success is ``λ_eff · α`` given a proxy fell this step).
    launchpad_rate:
        Launch-pad probes landed per step while the stream is armed
        (used by the SO models, where the launch pad persists across
        steps).
    """

    alpha_direct: float
    omega_direct: float
    kappa: float
    indirect_rate: float
    launchpad_fraction: float
    launchpad_rate: float


def launchpad_window_scale(fallen):
    """Launch-pad window for ``fallen`` compromised proxies, relative
    to the single-fall window folded into
    :attr:`EffectiveAttack.launchpad_fraction`.

    The pad starts at the *first* fall of the step; with ``b`` i.i.d.
    uniform fall instants ``E[window] = b/(b+1)``, i.e. ``2b/(b+1)``
    times the ``b = 1`` window.  Accepts scalars or numpy arrays (the
    shared formula keeps the analytic model and the step-level
    validator from diverging).
    """
    return 2.0 * fallen / (fallen + 1.0)


#: The paper-realistic default threaded by the builders when no spec is
#: given — identical to the stack's historical hard-coded constants.
DEFAULT_TIMING = TimingSpec.paper()
