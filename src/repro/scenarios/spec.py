"""Declarative scenario specifications.

A :class:`ScenarioSpec` names one *composition* of everything the stack
can vary: a :class:`~repro.core.specs.SystemSpec` grid (system classes ×
schemes × α × κ at one key entropy), a
:class:`~repro.core.timing.TimingSpec` preset, an adversary strategy, a
seeded fault plan and an optional workload.  Specs are frozen, picklable
data — they travel inside :class:`~repro.core.experiment.ProtocolTask`
batches to worker processes, and they round-trip through plain dicts /
JSON so scenario campaign records stay diffable exactly like
:func:`~repro.core.campaign.campaign_record` outputs.

Nothing here touches a simulator: interpretation lives in
:mod:`repro.scenarios.runtime`, registration in
:mod:`repro.scenarios.registry`, the built-in library in
:mod:`repro.scenarios.library`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

from ..core.specs import SystemSpec
from ..core.timing import TimingSpec
from ..errors import ConfigurationError

#: Adversary strategy names (see :mod:`repro.attacker.strategies`).
ADVERSARY_KINDS = ("paper", "stealth", "coordinated")

#: Fault-plan generator names (see :mod:`repro.faults.plans`).
FAULT_KINDS = (
    "none",
    "crash_storm",
    "rolling_outages",
    "attacker_partition",
    "loss_windows",
)

#: Deployment tiers a fault plan can target.
FAULT_TIERS = ("servers", "proxies", "all")

#: Workload shapes (see :mod:`repro.core.clients`).
WORKLOAD_KINDS = ("none", "open_loop", "closed_loop")


@dataclass(frozen=True)
class AdversarySpec:
    """Which attack strategy a scenario mounts.

    Attributes
    ----------
    kind:
        ``"paper"`` — the stock §4 campaign;
        ``"stealth"`` — duty-cycled direct probing
        (:class:`~repro.attacker.strategies.DutyCycledProbeDriver`);
        ``"coordinated"`` — direct probing split across cooperating
        agent machines
        (:class:`~repro.attacker.strategies.CoordinatedAgent`), with
        indirect probing rotating the same number of spoofed
        identities.
    duty_fraction, cycle_periods:
        Stealth only: fraction of each cycle spent probing, and cycle
        length in periods.
    agents:
        Coordinated only: number of cooperating attacker machines.
    """

    kind: str = "paper"
    duty_fraction: float = 0.5
    cycle_periods: float = 2.0
    agents: int = 3

    def __post_init__(self) -> None:
        if self.kind not in ADVERSARY_KINDS:
            raise ConfigurationError(
                f"unknown adversary kind {self.kind!r}; "
                f"choose from {ADVERSARY_KINDS}"
            )
        if not 0.0 < self.duty_fraction <= 1.0:
            raise ConfigurationError(
                f"duty_fraction must be in (0, 1], got {self.duty_fraction}"
            )
        if self.cycle_periods <= 0:
            raise ConfigurationError(
                f"cycle_periods must be positive, got {self.cycle_periods}"
            )
        if self.agents < 1:
            raise ConfigurationError(f"agents must be >= 1, got {self.agents}")

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "AdversarySpec":
        return cls(**data)


@dataclass(frozen=True)
class FaultPlanSpec:
    """A seeded fault plan, as data.

    The plan itself is *generated at run time* from the deployment's
    seeded RNG (stream ``"scenario:faults"``), so every seed gets its
    own reproducible plan and results stay worker/batch invariant.  All
    times and rates are in **steps** (multiples of the spec's period).

    Field applicability by ``kind``:

    * ``crash_storm`` — ``rate`` (events/step), ``outage_probability``,
      ``outage_steps``, ``tier``, ``start_step``;
    * ``rolling_outages`` — ``period_steps``, ``down_steps``, ``tier``,
      ``start_step`` (rounds derived from the run's horizon);
    * ``attacker_partition`` — ``rate``, ``heal_steps``, ``tier``
      (which tier the attacker is cut off from), ``start_step``;
    * ``loss_windows`` — ``windows``: explicit
      ``(start_step, drop_rate, duration_steps)`` triples, overlaps
      allowed (the injector nests them).
    """

    kind: str = "none"
    tier: str = "servers"
    start_step: float = 0.5
    rate: float = 0.25
    outage_probability: float = 0.3
    outage_steps: tuple[float, float] = (0.5, 2.0)
    period_steps: float = 3.0
    down_steps: float = 1.0
    heal_steps: tuple[float, float] = (1.0, 3.0)
    windows: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if self.tier not in FAULT_TIERS:
            raise ConfigurationError(
                f"unknown fault tier {self.tier!r}; choose from {FAULT_TIERS}"
            )
        object.__setattr__(self, "outage_steps", tuple(self.outage_steps))
        object.__setattr__(self, "heal_steps", tuple(self.heal_steps))
        object.__setattr__(self, "windows", tuple(tuple(w) for w in self.windows))
        if self.kind == "loss_windows":
            if not self.windows:
                raise ConfigurationError(
                    "loss_windows needs at least one (start, rate, "
                    "duration) window"
                )
            for start, rate, duration in self.windows:
                if not 0.0 <= rate < 1.0:
                    raise ConfigurationError(f"loss rate must be in [0, 1), got {rate}")
                if start < 0 or duration <= 0:
                    raise ConfigurationError(
                        f"bad loss window ({start}, {rate}, {duration})"
                    )
        if self.kind == "rolling_outages" and (self.down_steps >= self.period_steps):
            raise ConfigurationError(
                "rolling outages must not overlap "
                f"(down {self.down_steps} >= period {self.period_steps})"
            )

    @property
    def active(self) -> bool:
        """Whether this plan injects anything at all."""
        return self.kind != "none"

    def as_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["outage_steps"] = list(self.outage_steps)
        data["heal_steps"] = list(self.heal_steps)
        data["windows"] = [list(w) for w in self.windows]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlanSpec":
        data = dict(data)
        if "outage_steps" in data:
            data["outage_steps"] = tuple(data["outage_steps"])
        if "heal_steps" in data:
            data["heal_steps"] = tuple(data["heal_steps"])
        if "windows" in data:
            data["windows"] = tuple(tuple(w) for w in data["windows"])
        return cls(**data)


@dataclass(frozen=True)
class WorkloadSpec:
    """Legitimate traffic offered to the deployment during the attack.

    Both kinds install ``clients`` clients through
    :func:`~repro.core.builders.add_clients`, which share one request
    core and differ only in their arrival policy.  ``open_loop``
    installs Poisson-arrival
    :class:`~repro.workloads.openloop.OpenLoopClient` instances
    (``arrival_rate`` requests per step each, a request unanswered
    after ``request_timeout_steps`` counted as a timeout);
    ``closed_loop`` installs one-at-a-time
    :class:`~repro.core.clients.WorkloadClient` instances, whose 0.05 s
    think time and 0.6 s retry timeout are fixed: a closed loop rejects
    a non-default ``arrival_rate`` or ``request_timeout_steps``.
    """

    kind: str = "none"
    clients: int = 1
    arrival_rate: float = 4.0
    request_timeout_steps: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ConfigurationError(
                f"unknown workload kind {self.kind!r}; "
                f"choose from {WORKLOAD_KINDS}"
            )
        if self.clients < 1:
            raise ConfigurationError(f"clients must be >= 1, got {self.clients}")
        if self.arrival_rate <= 0:
            raise ConfigurationError(
                f"arrival_rate must be positive, got {self.arrival_rate}"
            )
        if self.request_timeout_steps <= 0:
            raise ConfigurationError(
                "request_timeout_steps must be positive, got "
                f"{self.request_timeout_steps}"
            )
        if self.kind == "closed_loop" and (
            self.arrival_rate != WorkloadSpec.arrival_rate
            or self.request_timeout_steps != WorkloadSpec.request_timeout_steps
        ):
            raise ConfigurationError(
                "a closed_loop workload has a fixed think time and retry "
                "timeout; arrival_rate and request_timeout_steps apply to "
                "open_loop only"
            )

    @property
    def active(self) -> bool:
        """Whether this scenario serves any legitimate traffic."""
        return self.kind != "none"

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadSpec":
        return cls(**data)


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, campaign-runnable composition of the scenario space.

    The grid axes mirror :func:`~repro.core.campaign.campaign_grid`
    (κ collapses for non-S2 points there, so the grid never duplicates
    specs); ``timing`` names a :class:`~repro.core.timing.TimingSpec`
    preset; adversary, faults and workload compose the run itself.
    """

    name: str
    description: str
    systems: tuple[str, ...] = ("s2",)
    schemes: tuple[str, ...] = ("po", "so")
    alphas: tuple[float, ...] = (0.15,)
    kappas: tuple[float, ...] = (0.5,)
    entropy_bits: int = 8
    timing: str = "paper"
    adversary: AdversarySpec = AdversarySpec()
    faults: FaultPlanSpec = FaultPlanSpec()
    workload: WorkloadSpec = WorkloadSpec()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario needs a non-empty name")
        object.__setattr__(self, "systems", tuple(self.systems))
        object.__setattr__(self, "schemes", tuple(self.schemes))
        object.__setattr__(self, "alphas", tuple(self.alphas))
        object.__setattr__(self, "kappas", tuple(self.kappas))
        for system in self.systems:
            if system not in ("s0", "s1", "s2"):
                raise ConfigurationError(f"unknown system {system!r}")
        for scheme in self.schemes:
            if scheme not in ("po", "so"):
                raise ConfigurationError(f"unknown scheme {scheme!r}")
        if not (self.systems and self.schemes and self.alphas and self.kappas):
            raise ConfigurationError("scenario grid axes must be non-empty")
        if self.timing not in TimingSpec.PRESETS:
            raise ConfigurationError(
                f"unknown timing preset {self.timing!r}; "
                f"choose from {TimingSpec.PRESETS}"
            )
        # attacker_partition falls back to the server tier on proxy-less
        # systems; the crash/outage kinds hard-require proxies, so every
        # grid point must have some — fail here, not mid-campaign.
        if (
            self.faults.tier == "proxies"
            and self.faults.kind in ("crash_storm", "rolling_outages")
            and any(system != "s2" for system in self.systems)
        ):
            raise ConfigurationError(
                "a proxy-tier crash/outage plan needs an all-S2 grid "
                f"(got systems={self.systems})"
            )

    # ------------------------------------------------------------------
    def grid(self) -> list[SystemSpec]:
        """The scenario's :class:`SystemSpec` grid, in campaign order."""
        from ..core.campaign import campaign_grid
        from ..core.specs import SystemClass
        from ..randomization.obfuscation import Scheme

        return campaign_grid(
            systems=[SystemClass[s.upper()] for s in self.systems],
            schemes=[Scheme[s.upper()] for s in self.schemes],
            alphas=self.alphas,
            kappas=self.kappas,
            entropy_bits=self.entropy_bits,
        )

    def timing_spec(self) -> TimingSpec:
        """Resolve the named timing preset."""
        return TimingSpec.named(self.timing)

    def replace(self, **changes: Any) -> "ScenarioSpec":
        """Copy with fields changed (grid overrides for benches/tests)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    # Dict / JSON round trip
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """JSON-ready plain-dict form (lists for tuples)."""
        return {
            "name": self.name,
            "description": self.description,
            "systems": list(self.systems),
            "schemes": list(self.schemes),
            "alphas": list(self.alphas),
            "kappas": list(self.kappas),
            "entropy_bits": self.entropy_bits,
            "timing": self.timing,
            "adversary": self.adversary.as_dict(),
            "faults": self.faults.as_dict(),
            "workload": self.workload.as_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        """Inverse of :meth:`as_dict` (bit-exact round trip)."""
        data = dict(data)
        for axis in ("systems", "schemes", "alphas", "kappas"):
            if axis in data:
                data[axis] = tuple(data[axis])
        if "adversary" in data:
            data["adversary"] = AdversarySpec.from_dict(data["adversary"])
        if "faults" in data:
            data["faults"] = FaultPlanSpec.from_dict(data["faults"])
        if "workload" in data:
            data["workload"] = WorkloadSpec.from_dict(data["workload"])
        return cls(**data)
