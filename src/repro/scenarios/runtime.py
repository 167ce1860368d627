"""Scenario interpretation: from declarative spec to running deployment.

:func:`deploy_scenario` is the one entry point: it builds the system for
one grid point, mounts the scenario's adversary, generates and schedules
the seeded fault plan, installs the workload, and decides whether the
epoch fast-forward may arm.  The result is a ready-to-start
:class:`~repro.core.builders.DeployedSystem`;
:func:`repro.core.experiment.run_protocol_lifetime` drives it exactly
like a plain deployment, so every executor guarantee (worker/batch
invariance, pool-breakage resilience, precision mode) applies to
scenario campaigns unchanged.

Determinism: the fault plan is generated from the deployment's own
seeded RNG registry (stream ``"scenario:faults"``), workload clients
get fixed names (their streams derive from the name), and the adversary
strategies share the stock attacker's guess-buffer discipline — one
root seed fixes the entire composition.
"""

from __future__ import annotations

import random
from typing import Optional

from ..attacker.agent import AttackerProcess
from ..core.builders import DeployedSystem, add_clients, attach_attacker, build_system
from ..core.specs import SystemSpec
from ..core.timing import TimingSpec
from ..errors import ConfigurationError
from ..faults.injector import FaultEvent, FaultInjector, MessageLossFault
from ..faults.plans import crash_storm, partition_schedule
from ..faults.plans import rolling_outages as rolling_outage_plan
from ..workloads.openloop import OpenLoopClient
from .spec import AdversarySpec, FaultPlanSpec, ScenarioSpec, WorkloadSpec


def mount_adversary(
    deployed: DeployedSystem, adversary: AdversarySpec
) -> AttackerProcess:
    """Attach the scenario's adversary to a deployment.

    All three kinds reuse the §4 campaign *wiring* of
    :func:`~repro.core.builders.attach_attacker` (which streams attack
    which tier, pool sharing, launch pad) and vary only how a direct
    stream is driven — so scheme/system semantics stay single-sourced.
    """
    if adversary.kind == "paper":
        return attach_attacker(deployed)
    if adversary.kind == "stealth":

        def direct(attacker, target, pool_id=None):
            return attacker.attack_direct_duty_cycled(
                target,
                on_fraction=adversary.duty_fraction,
                cycle_periods=adversary.cycle_periods,
                pool_id=pool_id,
            )

        return attach_attacker(deployed, direct=direct)
    if adversary.kind == "coordinated":

        def direct(attacker, target, pool_id=None):
            return attacker.attack_direct_coordinated(
                target, agents=adversary.agents, pool_id=pool_id
            )

        return attach_attacker(
            deployed, direct=direct, indirect_identities=adversary.agents
        )
    raise ConfigurationError(
        f"unknown adversary kind {adversary.kind!r}"
    )  # pragma: no cover - AdversarySpec validates


def _fault_targets(
    deployed: DeployedSystem, tier: str, fallback: bool = False
) -> list[str]:
    if tier == "servers":
        return deployed.server_names
    if tier == "proxies":
        if deployed.proxies:
            return deployed.proxy_names
        if fallback:
            return deployed.server_names
        raise ConfigurationError(
            f"{deployed.spec.label} has no proxy tier to inject faults into"
        )
    return deployed.server_names + deployed.proxy_names


def build_fault_plan(
    faults: FaultPlanSpec,
    deployed: DeployedSystem,
    horizon: float,
    rng: Optional[random.Random] = None,
) -> list[FaultEvent]:
    """Generate the concrete fault plan for one deployment and horizon.

    Stochastic plans draw from the deployment's seeded
    ``"scenario:faults"`` stream, so the plan is a pure function of the
    run's root seed — worker and batch invariant by construction.
    """
    if not faults.active:
        return []
    period = deployed.spec.period
    if rng is None:
        rng = deployed.sim.rng.stream("scenario:faults")
    start = faults.start_step * period
    if faults.kind == "crash_storm":
        return crash_storm(
            rng,
            _fault_targets(deployed, faults.tier),
            horizon=horizon,
            rate=faults.rate / period,
            outage_probability=faults.outage_probability,
            outage_range=(
                faults.outage_steps[0] * period,
                faults.outage_steps[1] * period,
            ),
            start=start,
        )
    if faults.kind == "rolling_outages":
        step = faults.period_steps * period
        rounds = int((horizon - start) / step)
        if rounds < 1:
            return []
        return rolling_outage_plan(
            _fault_targets(deployed, faults.tier),
            period=step,
            down_for=faults.down_steps * period,
            rounds=rounds,
            start=start,
        )
    if faults.kind == "attacker_partition":
        attacker = deployed.attacker
        if attacker is None:
            raise ConfigurationError(
                "attacker_partition plans need the adversary mounted first"
            )
        # Cut the attacker off from his direct-probe targets (the proxy
        # tier when one exists, the server tier otherwise).  Every
        # attacker endpoint is a candidate cut: a coordinated adversary
        # probes from its agent machines, not the orchestrator.
        targets = _fault_targets(deployed, faults.tier, fallback=True)
        return partition_schedule(
            rng,
            [
                (endpoint, target)
                for target in targets
                for endpoint in attacker.endpoint_names
            ],
            horizon=horizon,
            rate=faults.rate / period,
            heal_range=(
                faults.heal_steps[0] * period,
                faults.heal_steps[1] * period,
            ),
            start=start,
        )
    # loss_windows: explicit, possibly overlapping; windows starting at
    # or past the horizon are dropped (short-budget runs of a scenario
    # declared for a longer one), tails past the horizon are harmless.
    plan = [
        MessageLossFault(
            time=start_step * period,
            rate=rate,
            duration=duration_steps * period,
        )
        for start_step, rate, duration_steps in faults.windows
        if start_step * period < horizon
    ]
    plan.sort(key=lambda fault: fault.time)
    return plan


def install_workload(deployed: DeployedSystem, workload: WorkloadSpec) -> list:
    """Install the scenario's client population (not yet started).

    Clients are appended to ``deployed.clients`` by
    :func:`~repro.core.builders.add_clients`, so
    :meth:`~repro.core.builders.DeployedSystem.start` starts them with
    the rest of the deployment.
    """
    if not workload.active:
        return []
    if workload.kind == "closed_loop":
        return add_clients(deployed, count=workload.clients)
    period = deployed.spec.period
    return add_clients(
        deployed,
        count=workload.clients,
        client_class=OpenLoopClient,
        arrival_rate=workload.arrival_rate / period,
        request_timeout=workload.request_timeout_steps * period,
    )


def deploy_scenario(
    spec: SystemSpec,
    scenario: ScenarioSpec,
    seed: int = 0,
    max_steps: int = 500,
    timing: Optional[TimingSpec] = None,
    **build_kwargs,
) -> DeployedSystem:
    """Build one grid point of ``scenario``, fully composed, not started.

    The epoch fast-forward **refuses to arm** whenever the scenario has
    injector events or workload traffic in play: a stopped-early run
    would skip pending fault applies/expiries and in-flight client
    requests, and "the attack is provably dead" no longer implies "the
    remaining timeline is inert".  Pure-attack scenarios keep the
    fast-forward (and its censored-run speedup) unchanged.
    """
    if timing is None:
        timing = scenario.timing_spec()
    deployed = build_system(spec, seed=seed, timing=timing, **build_kwargs)
    attacker = mount_adversary(deployed, scenario.adversary)
    horizon = max_steps * spec.period
    plan = build_fault_plan(scenario.faults, deployed, horizon)
    if plan:
        injector = FaultInjector(deployed.sim, deployed.network)
        injector.schedule_plan(plan, horizon=horizon)
        deployed.injector = injector
    install_workload(deployed, scenario.workload)
    if not plan and not scenario.workload.active:
        attacker.enable_fast_forward()
    return deployed
