"""Tests for the scenario subsystem.

Locks down the three contracts the subsystem ships with:

* **declarative round trip** — every spec (including all built-ins)
  survives dict/JSON serialization bit-exactly, so scenario campaign
  records stay self-describing and diffable;
* **deterministic composition** — fault plans derive from the run's
  seeded RNG, workloads use fixed names, adversaries share the stock
  key-pool discipline: scenario campaigns are bit-identical for any
  worker count or batch size (mirroring ``test_protocol_campaign``);
* **fast-forward gating** — the PR 4 epoch fast-forward never arms
  while injector events or workload traffic are in play, and still
  arms for pure-attack scenarios.
"""

from __future__ import annotations

import json

import pytest

from repro.core.campaign import campaign_record, run_scenario_campaign
from repro.errors import ConfigurationError
from repro.faults.injector import CrashFault, MessageLossFault, PartitionFault
from repro.scenarios import (
    AdversarySpec,
    FaultPlanSpec,
    ScenarioSpec,
    WorkloadSpec,
    all_scenarios,
    build_fault_plan,
    deploy_scenario,
    get_scenario,
    register_scenario,
    scenario_names,
    unregister_scenario,
)

#: A small, faulty, workload-carrying scenario used by the invariance
#: and gating tests below (overrides keep every run cheap).
TORTURE = get_scenario("combined-stress").replace(
    name="test-combined-small",
    entropy_bits=6,
    alphas=(0.3,),
)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_builtin_library_has_at_least_eight_scenarios():
    names = scenario_names()
    assert len(names) >= 8
    for required in (
        "paper-baseline",
        "crash-storm-under-attack",
        "rolling-outages",
        "partitioned-attacker",
        "lossy-wan",
        "degraded-timing",
        "stealth-prober",
        "coordinated-attacker",
    ):
        assert required in names


def test_register_scenario_decorator_and_duplicate_rejection():
    @register_scenario
    def _extra() -> ScenarioSpec:
        return ScenarioSpec(name="test-extra", description="ephemeral")

    try:
        assert get_scenario("test-extra").description == "ephemeral"
        with pytest.raises(ConfigurationError, match="already registered"):

            @register_scenario
            def _dup() -> ScenarioSpec:
                return ScenarioSpec(name="test-extra", description="again")

    finally:
        unregister_scenario("test-extra")


def test_register_scenario_rejects_non_spec_factories():
    with pytest.raises(ConfigurationError, match="not a ScenarioSpec"):

        @register_scenario
        def _bad():
            return {"name": "nope"}


def test_get_scenario_unknown_name_lists_known():
    with pytest.raises(ConfigurationError, match="registered:"):
        get_scenario("no-such-scenario")


# ----------------------------------------------------------------------
# Spec validation + round trip
# ----------------------------------------------------------------------
def test_every_builtin_round_trips_through_dict_and_json():
    for spec in all_scenarios():
        assert ScenarioSpec.from_dict(spec.as_dict()) == spec
        rehydrated = ScenarioSpec.from_dict(json.loads(json.dumps(spec.as_dict())))
        assert rehydrated == spec


def test_spec_validation_rejects_bad_axes_and_kinds():
    with pytest.raises(ConfigurationError):
        ScenarioSpec(name="", description="x")
    with pytest.raises(ConfigurationError):
        ScenarioSpec(name="x", description="x", systems=("s3",))
    with pytest.raises(ConfigurationError):
        ScenarioSpec(name="x", description="x", schemes=())
    with pytest.raises(ConfigurationError):
        ScenarioSpec(name="x", description="x", timing="warp")
    with pytest.raises(ConfigurationError):
        AdversarySpec(kind="quantum")
    with pytest.raises(ConfigurationError):
        AdversarySpec(kind="stealth", duty_fraction=0.0)
    with pytest.raises(ConfigurationError):
        AdversarySpec(kind="coordinated", agents=0)
    with pytest.raises(ConfigurationError):
        FaultPlanSpec(kind="meteor_strike")
    with pytest.raises(ConfigurationError):
        FaultPlanSpec(kind="loss_windows", windows=())
    with pytest.raises(ConfigurationError):
        FaultPlanSpec(kind="loss_windows", windows=((1.0, 1.0, 2.0),))
    with pytest.raises(ConfigurationError):
        FaultPlanSpec(kind="rolling_outages", period_steps=1.0, down_steps=1.0)
    with pytest.raises(ConfigurationError):
        WorkloadSpec(kind="tsunami")
    with pytest.raises(ConfigurationError):
        ScenarioSpec(
            name="x",
            description="x",
            systems=("s1",),
            faults=FaultPlanSpec(kind="crash_storm", tier="proxies"),
        )


def test_grid_mirrors_campaign_grid_semantics():
    spec = ScenarioSpec(
        name="x",
        description="x",
        systems=("s1", "s2"),
        schemes=("po", "so"),
        alphas=(0.1, 0.2),
        kappas=(0.25, 0.5),
    )
    grid = spec.grid()
    s1_points = [s for s in grid if s.label.startswith("S1")]
    s2_points = [s for s in grid if s.label.startswith("S2")]
    assert len(s1_points) == 2 * 2  # kappa collapses for non-S2
    assert len(s2_points) == 2 * 2 * 2
    assert len(set(grid)) == len(grid)


# ----------------------------------------------------------------------
# Fault-plan generation
# ----------------------------------------------------------------------
def test_fault_plans_are_seed_deterministic_and_seed_sensitive():
    scenario = get_scenario("crash-storm-under-attack")
    spec = scenario.grid()[0]

    def plan_for(seed):
        deployed = deploy_scenario(spec, scenario, seed=seed, max_steps=50)
        return build_fault_plan(
            scenario.faults,
            deployed,
            horizon=50.0,
            rng=deployed.sim.rng.stream("scenario:faults-probe"),
        )

    assert plan_for(7) == plan_for(7)
    assert plan_for(7) != plan_for(8)


def test_fault_plan_kinds_produce_expected_event_types():
    cases = [
        (get_scenario("crash-storm-under-attack"), CrashFault),
        (get_scenario("rolling-outages"), CrashFault),
        (get_scenario("partitioned-attacker"), PartitionFault),
        (get_scenario("lossy-wan"), MessageLossFault),
    ]
    for scenario, expected_type in cases:
        spec = scenario.grid()[0]
        deployed = deploy_scenario(spec, scenario, seed=3, max_steps=60)
        assert deployed.injector is not None, scenario.name
        plan = build_fault_plan(
            scenario.faults,
            deployed,
            horizon=60.0,
            rng=deployed.sim.rng.stream("probe"),
        )
        assert plan, scenario.name
        assert all(isinstance(f, type(plan[0])) for f in plan)
        assert isinstance(plan[0], expected_type), scenario.name


def test_loss_windows_clamp_to_short_horizons():
    scenario = get_scenario("lossy-wan")
    spec = scenario.grid()[0]
    deployed = deploy_scenario(spec, scenario, seed=1, max_steps=8)
    # windows starting at steps 4 and (10, 20) — only the first fits
    plan = build_fault_plan(
        scenario.faults,
        deployed,
        horizon=8.0,
        rng=deployed.sim.rng.stream("probe"),
    )
    assert len(plan) == 1 and plan[0].time == 4.0


def test_proxy_tier_crash_plan_rejected_on_mixed_grids():
    """A proxies-tier crash/outage plan on a grid with any non-S2 point
    would crash mid-campaign when the proxy-less point builds; the spec
    rejects it at construction instead."""
    with pytest.raises(ConfigurationError, match="all-S2 grid"):
        ScenarioSpec(
            name="x",
            description="x",
            systems=("s1", "s2"),
            faults=FaultPlanSpec(kind="crash_storm", tier="proxies"),
        )
    # attacker_partition falls back to the server tier, so mixed grids
    # are fine there.
    ScenarioSpec(
        name="x",
        description="x",
        systems=("s1", "s2"),
        faults=FaultPlanSpec(kind="attacker_partition", tier="proxies"),
    )


def test_attacker_partition_covers_coordinated_agent_endpoints():
    """A coordinated adversary probes from its agent machines: the
    partition plan must cut those endpoints too, or the 'attacker cut
    off' scenario partitions nothing that matters."""
    scenario = get_scenario("partitioned-attacker").replace(
        name="test-partitioned-coordinated",
        adversary=AdversarySpec(kind="coordinated", agents=2),
    )
    spec = scenario.grid()[0]
    deployed = deploy_scenario(spec, scenario, seed=2, max_steps=60)
    plan = build_fault_plan(
        scenario.faults,
        deployed,
        horizon=60.0,
        rng=deployed.sim.rng.stream("probe"),
    )
    endpoints = {e for f in plan for e in (f.a, f.b)}
    assert "attacker~agent0" in endpoints or "attacker~agent1" in endpoints
    assert deployed.attacker.endpoint_names == (
        "attacker", "attacker~agent0", "attacker~agent1"
    )


def test_attacker_partition_cuts_the_probe_paths():
    scenario = get_scenario("partitioned-attacker")
    spec = scenario.grid()[0]
    deployed = deploy_scenario(spec, scenario, seed=2, max_steps=60)
    plan = build_fault_plan(
        scenario.faults,
        deployed,
        horizon=60.0,
        rng=deployed.sim.rng.stream("probe"),
    )
    endpoints = {frozenset((f.a, f.b)) for f in plan}
    assert all("attacker" in pair for pair in endpoints)
    proxy_names = set(deployed.proxy_names)
    assert all(pair & proxy_names for pair in endpoints)


# ----------------------------------------------------------------------
# Workload installation
# ----------------------------------------------------------------------
def test_open_loop_workload_installs_named_clients_that_serve():
    scenario = get_scenario("rolling-outages")
    spec = scenario.grid()[0]
    deployed = deploy_scenario(spec, scenario, seed=4, max_steps=40)
    assert [c.name for c in deployed.clients] == ["openloop-0"]
    deployed.start()
    deployed.sim.run(until=10.0)
    client = deployed.clients[0]
    assert client.requests_sent > 0
    assert client.responses_ok > 0  # a 1-down-at-a-time PB tier serves


def test_closed_loop_workload_uses_stock_clients():
    scenario = TORTURE.replace(
        name="test-closed-loop",
        faults=FaultPlanSpec(),
        workload=WorkloadSpec(kind="closed_loop", clients=2),
    )
    spec = scenario.grid()[0]
    deployed = deploy_scenario(spec, scenario, seed=1, max_steps=20)
    assert len(deployed.clients) == 2


# ----------------------------------------------------------------------
# Fast-forward gating (acceptance: provably inert under faults/workload)
# ----------------------------------------------------------------------
def test_fast_forward_refuses_to_arm_with_faults_or_workload():
    for name in (
        "crash-storm-under-attack",
        "rolling-outages",
        "partitioned-attacker",
        "lossy-wan",
        "combined-stress",
    ):
        scenario = get_scenario(name)
        spec = scenario.grid()[0]
        deployed = deploy_scenario(spec, scenario, seed=0, max_steps=40)
        assert deployed.attacker._fast_forward is False, name


def test_fast_forward_still_arms_for_pure_attack_scenarios():
    for name in (
        "paper-baseline",
        "degraded-timing",
        "stealth-prober",
        "coordinated-attacker",
    ):
        scenario = get_scenario(name)
        spec = scenario.grid()[0]
        deployed = deploy_scenario(spec, scenario, seed=0, max_steps=40)
        assert deployed.attacker._fast_forward is True, name


def test_faulty_scenario_runs_the_full_timeline_when_censored():
    """With the fast-forward refused, a censored faulty run must reach
    the horizon — pending injector events are never skipped."""
    from repro.core.experiment import run_protocol_lifetime

    scenario = get_scenario("partitioned-attacker")
    spec = scenario.grid()[0]
    outcome = None
    for seed in range(6):
        candidate = run_protocol_lifetime(
            spec, seed=seed, max_steps=25, scenario=scenario
        )
        if not candidate.compromised:
            outcome = candidate
            break
    assert outcome is not None, "no censored run in the first seeds"
    assert outcome.steps == 25
    assert outcome.time == 25 * spec.period  # horizon, not an early stop


# ----------------------------------------------------------------------
# Campaign invariance (mirrors test_protocol_campaign)
# ----------------------------------------------------------------------
def test_scenario_campaign_bit_identical_across_workers_and_batches():
    kwargs = dict(trials=4, max_steps=30, seed=9)
    serial = run_scenario_campaign(TORTURE, workers=1, **kwargs)
    fanned = run_scenario_campaign(TORTURE, workers=4, **kwargs)
    rebatched = run_scenario_campaign(TORTURE, workers=4, batch_size=2, **kwargs)
    for a, b, c in zip(serial, fanned, rebatched):
        assert a.spec == b.spec == c.spec
        assert a.stats == b.stats == c.stats
        assert a.censored == b.censored == c.censored
        steps = [o.steps for o in a.outcomes]
        assert steps == [o.steps for o in b.outcomes]
        assert steps == [o.steps for o in c.outcomes]
        probes = [o.metrics.probes_direct for o in a.outcomes]
        assert probes == [o.metrics.probes_direct for o in b.outcomes]
        assert probes == [o.metrics.probes_direct for o in c.outcomes]


def test_scenario_campaign_bit_identical_under_serial_fallback(monkeypatch):
    baseline = run_scenario_campaign(
        TORTURE, trials=4, max_steps=30, seed=3, batch_size=2
    )

    def _refuse(*args, **kwargs):
        raise PermissionError("process pools forbidden")

    monkeypatch.setattr("repro.mc.executor.ProcessPoolExecutor", _refuse)
    with pytest.warns(RuntimeWarning, match="process pool unavailable"):
        fallback = run_scenario_campaign(
            TORTURE, trials=4, max_steps=30, seed=3, workers=4, batch_size=2
        )
    for a, b in zip(baseline, fallback):
        assert a.stats == b.stats
        assert [o.steps for o in a.outcomes] == [o.steps for o in b.outcomes]


def test_scenario_campaign_precision_mode_invariant():
    scenario = get_scenario("crash-storm-under-attack").replace(
        name="test-precision-small",
        entropy_bits=6,
        alphas=(0.3,),
        systems=("s1",),
    )
    kwargs = dict(max_steps=50, seed=2, precision=0.35, min_trials=6, max_trials=60)
    serial = run_scenario_campaign(scenario, workers=1, **kwargs)
    fanned = run_scenario_campaign(scenario, workers=4, **kwargs)
    a, b = serial.estimates[0], fanned.estimates[0]
    assert a.stats == b.stats
    assert a.converged == b.converged
    assert [o.steps for o in a.outcomes] == [o.steps for o in b.outcomes]


def test_scenario_campaign_record_embeds_the_scenario():
    result = run_scenario_campaign(TORTURE, trials=2, max_steps=20, seed=1)
    record = campaign_record(
        result,
        timing=TORTURE.timing_spec(),
        timing_preset=TORTURE.timing,
        scenario=TORTURE,
    )
    assert record["scenario"] == TORTURE.name
    assert ScenarioSpec.from_dict(record["scenario_spec"]) == TORTURE
    assert json.loads(json.dumps(record)) == record


# ----------------------------------------------------------------------
# Adversary composition at the scenario level
# ----------------------------------------------------------------------
def test_stealth_scenario_mounts_duty_cycled_streams():
    from repro.attacker.strategies import DutyCycledProbeDriver

    scenario = get_scenario("stealth-prober")
    spec = scenario.grid()[0]
    deployed = deploy_scenario(spec, scenario, seed=0, max_steps=20)
    direct = [
        d for d in deployed.attacker._drivers
        if isinstance(d, DutyCycledProbeDriver)
    ]
    assert len(direct) == spec.n_proxies


def test_coordinated_scenario_mounts_agent_endpoints():
    scenario = get_scenario("coordinated-attacker")
    spec = scenario.grid()[0]
    deployed = deploy_scenario(spec, scenario, seed=0, max_steps=20)
    agents = scenario.adversary.agents
    for k in range(agents):
        assert deployed.network.knows(f"attacker~agent{k}")
    # agents × proxies direct streams, all driven by one orchestrator
    assert len(deployed.attacker._drivers) == agents * spec.n_proxies
    prober = deployed.attacker._indirect[0]
    assert prober.identities == agents
