"""Unit tests for the non-paper adversary strategies.

The stealth (duty-cycled) and coordinated (multi-agent) strategies must
preserve the stock attacker's key-pool/RNG discipline: deterministic
probe streams, sampling without replacement against one pool, and the
dead-stream bookkeeping the epoch fast-forward relies on.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacker import strategies
from repro.attacker.agent import AttackerProcess
from repro.attacker.driver import ProbeDriver
from repro.attacker.strategies import DutyCycledProbeDriver
from repro.core.builders import build_system
from repro.core.specs import s1, s2
from repro.core.timing import TimingSpec
from repro.errors import ConfigurationError
from repro.randomization.obfuscation import Scheme


def _arena(spec, seed=3, stop_on_compromise=False):
    deployed = build_system(
        spec,
        seed=seed,
        timing=TimingSpec.paper(),
        stop_on_compromise=stop_on_compromise,
    )
    attacker = AttackerProcess(
        deployed.sim,
        deployed.network,
        keyspace=spec.keyspace,
        omega=spec.omega,
        period=spec.period,
    )
    deployed.network.register(attacker)
    return deployed, attacker


# ----------------------------------------------------------------------
# Duty-cycled (stealth) probing
# ----------------------------------------------------------------------
def test_duty_cycle_throttles_long_run_rate():
    """A 50%-duty stream lands ~half the probes of a full stream over
    whole cycles, and is bit-deterministic for a fixed seed."""

    def probes(duty: bool) -> int:
        spec = s1(Scheme.SO, alpha=0.2, entropy_bits=6)
        deployed, attacker = _arena(spec)
        if duty:
            attacker.attack_direct_duty_cycled(
                deployed.servers[0],
                on_fraction=0.5,
                cycle_periods=2.0,
                pool_id="server-tier",
            )
        else:
            attacker.attack_direct(deployed.servers[0], pool_id="server-tier")
        deployed.start()
        deployed.sim.run(until=4.0)
        return attacker.probes_sent_direct

    full = probes(False)
    half = probes(True)
    assert 0.4 <= half / full <= 0.6
    assert probes(True) == half  # deterministic


def _run_recording_probes(deployed, attacker, driver, until, budget=100_000):
    """Step the run up to ``until`` and return ``(time, guess)`` of every
    probe ``driver`` sends, read from the attacker's probe counter.  A
    clock that stalls fails within ``budget`` events."""
    sim = deployed.sim
    probes: list[tuple[float, int]] = []
    sent = attacker.probes_sent_direct
    for _ in range(budget):
        if not sim.step() or sim.now >= until:
            return probes
        if attacker.probes_sent_direct != sent:
            assert attacker.probes_sent_direct == sent + 1
            sent = attacker.probes_sent_direct
            probes.append((sim.now, driver._last_guess))
    raise AssertionError(f"the clock stalled at t={sim.now}")


def test_duty_cycle_probes_only_inside_on_windows():
    """Every probe timestamp falls in [k*cycle, k*cycle + on_time)."""
    spec = s1(Scheme.SO, alpha=0.3, entropy_bits=8)
    deployed, attacker = _arena(spec)
    driver = attacker.attack_direct_duty_cycled(
        deployed.servers[0],
        on_fraction=0.25,
        cycle_periods=2.0,
        pool_id="server-tier",
    )
    deployed.start()
    probes = _run_recording_probes(deployed, attacker, driver, until=8.0)
    assert len(probes) > 4  # several windows' worth, not one burst
    assert {int(t // 2.0) for t, _ in probes} == {0, 1, 2, 3}
    for t, _ in probes:
        assert t % 2.0 < 0.5 + 1e-9  # on_time = 0.25 * 2.0 periods = 0.5


class SuperDutyCycledProbeDriver(ProbeDriver):
    """Reference: the duty-cycled driver that reached the base fire
    through ``super()`` and slept off-windows through ``self._fire``.

    Its off-window sleep carries the rounding guard of the driver under
    test (see ``test_duty_cycle_wakes_past_a_cycle_start_lost_to_rounding``):
    without it, cycles such as 0.3 stall the clock and no run ends.
    """

    __slots__ = ("on_time", "cycle_time")

    def __init__(
        self, attacker, target, pool, interval, on_time, cycle_time, initiator=None
    ):
        super().__init__(attacker, target, pool, interval, initiator)
        self.on_time = on_time
        self.cycle_time = cycle_time

    def _fire(self):
        if not self.active:
            return
        now = self.attacker.sim.now
        phase = now % self.cycle_time
        if phase >= self.on_time:
            wake = now + (self.cycle_time - phase)
            if wake == now:
                wake = math.nextafter(now, math.inf)
            self.attacker.sim.schedule_at(wake, self._fire)
            return
        super()._fire()


@given(
    rate=st.floats(min_value=2.0, max_value=40.0),
    on_fraction=st.floats(min_value=0.05, max_value=1.0),
    cycle_periods=st.floats(min_value=0.2, max_value=3.0),
    seed=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=100, deadline=None)
def test_duty_cycle_probes_match_the_super_call_reference(
    rate, on_fraction, cycle_periods, seed
):
    """Probe times and guesses equal the reference driver's, and every
    probe lies inside an on-window, over random pacing and cycles."""
    spec = s1(Scheme.SO, alpha=0.3, entropy_bits=8)

    def probes(driver_class):
        deployed, attacker = _arena(spec, seed=seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(strategies, "DutyCycledProbeDriver", driver_class)
            driver = attacker.attack_direct_duty_cycled(
                deployed.servers[0],
                on_fraction=on_fraction,
                cycle_periods=cycle_periods,
                pool_id="server-tier",
                rate=rate,
            )
        assert type(driver) is driver_class
        deployed.start()
        return driver, _run_recording_probes(deployed, attacker, driver, until=3.0)

    driver, got = probes(DutyCycledProbeDriver)
    _, want = probes(SuperDutyCycledProbeDriver)
    assert got == want
    assert got
    for t, _ in got:
        assert t % driver.cycle_time < driver.on_time


def test_duty_cycle_wakes_past_a_cycle_start_lost_to_rounding():
    """0.9 % 0.3 is a hair under 0.3, so the sleep to the next cycle start
    rounds back to 0.9: the stream must still move the clock on and
    probe in the window that opens there."""
    assert 0.8999999999999999 + (0.3 - 0.8999999999999999 % 0.3) == 0.8999999999999999
    spec = s1(Scheme.SO, alpha=0.3, entropy_bits=8)
    deployed, attacker = _arena(spec, seed=1)
    driver = attacker.attack_direct_duty_cycled(
        deployed.servers[0],
        on_fraction=0.5,
        cycle_periods=0.3,
        pool_id="server-tier",
        rate=10.0,
    )
    assert driver.cycle_time == 0.3
    deployed.start()
    deployed.sim.run(until=3.5, max_events=20_000)
    assert deployed.sim.now == 3.5  # not stalled inside the event budget
    assert attacker.probes_sent_direct > 10


def test_duty_cycle_validation():
    spec = s1(Scheme.SO, alpha=0.2, entropy_bits=6)
    deployed, attacker = _arena(spec)
    with pytest.raises(ConfigurationError):
        attacker.attack_direct_duty_cycled(deployed.servers[0], on_fraction=0.0)
    with pytest.raises(ConfigurationError):
        attacker.attack_direct_duty_cycled(deployed.servers[0], on_fraction=1.5)


# ----------------------------------------------------------------------
# Coordinated (multi-agent) probing
# ----------------------------------------------------------------------
def test_coordinated_agents_are_distinct_registered_endpoints():
    spec = s2(Scheme.SO, alpha=0.3, kappa=0.5, entropy_bits=6)
    deployed, attacker = _arena(spec, seed=5)
    drivers = attacker.attack_direct_coordinated(deployed.proxies[0], agents=3)
    assert len(drivers) == 3
    initiators = {d.initiator for d in drivers}
    assert initiators == {"attacker~agent0", "attacker~agent1", "attacker~agent2"}
    for name in initiators:
        assert deployed.network.knows(name)


def test_coordinated_agents_share_one_pool_without_duplicates():
    """N streams on one pool must sample without replacement jointly:
    the pool's tried set grows by exactly the number of fresh guesses,
    and the aggregate rate matches a single full-rate stream."""
    spec = s2(Scheme.SO, alpha=0.3, kappa=0.5, entropy_bits=6)
    deployed, attacker = _arena(spec, seed=5)
    attacker.attack_direct_coordinated(deployed.proxies[0], agents=3)
    deployed.start()
    deployed.sim.run(until=2.0)
    pool = attacker.pool(deployed.proxies[0].name)
    assert pool.tried_count <= spec.chi
    # Sampling without replacement: every issued guess was fresh while
    # the instance's key stood (SO: no resets), so guesses == tried.
    assert pool.total_guesses == pool.tried_count

    # Aggregate pacing matches a single stream of the same total rate.
    single_deployed, single_attacker = _arena(spec, seed=5)
    single_attacker.attack_direct(single_deployed.proxies[0])
    single_deployed.start()
    single_deployed.sim.run(until=2.0)
    assert (abs(attacker.probes_sent_direct - single_attacker.probes_sent_direct) <= 3)


def test_coordinated_attack_reaches_compromise_deterministically():
    spec = s1(Scheme.SO, alpha=0.5, entropy_bits=4)

    def run():
        deployed, attacker = _arena(spec, seed=11, stop_on_compromise=True)
        attacker.attack_direct_coordinated(
            deployed.servers[0], agents=2, pool_id="server-tier"
        )
        deployed.start()
        deployed.sim.run(until=400.0)
        return deployed.monitor.is_compromised, deployed.sim.now

    first = run()
    assert first[0]  # a 2^4 space at omega=8 falls quickly
    assert run() == first


def test_coordinated_validation():
    spec = s1(Scheme.SO, alpha=0.2, entropy_bits=6)
    deployed, attacker = _arena(spec)
    with pytest.raises(ConfigurationError):
        attacker.attack_direct_coordinated(deployed.servers[0], agents=0)
