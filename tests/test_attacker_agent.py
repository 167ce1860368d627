"""Protocol tests for the attacker: probing, pacing, de-randomization,
launch pads."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.attacker.agent import AttackerProcess
from repro.attacker.probe import connection_probe, is_intrusion_ack, request_probe
from repro.net.latency import FixedLatency
from repro.net.network import Network
from repro.randomization.keyspace import KeySpace
from repro.randomization.node import RandomizedProcess
from repro.randomization.obfuscation import ObfuscationManager, Scheme
from repro.replication.primary_backup import PROBE_OP
from repro.sim.engine import Simulator


def build_arena(entropy=5, omega=8.0, reset_on_epoch=False, seed=1):
    sim = Simulator(seed=seed)
    network = Network(sim, latency=FixedLatency(0.0005))
    attacker = AttackerProcess(
        sim,
        network,
        keyspace=KeySpace(entropy),
        omega=omega,
        period=1.0,
        reset_pools_on_epoch=reset_on_epoch,
    )
    network.register(attacker)
    return sim, network, attacker


def add_target(sim, network, name, entropy=5, seed=10):
    node = RandomizedProcess(
        sim, name, KeySpace(entropy), random.Random(seed), respawn_delay=0.01
    )
    network.register(node)
    return node


# ----------------------------------------------------------------------
# Probe payloads
# ----------------------------------------------------------------------
def test_probe_payload_shapes():
    assert connection_probe(7) == {"kind": "probe", "guess": 7}
    payload = request_probe(9, "attacker")
    assert payload["body"] == {"op": PROBE_OP, "guess": 9}
    assert payload["client"] == "attacker"
    assert payload["request_id"] != request_probe(9, "attacker")["request_id"]
    assert is_intrusion_ack({"kind": "intrusion_ack"})
    assert not is_intrusion_ack({"kind": "probe"})
    assert not is_intrusion_ack("nope")


# ----------------------------------------------------------------------
# Direct de-randomization
# ----------------------------------------------------------------------
def test_direct_attack_exhausts_keyspace_and_wins():
    """With 2^5 = 32 keys and 8 probes/step against an SO target, the
    attacker must find the key within 4 steps (without replacement)."""
    sim, network, attacker = build_arena(entropy=5, omega=8.0)
    target = add_target(sim, network, "victim")
    attacker.attack_direct(target)
    sim.run(until=6.0)
    assert target.compromised
    assert attacker.compromises_observed
    assert attacker.compromises_observed[0][1] == "victim"
    # Pacing: the key is found within ~32 *distinct* guesses (probes
    # after discovery replay the known key and are not new guesses).
    assert attacker.pool("victim").tried_count <= 32


def test_direct_attack_counts_wrong_guesses_as_crashes():
    sim, network, attacker = build_arena(entropy=5, omega=8.0)
    target = add_target(sim, network, "victim")
    attacker.attack_direct(target)
    sim.run(until=6.0)
    # Every distinct wrong guess crashed the target exactly once; probes
    # after the discovery replay the known key and cause no crashes.
    pool = attacker.pool("victim")
    assert pool.known_key == target.address_space.key
    assert target.crash_count == pool.tried_count - 1


def test_probe_pacing_rate():
    sim, network, attacker = build_arena(entropy=16, omega=10.0)
    target = add_target(sim, network, "victim", entropy=16)
    attacker.attack_direct(target)
    sim.run(until=3.0)
    # ~10 probes per unit step, minus reconnect hiccups after crashes.
    assert 15 <= attacker.probes_sent_direct <= 30


def test_shared_pool_across_targets():
    """S1 semantics: identically randomized servers form one pool, so
    the same tracker is reused and guesses are not duplicated."""
    sim, network, attacker = build_arena(entropy=5, omega=4.0)
    a = add_target(sim, network, "server-0", seed=3)
    b = add_target(sim, network, "server-1", seed=4)
    b.address_space.set_key(a.address_space.key)  # identical randomization
    attacker.attack_direct(a, pool_id="tier")
    attacker.attack_direct(b, pool_id="tier")
    sim.run(until=10.0)
    assert attacker.pool("tier").total_guesses <= 33  # one pool, no repeats
    assert a.compromised or b.compromised


def test_po_epoch_reset_restores_key_uncertainty():
    """Against PO the attacker resets pools at each epoch: eliminations
    are worthless once keys are resampled."""
    sim, network, attacker = build_arena(entropy=8, omega=4.0, reset_on_epoch=True)
    target = add_target(sim, network, "victim", entropy=8)
    manager = ObfuscationManager(sim, Scheme.PO, period=1.0)
    manager.add_node(target)
    manager.add_epoch_listener(attacker.on_epoch)
    attacker.attack_direct(target)
    manager.start()
    sim.run(until=5.5)
    pool = attacker.pool("victim")
    assert pool.resets == 5
    # Within any epoch at 4 probes/step the pool never accumulates far.
    assert pool.tried_count <= 8


def test_connection_refused_while_target_down_then_recovers():
    sim, network, attacker = build_arena(entropy=10, omega=5.0)
    target = add_target(sim, network, "victim", entropy=10)
    target.crash()  # down before the attack begins; no daemon ran yet
    attacker.attack_direct(target)
    sim.run(until=2.0)
    assert attacker.probes_sent_direct > 0  # reconnected after respawn


# ----------------------------------------------------------------------
# Launch pad
# ----------------------------------------------------------------------
def test_launchpad_spawns_on_proxy_compromise_and_stops_on_refresh():
    sim, network, attacker = build_arena(entropy=5, omega=8.0)
    proxy = add_target(sim, network, "proxy-0", seed=6)
    server = add_target(sim, network, "server-0", seed=7)
    server.allowed_connection_initiators = {"proxy-0"}  # fortified
    attacker.enable_launchpad([proxy], ["server-0"], pool_id="server-tier")

    # The attacker cannot reach the server directly.
    assert network.connect(attacker.name, "server-0") is None

    proxy.mark_compromised()
    sim.run(until=5.0)
    # Launch-pad probing from the proxy reached (and here, with 32 keys,
    # compromised) the server.
    assert server.compromised
    assert attacker.pool("server-tier").total_guesses > 0

    # Refreshing the proxy tears the launch pad down.
    proxy.begin_reboot(0.0)
    assert attacker._launchpad_drivers == {}


def test_launchpad_single_stream_even_with_two_proxies():
    sim, network, attacker = build_arena(entropy=10, omega=4.0)
    proxies = [
        add_target(sim, network, f"proxy-{i}", entropy=10, seed=i) for i in range(2)
    ]
    server = add_target(sim, network, "server-0", entropy=10, seed=9)
    attacker.enable_launchpad(proxies, ["server-0"], pool_id="server-tier")
    proxies[0].mark_compromised()
    proxies[1].mark_compromised()
    assert len(attacker._launchpad_drivers) == 1


def test_launchpad_fails_over_to_other_compromised_proxy():
    sim, network, attacker = build_arena(entropy=12, omega=4.0)
    proxies = [
        add_target(sim, network, f"proxy-{i}", entropy=12, seed=i) for i in range(2)
    ]
    server = add_target(sim, network, "server-0", entropy=12, seed=9)
    attacker.enable_launchpad(proxies, ["server-0"], pool_id="server-tier")
    proxies[0].mark_compromised()
    proxies[1].mark_compromised()
    first_host = next(iter(attacker._launchpad_drivers))
    # Refresh the hosting proxy: the stream must move to the other one.
    network.process(first_host).begin_reboot(0.0)
    assert len(attacker._launchpad_drivers) == 1
    assert next(iter(attacker._launchpad_drivers)) != first_host


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_launchpad_goes_to_the_earliest_compromised_proxy(order):
    """Host choice follows compromise order, never object addresses: the
    first-compromised proxy hosts the launch pad, and when it is
    refreshed the stream moves to the next-compromised one."""
    sim, network, attacker = build_arena(entropy=12, omega=4.0)
    proxies = [
        add_target(sim, network, f"proxy-{i}", entropy=12, seed=i) for i in range(3)
    ]
    add_target(sim, network, "server-0", entropy=12, seed=9)
    attacker.enable_launchpad(proxies, ["server-0"], pool_id="server-tier")
    for index in order:
        proxies[index].mark_compromised()
    first, second, _ = (proxies[index].name for index in order)
    assert list(attacker._launchpad_drivers) == [first]
    network.process(first).begin_reboot(0.0)
    assert list(attacker._launchpad_drivers) == [second]
