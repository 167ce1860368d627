"""Protocol tests for primary-backup replication."""

from __future__ import annotations

import random

from repro.crypto.signatures import SignatureAuthority
from repro.net.latency import FixedLatency
from repro.net.message import Message
from repro.net.network import Network
from repro.randomization.keyspace import KeySpace
from repro.replication.primary_backup import (
    HEARTBEAT,
    PROBE_OP,
    REQUEST,
    SERVER_RESPONSE,
    STATE_UPDATE,
    PBServer,
)
from repro.replication.state_machine import KVStoreService, SessionTokenService
from repro.sim.engine import Simulator
from repro.sim.process import SimProcess


class ResponseCollector(SimProcess):
    """Stands in for a proxy/client: collects signed server responses."""

    def __init__(self, sim, name, authority):
        super().__init__(sim, name, respawn_delay=None)
        self.authority = authority
        self.responses: list[dict] = []

    def handle_message(self, message: Message) -> None:
        if message.mtype == SERVER_RESPONSE:
            signed = message.payload["signed"]
            assert self.authority.verify(signed), "server signature must verify"
            self.responses.append(signed.payload)


def build_tier(n=3, service_factory=lambda i: KVStoreService(), seed=1):
    sim = Simulator(seed=seed)
    network = Network(sim, latency=FixedLatency(0.001))
    authority = SignatureAuthority(random.Random(5))
    keyspace = KeySpace(8)
    servers = []
    for i in range(n):
        server = PBServer(
            sim,
            name=f"server-{i}",
            index=i,
            keyspace=keyspace,
            rng=random.Random(50 + i),
            service=service_factory(i),
            authority=authority,
            network=network,
        )
        network.register(server)
        servers.append(server)
    names = [s.name for s in servers]
    for s in servers:
        s.configure(names)
    collector = ResponseCollector(sim, "collector", authority)
    network.register(collector)
    return sim, network, authority, servers, collector


def send_request(network, request_id, body, reply_to=("collector",)):
    for name in [f"server-{i}" for i in range(3)]:
        if network.knows(name):
            network.send(
                Message(
                    "collector",
                    name,
                    REQUEST,
                    {
                        "request_id": request_id,
                        "client": "collector",
                        "reply_to": list(reply_to),
                        "body": body,
                    },
                )
            )


def test_initial_primary_is_lowest_index():
    sim, net, auth, servers, collector = build_tier()
    assert servers[0].is_primary
    assert not servers[1].is_primary


def test_request_executed_once_and_all_servers_respond():
    sim, net, auth, servers, collector = build_tier()
    send_request(net, "r1", {"op": "put", "key": "a", "value": 1})
    sim.run(until=0.2)
    # One execution (the primary), three signed responses (every server
    # signs and returns, per the FORTRESS interaction pattern).
    assert servers[0].requests_executed == 1
    assert servers[1].requests_executed == 0
    indices = sorted(r["index"] for r in collector.responses)
    assert indices == [0, 1, 2]
    assert all(r["response"] == {"ok": True} for r in collector.responses)


def test_backups_receive_state_through_updates():
    sim, net, auth, servers, collector = build_tier()
    send_request(net, "r1", {"op": "put", "key": "a", "value": 42})
    sim.run(until=0.2)
    for backup in servers[1:]:
        assert backup.seq == 1
        assert backup.service.apply({"op": "get", "key": "a"})["value"] == 42


def test_duplicate_request_not_reexecuted():
    sim, net, auth, servers, collector = build_tier()
    send_request(net, "r1", {"op": "incr", "key": "c"})
    sim.run(until=0.2)
    send_request(net, "r1", {"op": "incr", "key": "c"})
    sim.run(until=0.4)
    assert servers[0].requests_executed == 1
    assert servers[0].service.apply({"op": "get", "key": "c"})["value"] == 1


def test_nondeterministic_service_replicates_consistently():
    """The PB advantage: backups install the primary's state, so even a
    non-deterministic service stays consistent across replicas."""
    sim, net, auth, servers, collector = build_tier(
        service_factory=lambda i: SessionTokenService(seed=1000 + i)
    )
    send_request(net, "r1", {"op": "login", "user": "u"})
    sim.run(until=0.2)
    token = next(r["response"]["token"] for r in collector.responses if r["index"] == 0)
    digests = {s.service.digest() for s in servers}
    assert len(digests) == 1  # replicas agree despite non-determinism
    # And every server's signed response carries the *same* token.
    tokens = {r["response"]["token"] for r in collector.responses}
    assert tokens == {token}


def test_failover_promotes_next_index():
    sim, net, auth, servers, collector = build_tier()
    servers[0].stop()
    sim.run(until=2.0)  # heartbeat timeout is 0.2
    assert servers[1].is_primary
    send_request(net, "r2", {"op": "put", "key": "b", "value": 2})
    sim.run(until=2.5)
    assert servers[1].requests_executed == 1
    assert any(r["index"] == 1 for r in collector.responses)


def test_probe_request_crashes_primary_but_daemon_restores_service():
    sim, net, auth, servers, collector = build_tier()
    wrong_guess = (servers[0].address_space.key + 1) % servers[0].keyspace.size
    send_request(net, "p1", {"op": PROBE_OP, "guess": wrong_guess})
    sim.run(until=0.005)
    assert servers[0].crash_count == 1
    sim.run(until=0.5)
    # Forking daemon respawned the primary; service continues.
    send_request(net, "r3", {"op": "put", "key": "z", "value": 9})
    sim.run(until=1.0)
    assert any(r["request_id"] == "r3" for r in collector.responses)


def test_probe_request_with_correct_key_compromises_primary():
    sim, net, auth, servers, collector = build_tier()
    send_request(net, "p1", {"op": PROBE_OP, "guess": servers[0].address_space.key})
    sim.run(until=0.1)
    assert servers[0].compromised
    assert servers[0].crash_count == 0


def test_probe_only_processed_by_primary():
    sim, net, auth, servers, collector = build_tier()
    wrong = (servers[0].address_space.key + 1) % servers[0].keyspace.size
    send_request(net, "p1", {"op": PROBE_OP, "guess": wrong})
    sim.run(until=0.1)
    assert servers[1].crash_count == 0
    assert servers[2].crash_count == 0


def test_compromised_server_corrupts_responses():
    sim, net, auth, servers, collector = build_tier()
    servers[0].mark_compromised()
    send_request(net, "r1", {"op": "put", "key": "a", "value": 1})
    sim.run(until=0.2)
    primary_response = next(r for r in collector.responses if r["index"] == 0)
    assert primary_response["response"]["error"] == "__corrupted__"
    # Honest backups still return the true response.
    backup_response = next(r for r in collector.responses if r["index"] == 1)
    assert backup_response["response"] == {"ok": True}


def test_rebooted_backup_catches_up_via_sync():
    sim, net, auth, servers, collector = build_tier()
    send_request(net, "r1", {"op": "put", "key": "a", "value": 1})
    sim.run(until=0.2)
    servers[2].begin_reboot(0.05)  # misses the next request
    send_request(net, "r2", {"op": "put", "key": "b", "value": 2})
    sim.run(until=1.0)
    assert servers[2].seq == 2
    assert servers[2].service.apply({"op": "get", "key": "b"})["value"] == 2


class Listener(SimProcess):
    """A non-server member: records the message types it receives."""

    def __init__(self, sim, name):
        super().__init__(sim, name, respawn_delay=None)
        self.received: list[str] = []

    def handle_message(self, message: Message) -> None:
        self.received.append(message.mtype)


def test_reconfigured_membership_gets_primary_multicasts():
    """The primary multicasts heartbeats and state updates to the
    members of its latest ``configure`` call."""
    sim, net, auth, servers, collector = build_tier()
    listener = Listener(sim, "listener")
    net.register(listener)
    sim.run(until=0.5)
    assert listener.received == []
    servers[0].configure([s.name for s in servers] + ["listener"])
    send_request(net, "r1", {"op": "put", "key": "a", "value": 1})
    sim.run(until=1.0)
    assert listener.received.count(HEARTBEAT) >= 9
    assert listener.received.count(STATE_UPDATE) == 1
