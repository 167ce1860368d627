"""Unit tests for datagram routing, partitions, drops and ACLs."""

from __future__ import annotations

import pytest

from repro.errors import NetworkError
from repro.net.latency import FixedLatency
from repro.net.message import Message
from repro.net.network import Network
from repro.sim.engine import Simulator
from repro.sim.process import SimProcess


class Recorder(SimProcess):
    """Test process that records everything it receives."""

    def __init__(self, sim, name):
        super().__init__(sim, name, respawn_delay=None)
        self.received: list[Message] = []

    def handle_message(self, message: Message) -> None:
        self.received.append(message)


def make_pair(latency=0.001):
    sim = Simulator(seed=1)
    net = Network(sim, latency=FixedLatency(latency))
    a, b = Recorder(sim, "a"), Recorder(sim, "b")
    net.register(a)
    net.register(b)
    return sim, net, a, b


def test_send_delivers_after_latency():
    sim, net, a, b = make_pair(latency=0.5)
    net.send(Message("a", "b", "ping", {"n": 1}))
    assert b.received == []
    sim.run()
    assert len(b.received) == 1
    assert sim.now == 0.5


def test_duplicate_registration_rejected():
    sim, net, a, b = make_pair()
    with pytest.raises(NetworkError):
        net.register(Recorder(sim, "a"))


def test_send_to_unknown_destination_raises():
    sim, net, a, b = make_pair()
    with pytest.raises(NetworkError):
        net.send(Message("a", "nobody", "ping"))


def test_message_to_crashed_process_dropped():
    sim, net, a, b = make_pair()
    b.crash()
    net.send(Message("a", "b", "ping"))
    sim.run()
    assert b.received == []
    assert net.messages_dropped == 1


def test_partition_blocks_both_directions():
    sim, net, a, b = make_pair()
    net.partition("a", "b")
    net.send(Message("a", "b", "ping"))
    net.send(Message("b", "a", "pong"))
    sim.run()
    assert a.received == [] and b.received == []
    net.heal("a", "b")
    net.send(Message("a", "b", "ping"))
    sim.run()
    assert len(b.received) == 1


def test_drop_rate_loses_messages():
    sim = Simulator(seed=2)
    net = Network(sim, latency=FixedLatency(0.001), drop_rate=0.5)
    a, b = Recorder(sim, "a"), Recorder(sim, "b")
    net.register(a)
    net.register(b)
    for _ in range(200):
        net.send(Message("a", "b", "ping"))
    sim.run()
    assert 40 < len(b.received) < 160  # roughly half lost


def test_invalid_drop_rate_rejected():
    sim = Simulator()
    with pytest.raises(NetworkError):
        Network(sim, drop_rate=1.0)


def test_broadcast_reaches_all():
    sim = Simulator(seed=3)
    net = Network(sim)
    nodes = [Recorder(sim, f"n{i}") for i in range(4)]
    for node in nodes:
        net.register(node)
    net.multicast("n0", ["n1", "n2", "n3"], "hello", {"x": 1})
    sim.run()
    assert all(len(n.received) == 1 for n in nodes[1:])
    assert nodes[0].received == []


def test_sender_acl_enforced():
    sim, net, a, b = make_pair()
    b.allowed_senders = {"proxy-0"}
    net.send(Message("a", "b", "ping"))
    sim.run()
    assert b.received == []
    assert net.messages_dropped == 1


def test_counters_track_sends_and_deliveries():
    sim, net, a, b = make_pair()
    net.send(Message("a", "b", "ping"))
    sim.run()
    assert net.messages_sent == 1
    assert net.messages_delivered == 1
    assert net.messages_dropped == 0


def test_process_lookup():
    sim, net, a, b = make_pair()
    assert net.process("a") is a
    assert net.knows("b")
    assert not net.knows("zz")
    with pytest.raises(NetworkError):
        net.process("zz")


def test_alias_registration_and_delivery(sim, network):
    from repro.net.message import Message
    from repro.sim.process import SimProcess

    class Sink(SimProcess):
        def __init__(self):
            super().__init__(sim, "sink", respawn_delay=None)
            self.got = []

        def handle_message(self, message):
            self.got.append(message)

    sink = Sink()
    network.register(sink)
    network.register_alias("sink~id1", "sink")
    assert network.knows("sink~id1")
    network.send(Message("sink", "sink~id1", "ping", {}))
    sim.run()
    assert len(sink.got) == 1


def test_alias_validation(sim, network):
    from repro.sim.process import SimProcess

    p = SimProcess(sim, "p", respawn_delay=None)
    network.register(p)
    with pytest.raises(NetworkError):
        network.register_alias("p", "p")  # collides with a real name
    with pytest.raises(NetworkError):
        network.register_alias("x", "ghost")
    network.register_alias("x", "p")
    with pytest.raises(NetworkError):
        network.register_alias("x", "p")  # duplicate alias
