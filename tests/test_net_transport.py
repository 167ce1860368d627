"""Unit tests for connections — especially crash-observable closure,
the de-randomization attacker's feedback channel."""

from __future__ import annotations

import pytest

from repro.net.latency import FixedLatency
from repro.net.network import Network
from repro.sim.engine import Simulator
from repro.sim.process import SimProcess


class Endpoint(SimProcess):
    """Records connection data and closures."""

    def __init__(self, sim, name):
        super().__init__(sim, name, respawn_delay=None)
        self.data: list = []
        self.closed: list = []

    def handle_connection_data(self, connection, payload) -> None:
        self.data.append(payload)

    def on_connection_closed(self, connection) -> None:
        self.closed.append(connection)


def make_pair():
    sim = Simulator(seed=5)
    net = Network(sim, latency=FixedLatency(0.01))
    a, b = Endpoint(sim, "a"), Endpoint(sim, "b")
    net.register(a)
    net.register(b)
    return sim, net, a, b


def test_connect_and_send_both_ways():
    sim, net, a, b = make_pair()
    conn = net.connect("a", "b")
    assert conn is not None and conn.open
    conn.send("a", {"x": 1})
    conn.send("b", {"y": 2})
    sim.run()
    assert b.data == [{"x": 1}]
    assert a.data == [{"y": 2}]


def test_connect_refused_when_target_crashed():
    sim, net, a, b = make_pair()
    b.crash()
    assert net.connect("a", "b") is None


def test_connect_refused_across_partition():
    sim, net, a, b = make_pair()
    net.partition("a", "b")
    assert net.connect("a", "b") is None


def test_connect_refused_by_acl():
    sim, net, a, b = make_pair()
    b.allowed_connection_initiators = {"proxy-0"}
    assert net.connect("a", "b") is None


def test_crash_closes_connection_and_notifies_peer():
    """The attacker's observation channel: target crash -> peer notified."""
    sim, net, a, b = make_pair()
    conn = net.connect("a", "b")
    sim.run()
    b.crash()
    assert not conn.open
    sim.run()
    assert a.closed == [conn]


def test_explicit_close_notifies_only_peer():
    sim, net, a, b = make_pair()
    conn = net.connect("a", "b")
    conn.close(closed_by="a")
    sim.run()
    assert b.closed == [conn]
    assert a.closed == []


def test_send_on_closed_connection_lost():
    sim, net, a, b = make_pair()
    conn = net.connect("a", "b")
    conn.close(closed_by="a")
    assert conn.send("a", {"x": 1}) is False
    sim.run()
    assert b.data == []


def test_data_in_flight_when_closed_is_dropped():
    sim, net, a, b = make_pair()
    conn = net.connect("a", "b")
    conn.send("a", {"x": 1})
    conn.close(closed_by="a")  # closes before delivery latency elapses
    sim.run()
    assert b.data == []


def test_peer_of_validates_membership():
    sim, net, a, b = make_pair()
    conn = net.connect("a", "b")
    assert conn.peer_of("a") == "b"
    assert conn.peer_of("b") == "a"
    with pytest.raises(ValueError):
        conn.peer_of("c")


def test_sink_redirects_events():
    """Launch-pad modelling: connection events for one endpoint are
    routed to an attacker process instead of the named endpoint."""
    sim, net, a, b = make_pair()
    shell = Endpoint(sim, "shell")
    net.register(shell)
    conn = net.connect("a", "b")
    conn.attach_sink("a", shell)
    conn.send("b", {"reply": True})
    sim.run()
    assert shell.data == [{"reply": True}]
    assert a.data == []
    b.crash()
    sim.run()
    assert shell.closed == [conn]
    assert a.closed == []


def test_sink_requires_membership():
    sim, net, a, b = make_pair()
    shell = Endpoint(sim, "shell")
    net.register(shell)
    conn = net.connect("a", "b")
    with pytest.raises(ValueError):
        conn.attach_sink("zz", shell)


def test_the_endpoint_tables_track_open_connections():
    """Each end's table holds a connection while it is open; a close or
    a crash of either end removes it from both."""
    sim, net, a, b = make_pair()
    conn = net.connect("a", "b")
    assert conn in net._connections["a"] and conn in net._connections["b"]
    conn.close(closed_by="a")
    assert conn not in net._connections["a"] and conn not in net._connections["b"]
    again = net.connect("a", "b")
    b.crash()
    assert not again.open
    assert not net._connections["a"] and not net._connections["b"]
