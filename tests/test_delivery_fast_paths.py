"""The probe-cycle and delivery fast paths against their references.

* Crash teardown: :meth:`Network._on_endpoint_down` closes an endpoint's
  connections in one pass.  The loop it replaced — each open connection
  handed to :meth:`Network.connection_closed` with ``closed_by=None`` —
  is kept here as the reference, and both must leave the same tables,
  elide the same notifications and deliver the rest in the same order.
* Table dispatch: the network calls a receiver's ``MESSAGE_HANDLERS``
  entry directly, which must reach the same handler as
  :meth:`SimProcess.handle_message`; a class or instance that overrides
  ``handle_message`` must still be reached through its override.
* The skipped ``on_respawn`` call and the SMR sync peer list.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacker.strategies import CoordinatedAgent
from repro.core.builders import add_clients, attach_attacker, build_system
from repro.core.specs import s0, s1, s2
from repro.net.latency import FixedLatency, UniformLatency
from repro.net.message import Message
from repro.net.network import Network
from repro.proxy.nameserver import NameServer
from repro.randomization.keyspace import KeySpace
from repro.randomization.node import RandomizedProcess
from repro.randomization.obfuscation import Scheme
from repro.replication.primary_backup import SYNC_REQUEST
from repro.replication.smr import SMRReplica
from repro.sim.engine import Simulator
from repro.sim.process import SimProcess
from repro.workloads.openloop import OpenLoopClient


# ----------------------------------------------------------------------
# One-pass crash teardown
# ----------------------------------------------------------------------
class ReferenceNetwork(Network):
    """A network whose crash teardown is the per-connection
    ``connection_closed`` loop the one-pass teardown replaced."""

    def _on_endpoint_down(self, process: SimProcess) -> None:
        conns = self._connections.get(process.name)
        if conns:
            for connection in list(conns):
                if connection.open:
                    connection.open = False
                    self.connection_closed(connection, None)
            conns.clear()


class Watcher(SimProcess):
    """An endpoint that observes closures (as sinks and endpoints)."""

    def __init__(self, sim: Simulator, name: str, log: list) -> None:
        super().__init__(sim, name, respawn_delay=None)
        self.log = log

    def on_connection_closed(self, connection) -> None:
        self.log.append((self.sim.now, self.name, connection))


#: One endpoint: (watches closures?)
endpoints = st.lists(st.booleans(), min_size=1, max_size=5)
#: One connection: (initiator, responder, sink end 0/1/none, sink process,
#: closed before the crash by: none / initiator / responder / network)
links = st.tuples(
    st.integers(0, 4),
    st.integers(0, 4),
    st.sampled_from([None, 0, 1]),
    st.integers(0, 4),
    st.sampled_from([None, "initiator", "responder", "network"]),
)


def _teardown_world(network_class, watchers, graph, crashes, sampled):
    sim = Simulator(seed=3)
    latency = UniformLatency(0.001, 0.004) if sampled else FixedLatency(0.002)
    net = network_class(sim, latency=latency)
    log: list = []
    procs = [
        Watcher(sim, f"n{i}", log) if watches else SimProcess(sim, f"n{i}", None)
        for i, watches in enumerate(watchers)
    ]
    for proc in procs:
        net.register(proc)
    n = len(procs)
    connections = []
    for a, b, sink_end, sink, closed in graph:
        initiator, responder = procs[a % n].name, procs[b % n].name
        connection = net.connect(initiator, responder)
        connections.append(connection)
        if sink_end is not None:
            end = (initiator, responder)[sink_end]
            connection.attach_sink(end, procs[sink % n])
        if closed == "initiator":
            connection.close(closed_by=initiator)
        elif closed == "responder":
            connection.close(closed_by=responder)
        elif closed == "network":
            connection.close()
    for victim in crashes:
        procs[victim % n].crash()
    sim.run()
    index = {connection: i for i, connection in enumerate(connections)}
    tables = {name: [index[c] for c in t] for name, t in net._connections.items()}
    return (
        net.events_elided,
        [(now, name, index[connection]) for now, name, connection in log],
        tables,
        [c.open for c in connections],
        sim.events_executed,
        net._rng.getstate(),
    )


@given(
    watchers=endpoints,
    graph=st.lists(links, min_size=0, max_size=8),
    crashes=st.lists(st.integers(0, 4), min_size=1, max_size=3),
    sampled=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_one_pass_teardown_matches_the_connection_closed_loop(
    watchers, graph, crashes, sampled
):
    one_pass = _teardown_world(Network, watchers, graph, crashes, sampled)
    reference = _teardown_world(ReferenceNetwork, watchers, graph, crashes, sampled)
    assert one_pass == reference


def test_teardown_elides_only_inert_notifications():
    """A probe connection between two base-class endpoints costs no
    event at its crash; a watcher at either end is notified."""
    probe = [(0, 1, None, 0, None)]
    elided, log, tables, opened, events, _ = _teardown_world(
        Network, [False, False], probe, [1], False
    )
    assert (elided, log, opened, events) == (2, [], [False], 0)
    assert tables == {"n0": [], "n1": []}
    watched = _teardown_world(Network, [True, False], probe, [1], False)
    assert watched[0] == 1 and watched[1] == [(0.002, "n0", 0)]


# ----------------------------------------------------------------------
# Table dispatch at delivery
# ----------------------------------------------------------------------
class OverridingNameServer(NameServer):
    """A table-dispatch class's subclass that replaces ``handle_message``
    wholesale, as test doubles do."""

    def handle_message(self, message: Message) -> None:
        self.dispatch_log.append(("override", message.mtype))


def _deployments():
    """A deployment of each system class, with every other process class
    (attacker, client, agent, bare and randomized processes) registered."""
    for spec in (
        s0(Scheme.SO, alpha=0.1, entropy_bits=8),
        s1(Scheme.SO, alpha=0.1, entropy_bits=8),
        s2(Scheme.SO, alpha=0.1, kappa=0.5, entropy_bits=8),
    ):
        deployed = build_system(spec, seed=5)
        attach_attacker(deployed)
        add_clients(deployed, 1)
        add_clients(deployed, 1, client_class=OpenLoopClient)
        sim, net = deployed.sim, deployed.network
        net.register(SimProcess(sim, "plain", respawn_delay=None))
        net.register(CoordinatedAgent(sim, "agent"))
        randomized = RandomizedProcess(sim, "randomized", KeySpace(4), random.Random(0))
        net.register(randomized)
        yield deployed


def _handle_message_owner(cls: type) -> type:
    return next(c for c in cls.__mro__ if "handle_message" in c.__dict__)


def test_delivery_reaches_the_handler_handle_message_reaches(monkeypatch):
    log: list = []

    def tap(label: str):
        return lambda self, message: log.append((label, message.mtype))

    for deployed in _deployments():
        net, sim = deployed.network, deployed.sim
        override = OverridingNameServer(sim, net, name="override")
        override.dispatch_log = log
        instance = SimProcess(sim, "instance", respawn_delay=None)
        instance.handle_message = lambda m: log.append(("instance", m.mtype))
        net.register(override)
        net.register(instance)
        processes = list(net._processes.values())
        mtypes = {"no-such-type"}
        for cls in {type(p) for p in processes}:
            mtypes.update(cls.MESSAGE_HANDLERS)
            # Tap the table in place: the network holds the same dict.
            for mtype in list(cls.MESSAGE_HANDLERS):
                monkeypatch.setitem(cls.MESSAGE_HANDLERS, mtype, tap("table"))
            owner = _handle_message_owner(cls)
            if owner not in (SimProcess, OverridingNameServer):
                monkeypatch.setattr(owner, "handle_message", tap("own"))
        for process in processes:
            process.allowed_senders = None
            owner = _handle_message_owner(type(process))
            for mtype in sorted(mtypes):
                if process is instance:
                    expected = [("instance", mtype)]
                elif owner is OverridingNameServer:
                    expected = [("override", mtype)]
                elif owner is not SimProcess:
                    expected = [("own", mtype)]  # the clients
                elif mtype in type(process).MESSAGE_HANDLERS:
                    expected = [("table", mtype)]
                else:
                    expected = []
                message = Message("plain", process.name, mtype)
                process.handle_message(message)
                assert log == expected, (type(process).__name__, mtype)
                log.clear()
                net._deliver(message)
                assert log == expected, (type(process).__name__, mtype)
                log.clear()
                net._deliver_multi(message, [process.name])
                assert log == expected, (type(process).__name__, mtype)
                log.clear()
        monkeypatch.undo()


# ----------------------------------------------------------------------
# on_respawn and the SMR sync peers
# ----------------------------------------------------------------------
class Respawning(RandomizedProcess):
    def __init__(self, sim: Simulator) -> None:
        super().__init__(sim, "r", KeySpace(4), random.Random(0), respawn_delay=0.01)
        self.respawns: list[float] = []

    def on_respawn(self) -> None:
        self.respawns.append(self.sim.now)


class RespawningChild(Respawning):
    """Inherits the override without restating it."""


@pytest.mark.parametrize("cls", [Respawning, RespawningChild])
def test_a_class_that_overrides_on_respawn_still_gets_the_call(cls):
    sim = Simulator(seed=1)
    process = cls(sim)
    process.crash()
    sim.run()
    process.revive()  # not crashed: no respawn, no hook
    assert process.respawns == [0.01]
    assert process.respawn_count == 1


def test_on_respawn_is_skipped_only_where_it_is_the_base_no_op():
    assert not SimProcess._respawn_hook
    assert not RandomizedProcess._respawn_hook
    assert Respawning._respawn_hook and RespawningChild._respawn_hook
    assert SMRReplica._respawn_hook


def test_a_second_configure_refreshes_the_smr_sync_peers(monkeypatch):
    deployed = build_system(s0(Scheme.SO, alpha=0.1, entropy_bits=8), seed=2)
    replica = deployed.servers[0]
    sent: list[str] = []

    def record(network: Network, message: Message) -> None:
        if message.mtype == SYNC_REQUEST:
            sent.append(message.dst)

    monkeypatch.setattr(Network, "send", record)
    replica._request_sync()
    assert sent == ["replica-1", "replica-2", "replica-3"]
    sent.clear()
    replica.configure(["replica-3", "replica-0", "replica-2", "replica-1"])
    replica._request_sync()
    assert sent == ["replica-3", "replica-2", "replica-1"]
