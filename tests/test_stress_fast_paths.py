"""The stress-path fast paths against their references.

* Multicast: a group whose members are all registered names, sent while
  no partition exists, skips the per-destination membership and
  partition loop.  That loop is kept here as the reference, and both
  must count, drop, deliver and raise alike — also on the sampled-latency
  and lossy fallback.
* A primary-backup backup drops every request before reading it; only
  the primary executes requests and probes.
* :meth:`Simulator.schedule_at` pushes its entry without a handle,
  and fault plans and the heartbeat grid make no handle either.
* The PB sync request goes to the configured peers.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.builders import build_system
from repro.core.specs import s1
from repro.errors import NetworkError, SimulationError
from repro.faults.injector import CrashFault, FaultInjector, PartitionFault
from repro.net.latency import FixedLatency, UniformLatency
from repro.net.message import Message
from repro.net.network import Network
from repro.randomization.obfuscation import Scheme
from repro.replication.primary_backup import (
    PROBE_OP,
    REQUEST,
    STATE_UPDATE,
    SYNC_REQUEST,
)
from repro.sim import engine
from repro.sim.engine import Simulator
from repro.sim.process import ProcessState, SimProcess


# ----------------------------------------------------------------------
# Multicast
# ----------------------------------------------------------------------
class ReferenceNetwork(Network):
    """A network whose multicast checks each destination in turn, as
    every multicast did before the unpartitioned one-pass path."""

    def multicast(self, src, dsts, mtype, payload, strict=True):
        if self._fixed_delay is None or self.drop_rate > 0.0:
            for dst in dsts:
                if strict or self.knows(dst):
                    self.send(Message(src=src, dst=dst, mtype=mtype, payload=payload))
            return
        processes = self._processes
        aliases = self._aliases
        partitioned = self._partitioned
        targets = []
        sent = 0
        for dst in dsts:
            if dst not in processes and dst not in aliases:
                if strict:
                    raise NetworkError(f"message to unknown destination {dst!r}")
                continue
            sent += 1
            if partitioned and frozenset((src, dst)) in partitioned:
                self.messages_dropped += 1
                continue
            targets.append(dst)
        self.messages_sent += sent
        if targets:
            self.sim.schedule_fast(
                self._fixed_delay,
                self._deliver_multi,
                Message(src=src, dst=targets[0], mtype=mtype, payload=payload),
                targets,
            )


class Recorder(SimProcess):
    """Logs every datagram it is handed, with the time and its own name."""

    def __init__(self, sim: Simulator, name: str, log: list) -> None:
        super().__init__(sim, name, respawn_delay=None)
        self.log = log

    def _on_m(self, message: Message) -> None:
        self.log.append(
            (self.sim.now, self.name, message.src, message.dst, message.payload["n"])
        )

    MESSAGE_HANDLERS = {"m": _on_m}


#: Names a destination can take: registered processes, aliases (bound
#: only when their owner exists) and a stranger.  Sources and one end
#: of each cut come from two names, so cuts often block a later send.
names = st.sampled_from(["p0", "p1", "p2", "p3", "a0", "a1", "ghost"])
senders = st.sampled_from(["p0", "p1"])
operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("send"), senders, st.lists(names, max_size=5), st.booleans()
        ),
        st.tuples(st.just("cut"), senders, names),
        st.tuples(st.just("heal"), senders, names),
        st.tuples(st.just("run"), st.floats(0.0, 0.01)),
    ),
    max_size=12,
)


def _multicast_world(network_class, size, down, aliases, ops, sampled, lossy):
    sim = Simulator(seed=7)
    latency = UniformLatency(0.001, 0.004) if sampled else FixedLatency(0.002)
    net = network_class(sim, latency=latency, drop_rate=0.3 if lossy else 0.0)
    log: list = []
    procs = [Recorder(sim, f"p{i}", log) for i in range(size)]
    for proc in procs:
        net.register(proc)
    for index, owner in enumerate(aliases):
        if owner < size:
            net.register_alias(f"a{index}", f"p{owner}")
    for victim in down:
        if victim < size:
            procs[victim].crash()
    outcomes = []
    for number, op in enumerate(ops):
        if op[0] == "send":
            _, src, dsts, strict = op
            group = list(dsts)
            try:
                net.multicast(src, group, "m", {"n": number}, strict=strict)
            except NetworkError as error:
                outcomes.append(str(error))
            else:
                outcomes.append(None)
            group.clear()  # the sender may reuse its list at once
        elif op[0] == "cut":
            net.partition(op[1], op[2])
        elif op[0] == "heal":
            net.heal(op[1], op[2])
        else:
            sim.run(until=sim.now + op[1])
    sim.run()
    return (
        outcomes,
        log,
        net.messages_sent,
        net.messages_delivered,
        net.messages_dropped,
        sim.events_executed,
        net._rng.getstate(),
    )


@given(
    size=st.integers(1, 4),
    down=st.lists(st.integers(0, 3), max_size=2),
    aliases=st.lists(st.integers(0, 3), max_size=2),
    ops=operations,
    sampled=st.booleans(),
    lossy=st.booleans(),
)
@example(
    size=3,
    down=[],
    aliases=[],
    ops=[("cut", "p0", "p2"), ("send", "p0", ["p1", "p2"], True)],
    sampled=False,
    lossy=False,
)
@settings(max_examples=400, deadline=None)
def test_multicast_matches_the_per_destination_loop(
    size, down, aliases, ops, sampled, lossy
):
    world = (size, down, aliases, ops, sampled, lossy)
    assert _multicast_world(Network, *world) == _multicast_world(
        ReferenceNetwork, *world
    )


# ----------------------------------------------------------------------
# Primary-backup request drops
# ----------------------------------------------------------------------
def _pb_tier():
    deployed = build_system(s1(Scheme.SO, alpha=0.1, entropy_bits=8), seed=4)
    primary, backup, _ = deployed.servers
    assert primary.is_primary and not backup.is_primary
    return deployed, primary, backup


def _requests(server):
    """A wrong and a right probe, a service request, a payload without
    a body and an empty payload."""
    key = server.address_space.key
    wrong = (key + 1) % server.keyspace.size
    return {
        "wrong_probe": {"request_id": "q1", "body": {"op": PROBE_OP, "guess": wrong}},
        "right_probe": {"request_id": "q2", "body": {"op": PROBE_OP, "guess": key}},
        "request": {
            "request_id": "r1",
            "client": "client-x",
            "reply_to": [],
            "body": {"op": "put", "key": "k", "value": 1},
        },
        "no_body": {"request_id": "r2", "client": "client-x", "reply_to": []},
        "empty": {},
    }


def _footprint(deployed, server):
    return (
        server.state,
        server.compromised,
        server.crash_count,
        server.requests_executed,
        server.seq,
        dict(server.response_cache),
        server.service.snapshot(),
        server.address_space.probes_received,
        deployed.network.messages_sent,
        deployed.sim.pending_events,
    )


@pytest.mark.parametrize(
    "kind", ["wrong_probe", "right_probe", "request", "no_body", "empty"]
)
def test_a_backup_drops_every_request_unread(kind):
    deployed, _, backup = _pb_tier()
    before = _footprint(deployed, backup)
    payload = _requests(backup)[kind]
    backup.handle_message(Message("proxy-x", backup.name, REQUEST, payload))
    assert _footprint(deployed, backup) == before


def test_the_primary_still_executes_requests_and_probes(monkeypatch):
    deployed, primary, backup = _pb_tier()
    requests = _requests(primary)
    sent: list[Message] = []
    monkeypatch.setattr(Network, "send", lambda net, message: sent.append(message))
    multicasts: list[tuple] = []

    def record_multicast(net, src, dsts, mtype, payload, strict=True):
        multicasts.append((src, list(dsts), mtype))

    monkeypatch.setattr(Network, "multicast", record_multicast)

    def deliver(kind):
        primary.handle_message(
            Message("proxy-x", primary.name, REQUEST, requests[kind])
        )

    deliver("request")
    assert primary.requests_executed == 1 and primary.seq == 1
    assert primary.response_cache["r1"] == {"ok": True}
    assert multicasts == [(primary.name, ["server-1", "server-2"], STATE_UPDATE)]
    deliver("no_body")  # an empty body is an unknown operation
    assert primary.requests_executed == 2
    assert primary.response_cache["r2"]["error"] == "unknown_op:None"
    assert sent == []  # both asked for no reply
    deliver("right_probe")
    assert primary.compromised and primary.state is ProcessState.RUNNING
    deliver("wrong_probe")
    assert primary.crash_count == 1 and primary.state is ProcessState.CRASHED
    assert primary.address_space.probes_received == 2
    assert backup.crash_count == 0 and not backup.compromised


# ----------------------------------------------------------------------
# No-handle absolute-time pushes
# ----------------------------------------------------------------------
def test_schedule_at_pushes_its_entry_without_a_handle():
    def noop(*args):
        pass

    sim = Simulator(seed=0)
    sim.schedule_fast(0.5, noop)
    sim.run(until=0.5)
    assert sim.schedule_at(2.5, noop, "x", 1) is None
    assert sim._heap == [[2.5, 2, noop, ("x", 1)]]
    with pytest.raises(SimulationError, match="before current time"):
        sim.schedule_at(0.25, noop)
    assert sim.pending_events == 1


def test_fault_plans_push_no_handles(monkeypatch):
    deployed, primary, backup = _pb_tier()
    sim = deployed.sim

    handled = []  # the callbacks that got an Event handle
    make_event = engine.Event

    def recording_event(sim, entry):
        handled.append(entry[2].__name__)
        return make_event(sim, entry)

    monkeypatch.setattr(engine, "Event", recording_event)
    injector = FaultInjector(sim, deployed.network)
    injector.schedule_plan(
        [
            CrashFault(1.0, primary.name, down_for=1.0),
            PartitionFault(2.5, "server-1", "server-2", 0.5),
        ]
    )
    injector.schedule(CrashFault(1.5, "server-2"))
    deployed.start()
    sim.run(until=3.5)
    assert [fault.time for _, fault in injector.applied] == [1.0, 1.5, 2.5]
    # The primary's outage promoted a backup, whose heartbeat chain
    # started at its grid point without a handle either.
    leader = deployed.network.process(backup.primary_name)
    assert backup.view >= 1 and leader is not primary and leader._hb_scheduled
    assert handled and not {"_apply", "_heartbeat_tick"} & set(handled)


def test_the_pb_sync_request_goes_to_the_configured_peers(monkeypatch):
    _, primary, backup = _pb_tier()
    sent: list[Message] = []
    monkeypatch.setattr(Network, "send", lambda net, message: sent.append(message))
    backup._request_sync()
    assert [(m.dst, m.mtype) for m in sent] == [
        ("server-0", SYNC_REQUEST),
        ("server-2", SYNC_REQUEST),
    ]
    assert all(not m.payload for m in sent)
    sent.clear()
    backup.configure(["server-2", "server-1", "server-0"])
    backup._request_sync()
    assert [m.dst for m in sent] == ["server-2", "server-0"]
