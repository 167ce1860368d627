"""One probe semantics on both connection entry paths.

Probe drivers schedule :meth:`Network.deliver_probe_to` with a bare
guess; any other sender's ``{"kind": "probe", "guess": g}`` payload
travels the generic connection path into ``handle_connection_data``.
Both must reach the same probe rules, so a run that delivers a sequence
of guesses one way must be indistinguishable from the same run
delivering them the other way: same address-space counters, process
state and compromise flag, same state timeline (the forking daemon's
respawns included) and the same intrusion-ack traffic.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.latency import FixedLatency
from repro.net.network import Network
from repro.randomization.keyspace import KeySpace
from repro.randomization.node import RandomizedProcess
from repro.sim.engine import Simulator
from repro.sim.process import ProcessState, SimProcess

ENTROPY = 3  # 8 keys: hypothesis hits the key often
LATENCY = 0.001
SPACING = 0.1  # between probes; far more than latency + respawn delay


class Sender(SimProcess):
    """Attacker stand-in recording what arrives on its connections."""

    def __init__(self, sim: Simulator) -> None:
        super().__init__(sim, "attacker", respawn_delay=None)
        self.received: list[tuple[float, object]] = []

    def handle_connection_data(self, connection, payload) -> None:
        self.received.append((self.sim.now, payload))


def _run(key: int, guesses: list[int], state: str, at: int, fast: bool) -> tuple:
    """Deliver ``guesses`` one per ``SPACING``; while probe ``at`` is in
    flight the target is put in ``state``."""
    sim = Simulator(seed=0)
    net = Network(sim, latency=FixedLatency(LATENCY))
    sender = Sender(sim)
    target = RandomizedProcess(
        sim, "target", KeySpace(ENTROPY), random.Random(0), key=key, respawn_delay=0.01
    )
    net.register(sender)
    net.register(target)
    timeline = []
    target.add_state_listener(lambda p: timeline.append((sim.now, p.state)))
    space = target.address_space
    connection = None

    def probe(index: int, guess: int) -> None:
        nonlocal connection
        if connection is None or not connection.open:
            connection = net.connect(sender.name, target.name)
            if connection is None:
                return  # refused: the target is down
        if fast:
            sim.schedule_fast(LATENCY, net.deliver_probe_to, connection, target, guess)
        else:
            connection.send(sender.name, {"kind": "probe", "guess": guess})
        if index == at:
            if state == "crashed":
                target.crash()
            elif state == "rebooting":
                target.begin_reboot(SPACING / 2)

    for index, guess in enumerate(guesses):
        sim.schedule(index * SPACING, probe, index, guess)
    sim.run()
    return (
        (space.probes_received, space.intrusions, space.crashes_caused),
        target.state,
        target.compromised,
        (target.crash_count, target.respawn_count, target.reboot_count),
        timeline,
        sender.received,
    )


keys = st.integers(0, (1 << ENTROPY) - 1)


@given(
    key=keys,
    guesses=st.lists(keys, min_size=1, max_size=4),
    state=st.sampled_from(["running", "crashed", "rebooting"]),
    at=st.integers(0, 3),
)
@settings(max_examples=200, deadline=None)
def test_guess_delivery_matches_parsed_payload_delivery(key, guesses, state, at):
    fast = _run(key, guesses, state, at, fast=True)
    parsed = _run(key, guesses, state, at, fast=False)
    assert fast == parsed
    counters, final_state, _, _, _, acks = fast
    if state == "running":
        assert counters[0] == len(guesses)
        assert final_state is ProcessState.RUNNING
    assert len(acks) == counters[1]  # one ack per intrusion, none otherwise


def test_a_right_guess_is_acked_on_its_connection():
    fast = _run(5, [1, 5], "running", 0, fast=True)
    assert fast[0] == (2, 1, 1)
    assert fast[2] is True
    acks = [payload for _, payload in fast[5]]
    assert acks == [{"kind": "intrusion_ack", "node": "target"}]
