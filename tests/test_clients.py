"""End-to-end workload client tests across all three system modes."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builders import add_clients, build_system
from repro.core.clients import WorkloadClient, default_body_factory
from repro.core.specs import s0, s1, s2
from repro.crypto.signatures import Signed
from repro.net.message import Message
from repro.proxy.proxy import CLIENT_RESPONSE
from repro.randomization.obfuscation import Scheme
from repro.replication.primary_backup import SERVER_RESPONSE
from repro.replication.smr import vote_response


def run_workload(spec, until=10.0, seed=1, clients=1):
    deployed = build_system(spec, seed=seed)
    added = add_clients(deployed, clients)
    deployed.start()
    deployed.sim.run(until=until)
    return deployed, added


def test_fortress_clients_get_doubly_signed_responses():
    deployed, clients = run_workload(s2(Scheme.PO, alpha=0.001, entropy_bits=8))
    client = clients[0]
    assert client.responses_ok > 50
    assert client.responses_corrupted == 0
    assert client.failures == 0


def test_pb_clients_get_signed_responses():
    deployed, clients = run_workload(s1(Scheme.PO, alpha=0.001, entropy_bits=8))
    assert clients[0].responses_ok > 50
    assert clients[0].failures == 0


def test_smr_clients_get_f_plus_1_matching():
    deployed, clients = run_workload(s0(Scheme.PO, alpha=0.001, entropy_bits=8))
    assert clients[0].responses_ok > 30
    assert clients[0].failures == 0


def test_concurrent_clients_consistent_counters():
    deployed, clients = run_workload(
        s1(Scheme.PO, alpha=0.001, entropy_bits=8), clients=3
    )
    assert all(c.responses_ok > 30 for c in clients)
    # The primary executed every distinct request exactly once.
    primary = deployed.servers[0]
    total_requests = sum(c.responses_ok + c.responses_corrupted for c in clients)
    assert primary.requests_executed >= total_requests // 2


def test_latencies_recorded_and_small():
    deployed, clients = run_workload(s2(Scheme.PO, alpha=0.001, entropy_bits=8))
    latencies = clients[0].latencies
    assert latencies
    assert max(latencies) < 0.5


def test_client_survives_primary_failover():
    """Clients keep getting responses after the primary is stopped."""
    spec = s1(Scheme.PO, alpha=0.001, entropy_bits=8)
    deployed = build_system(spec, seed=3)
    clients = add_clients(deployed, 1)
    deployed.start()
    deployed.sim.run(until=3.0)
    before = clients[0].responses_ok
    deployed.servers[0].stop()
    deployed.sim.run(until=10.0)
    assert clients[0].responses_ok > before + 10


def test_workload_stop_is_clean():
    deployed, clients = run_workload(
        s1(Scheme.PO, alpha=0.001, entropy_bits=8), until=2.0
    )
    client = clients[0]
    client.stop_workload()
    count = client.requests_sent
    deployed.sim.run(until=4.0)
    assert client.requests_sent <= count + 1  # at most the in-flight retry


def test_invalid_mode_rejected(sim, network, authority):
    with pytest.raises(ValueError):
        WorkloadClient(sim, network, authority, mode="bogus", targets=[])


def test_default_body_factory_shapes(rng):
    bodies = [default_body_factory(i, rng) for i in range(9)]
    ops = {b["op"] for b in bodies}
    assert ops == {"put", "get", "incr"}


def test_clients_are_named_by_their_index():
    deployed = build_system(s1(Scheme.PO, alpha=0.001, entropy_bits=8), seed=1)
    add_clients(deployed, 2)
    add_clients(deployed, 1)
    assert [c.name for c in deployed.clients] == ["client-0", "client-1", "client-2"]


# ----------------------------------------------------------------------
# The shared f + 1 vote
# ----------------------------------------------------------------------
def _reference_vote(votes, index, response, item, quorum):
    """The proxy's f + 1 vote as it was written before the clients and
    the proxy shared one helper (votes hold ``(item, fingerprint)``)."""
    fingerprint = repr(sorted((str(k), repr(v)) for k, v in response.items()))
    votes[index] = (item, fingerprint)
    counts: dict[str, int] = {}
    for _, fp in votes.values():
        counts[fp] = counts.get(fp, 0) + 1
    winner = next((fp for fp, c in counts.items() if c >= quorum), None)
    if winner is None:
        return None
    return next(s for s, fp in votes.values() if fp == winner)


RESPONSES = (
    {"ok": True, "value": 1},
    {"value": 1, "ok": True},  # the same response, keys in another order
    {"ok": True, "value": 2},
    {"ok": False, "error": "__corrupted__"},
)


@settings(max_examples=200, deadline=None)
@given(
    quorum=st.integers(min_value=1, max_value=3),
    sequence=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, len(RESPONSES) - 1)),
        max_size=12,
    ),
)
def test_vote_picks_the_reference_winner(quorum, sequence):
    """Vote by vote, the shared helper agrees with the reference on
    whether a quorum exists and on which relayed item wins."""
    votes: dict = {}
    reference: dict = {}
    for step, (index, which) in enumerate(sequence):
        item = object()
        response = dict(RESPONSES[which])
        got = vote_response(votes, index, response, item, quorum)
        want = _reference_vote(reference, index, response, item, quorum)
        assert got is want, step


# ----------------------------------------------------------------------
# Signatures are checked only for the request in flight
# ----------------------------------------------------------------------
def _answer(deployed, mode, request_id, signature=None):
    """A server's answer to ``request_id`` as the client would receive
    it: authentic unless ``signature`` forges the server's tag."""
    server = deployed.server_names[0]
    body = {"request_id": request_id, "response": {"ok": True}, "index": 0}
    signed = deployed.authority.sign(server, body)
    if signature is not None:
        signed = Signed(body, server, signature)
    if mode != "fortress":
        return Message(server, "client-0", SERVER_RESPONSE, {"signed": signed})
    proxy = deployed.proxy_names[0]
    envelope = deployed.authority.sign(proxy, signed)
    payload = {"request_id": request_id, "envelope": envelope}
    return Message(proxy, "client-0", CLIENT_RESPONSE, payload)


@pytest.mark.parametrize(
    "spec,method,quorum",
    [(s2, "verify_oversigned", 1), (s1, "verify", 1), (s0, "verify", 2)],
    ids=["fortress", "pb", "smr"],
)
def test_closed_loop_checks_signatures_only_for_the_request_in_flight(
    monkeypatch, spec, method, quorum
):
    deployed = build_system(spec(Scheme.PO, alpha=1e-4, entropy_bits=8), seed=5)
    client = add_clients(deployed, 1)[0]
    calls: list[str] = []
    real = getattr(deployed.authority, method)

    def spy(signed):
        calls.append(signed.signer)
        return real(signed)

    monkeypatch.setattr(deployed.authority, method, spy)
    deployed.start()
    deployed.sim.run(until=client.think_time)  # the first request is sent
    assert client.in_flight == 1 and calls == []

    # A forged answer to the request in flight is checked and rejected.
    client.handle_message(_answer(deployed, client.mode, "client-0-r1", "forged"))
    assert len(calls) == 1
    assert client.in_flight == 1 and client.responses_ok == 0

    deployed.sim.run(until=2.0)
    completed = client.responses_ok + client.responses_corrupted
    assert completed > 10 and client.failures == 0
    # Every target answers; only the answers that complete a request
    # (f + 1 of them under SMR) are checked.
    assert len(calls) == 1 + quorum * completed

    # A late answer to a finished request, and an answer to a request
    # this client never sent, are dropped unchecked.
    before = (len(calls), client.responses_ok, client.in_flight)
    client.handle_message(_answer(deployed, client.mode, "client-0-r1"))
    client.handle_message(_answer(deployed, client.mode, "ghost-r1"))
    assert (len(calls), client.responses_ok, client.in_flight) == before
