"""Protocol tests for the FORTRESS proxy tier."""

from __future__ import annotations

import random

from repro.crypto.signatures import Signed, SignatureAuthority
from repro.net.latency import FixedLatency
from repro.net.message import Message
from repro.net.network import Network
from repro.proxy.detection import DetectionPolicy
from repro.proxy.proxy import CLIENT_ERROR, CLIENT_REQUEST, CLIENT_RESPONSE, ProxyNode
from repro.randomization.keyspace import KeySpace
from repro.replication.primary_backup import PROBE_OP, PBServer
from repro.replication.state_machine import KVStoreService
from repro.sim.engine import Simulator
from repro.sim.process import SimProcess


class FortressClient(SimProcess):
    """Records doubly-signed responses and errors."""

    def __init__(self, sim, name, authority):
        super().__init__(sim, name, respawn_delay=None)
        self.authority = authority
        self.responses: list = []
        self.errors: list = []
        self.invalid_envelopes = 0

    def handle_message(self, message: Message) -> None:
        if message.mtype == CLIENT_RESPONSE:
            envelope = message.payload["envelope"]
            if self.authority.verify_oversigned(envelope):
                self.responses.append(envelope)
            else:
                self.invalid_envelopes += 1
        elif message.mtype == CLIENT_ERROR:
            self.errors.append(message.payload)


def build_fortress(n_servers=3, n_proxies=3, seed=1, policy=None):
    sim = Simulator(seed=seed)
    network = Network(sim, latency=FixedLatency(0.001))
    authority = SignatureAuthority(random.Random(3))
    keyspace = KeySpace(8)
    servers = []
    for i in range(n_servers):
        server = PBServer(
            sim,
            name=f"server-{i}",
            index=i,
            keyspace=keyspace,
            rng=random.Random(20 + i),
            service=KVStoreService(),
            authority=authority,
            network=network,
        )
        network.register(server)
        servers.append(server)
    names = [s.name for s in servers]
    for s in servers:
        s.configure(names)
    proxies = []
    for i in range(n_proxies):
        proxy = ProxyNode(
            sim,
            name=f"proxy-{i}",
            keyspace=keyspace,
            rng=random.Random(40 + i),
            authority=authority,
            network=network,
            policy=policy,
            request_timeout=0.2,
        )
        network.register(proxy)
        proxy.configure(names)
        proxies.append(proxy)
    client = FortressClient(sim, "client", authority)
    network.register(client)
    return sim, network, authority, servers, proxies, client


def send_client_request(
    network, request_id, body, proxies=("proxy-0",), client="client"
):
    for proxy in proxies:
        network.send(
            Message(
                client,
                proxy,
                CLIENT_REQUEST,
                {"request_id": request_id, "client": client, "body": body},
            )
        )


def test_forward_and_oversign_roundtrip():
    sim, net, auth, servers, proxies, client = build_fortress()
    send_client_request(net, "r1", {"op": "put", "key": "a", "value": 1})
    sim.run(until=0.5)
    assert len(client.responses) == 1
    envelope = client.responses[0]
    assert envelope.signer == "proxy-0"
    inner = envelope.payload
    assert isinstance(inner, Signed)
    assert inner.signer.startswith("server-")
    assert inner.payload["response"] == {"ok": True}
    assert proxies[0].responses_delivered == 1


def test_all_proxies_respond_when_client_broadcasts():
    sim, net, auth, servers, proxies, client = build_fortress()
    send_client_request(
        net, "r1", {"op": "get", "key": "zz"}, proxies=("proxy-0", "proxy-1", "proxy-2")
    )
    sim.run(until=0.5)
    assert len(client.responses) == 3
    assert {e.signer for e in client.responses} == {"proxy-0", "proxy-1", "proxy-2"}


def test_duplicate_in_flight_request_not_double_forwarded():
    sim, net, auth, servers, proxies, client = build_fortress()
    send_client_request(net, "r1", {"op": "put", "key": "a", "value": 1})
    send_client_request(net, "r1", {"op": "put", "key": "a", "value": 1})
    sim.run(until=0.5)
    assert proxies[0].requests_forwarded == 1


def test_probe_causes_timeout_error_and_invalid_log():
    sim, net, auth, servers, proxies, client = build_fortress()
    wrong = (servers[0].address_space.key + 1) % servers[0].keyspace.size
    send_client_request(net, "p1", {"op": PROBE_OP, "guess": wrong})
    sim.run(until=1.0)
    assert client.errors and client.errors[0]["error"] == "timeout"
    assert proxies[0].detection.invalid_count("client") == 1
    assert servers[0].crash_count == 1


def test_blacklisted_client_requests_dropped():
    policy = DetectionPolicy(window=100.0, threshold=2)
    sim, net, auth, servers, proxies, client = build_fortress(policy=policy)
    wrong = (servers[0].address_space.key + 1) % servers[0].keyspace.size
    for i in range(4):
        send_client_request(net, f"p{i}", {"op": PROBE_OP, "guess": wrong})
        sim.run(until=(i + 1) * 0.5)
    assert proxies[0].detection.is_blacklisted("client")
    dropped_before = proxies[0].dropped_blacklisted
    send_client_request(net, "r-legit", {"op": "get", "key": "a"})
    sim.run(until=3.0)
    assert proxies[0].dropped_blacklisted == dropped_before + 1


def test_forged_server_response_rejected():
    """A message claiming to be a server response but signed with a bogus
    key must not be over-signed and delivered."""
    sim, net, auth, servers, proxies, client = build_fortress()
    send_client_request(net, "r1", {"op": "get", "key": "a"})

    def inject():
        fake = Signed(
            payload={
                "request_id": "r1",
                "response": {"ok": True, "value": "evil"},
                "index": 0,
            },
            signer="server-0",
            signature="forged",
        )
        net.send(Message("server-0", "proxy-0", "server_response", {"signed": fake}))

    sim.schedule(0.002, inject)
    sim.run(until=0.5)
    # The delivered response must be the authentic one, not the forgery.
    assert len(client.responses) == 1
    inner = client.responses[0].payload
    assert inner.payload["response"] != {"ok": True, "value": "evil"}


def test_proxy_probe_surface_direct_connection():
    sim, net, auth, servers, proxies, client = build_fortress()
    conn = net.connect("client", "proxy-1")
    wrong = (proxies[1].address_space.key + 1) % proxies[1].keyspace.size
    conn.send("client", {"kind": "probe", "guess": wrong})
    sim.run(until=0.1)
    assert proxies[1].crash_count == 1
    sim.run(until=0.5)
    conn2 = net.connect("client", "proxy-1")
    conn2.send("client", {"kind": "probe", "guess": proxies[1].address_space.key})
    sim.run(until=1.0)
    assert proxies[1].compromised


def test_proxy_reboot_clears_pending_table():
    sim, net, auth, servers, proxies, client = build_fortress()
    # Stop servers so the request stays pending.
    for s in servers:
        s.stop()
    send_client_request(net, "r1", {"op": "get", "key": "a"})
    sim.run(until=0.05)
    proxies[0].begin_reboot(0.0)
    assert proxies[0]._pending == {}


def test_smr_voting_mode_waits_for_f_plus_1():
    """FORTRESS supports an SMR server tier: the proxy must collect f+1
    matching responses before over-signing."""
    sim = Simulator(seed=2)
    network = Network(sim, latency=FixedLatency(0.001))
    authority = SignatureAuthority(random.Random(8))
    keyspace = KeySpace(8)
    proxy = ProxyNode(
        sim,
        "proxy-0",
        keyspace,
        random.Random(1),
        authority,
        network,
        server_replication="smr",
        fault_threshold=1,
        request_timeout=0.5,
    )
    network.register(proxy)
    proxy.configure([])  # we inject responses by hand
    client = FortressClient(sim, "client", authority)
    network.register(client)
    for name in ("replica-0", "replica-1"):
        authority.issue_keypair(name)
    network.send(
        Message(
            "client",
            "proxy-0",
            CLIENT_REQUEST,
            {"request_id": "r1", "client": "client", "body": {"op": "get"}},
        )
    )
    sim.run(until=0.01)

    def respond(name, index):
        signed = authority.sign(
            name, {"request_id": "r1", "response": {"ok": True}, "index": index}
        )
        network.send(Message(name, "proxy-0", "server_response", {"signed": signed}))

    # Register fake replicas as processes so the network can route.
    for name in ("replica-0", "replica-1"):
        network.register(SimProcess(sim, name, respawn_delay=None))
    respond("replica-0", 0)
    sim.run(until=0.05)
    assert client.responses == []  # one vote is not enough at f=1
    respond("replica-1", 1)
    sim.run(until=0.2)
    assert len(client.responses) == 1


# ----------------------------------------------------------------------
# Signature checks happen only for requests still pending
# ----------------------------------------------------------------------
def spy_verify(monkeypatch, authority):
    """Record the signer of every ``authority.verify`` call."""
    calls: list[str] = []
    real = authority.verify

    def verify(signed):
        calls.append(signed.signer)
        return real(signed)

    monkeypatch.setattr(authority, "verify", verify)
    return calls


def test_late_duplicate_server_response_is_dropped_unverified(monkeypatch):
    sim, net, auth, servers, proxies, client = build_fortress()
    calls = spy_verify(monkeypatch, auth)
    send_client_request(net, "r1", {"op": "put", "key": "a", "value": 1})
    sim.run(until=0.5)
    # Three servers answered; only the answer that completed the request
    # was checked, the two that arrived after it were dropped unchecked.
    assert len(client.responses) == 1
    first = client.responses[0].payload
    assert calls == [first.signer]
    late = Message(first.signer, "proxy-0", "server_response", {"signed": first})
    net.send(late)
    net.send(Message("server-2", "proxy-0", "server_response", {"signed": first}))
    sim.run(until=1.0)
    assert calls == [first.signer]
    assert len(client.responses) == 1 and proxies[0].responses_delivered == 1


def test_response_to_unknown_request_is_dropped_unverified(monkeypatch):
    sim, net, auth, servers, proxies, client = build_fortress()
    calls = spy_verify(monkeypatch, auth)
    body = {"request_id": "never-sent", "response": {"ok": True}, "index": 0}
    signed = auth.sign("server-0", body)
    net.send(Message("server-0", "proxy-0", "server_response", {"signed": signed}))
    sim.run(until=0.5)
    assert calls == [] and client.responses == []


def test_forged_response_to_pending_request_is_still_verified(monkeypatch):
    sim, net, auth, servers, proxies, client = build_fortress()
    for server in servers:
        server.stop()  # the request stays pending
    calls = spy_verify(monkeypatch, auth)
    send_client_request(net, "r1", {"op": "get", "key": "a"})
    sim.run(until=0.01)
    body = {"request_id": "r1", "response": {"ok": True, "value": "evil"}, "index": 0}
    fake = Signed(payload=body, signer="server-0", signature="forged")
    net.send(Message("server-0", "proxy-0", "server_response", {"signed": fake}))
    sim.run(until=0.05)
    assert calls == ["server-0"]
    assert client.responses == [] and "r1" in proxies[0]._pending
    authentic = auth.sign("server-0", dict(body, response={"ok": True}))
    net.send(Message("server-0", "proxy-0", "server_response", {"signed": authentic}))
    sim.run(until=0.1)
    assert calls == ["server-0", "server-0"]
    assert len(client.responses) == 1
    assert client.responses[0].payload.payload["response"] == {"ok": True}
