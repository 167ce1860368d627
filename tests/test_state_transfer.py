"""Locks for the state-transfer and signing fast path.

Three shortcuts keep replicas from re-encoding state that has not
changed, and each is checked here against what it replaces:

* ``canonical_bytes`` builds its encoding as text in one pass; a
  property test compares it with the recursive bytes builder it
  replaced (copied below as the oracle);
* an SMR replica memoizes its state digest between state changes; a
  tap on every ``SYNC_RESPONSE`` of an attacked S0 deployment with a
  writing client checks each reported digest against the snapshot it
  ships;
* an SMR replica memoizes its whole ``SYNC_RESPONSE`` payload and sends
  the same object to every asker; a tap on every answered sync request
  (under attack, with client writes and a forced view change) checks
  each sent payload against one built fresh from the replica's state,
  and a deep copy taken at send time proves no receiver mutated it;
* ``KVStoreService`` copies scalar-only data with a flat ``dict`` copy;
  services restored from one shared snapshot must stay independent.

Signing still encodes the payload on every call, so a payload changed
after signing must fail verification.
"""

from __future__ import annotations

import collections
import copy
import hashlib
import random
from enum import IntEnum
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builders import add_clients, attach_attacker, build_system
from repro.core.specs import s0
from repro.crypto.signatures import Signed, SignatureAuthority, canonical_bytes
from repro.errors import CryptoError
from repro.net.message import Message
from repro.net.network import Network
from repro.randomization.obfuscation import Scheme
from repro.replication.primary_backup import SYNC_REQUEST, SYNC_RESPONSE
from repro.replication.smr import SMRReplica
from repro.replication.state_machine import KVStoreService, Service


# ----------------------------------------------------------------------
# Encoder equivalence
# ----------------------------------------------------------------------
def _oracle_canonicalize(obj: Any, out: list[bytes]) -> None:
    """The recursive bytes builder ``canonical_bytes`` used to run."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        out.append(f"{type(obj).__name__}:{obj!r};".encode("utf-8"))
    elif isinstance(obj, bytes):
        out.append(b"bytes:" + obj + b";")
    elif isinstance(obj, (list, tuple)):
        out.append(b"seq[")
        for item in obj:
            _oracle_canonicalize(item, out)
        out.append(b"]")
    elif isinstance(obj, dict):
        out.append(b"map{")
        for key in sorted(obj, key=repr):
            _oracle_canonicalize(key, out)
            out.append(b"=")
            _oracle_canonicalize(obj[key], out)
        out.append(b"}")
    elif isinstance(obj, Signed):
        out.append(b"signed<")
        _oracle_canonicalize(obj.payload, out)
        _oracle_canonicalize(obj.signer, out)
        _oracle_canonicalize(obj.signature, out)
        out.append(b">")
    else:
        raise CryptoError(f"cannot canonicalize value of type {type(obj).__name__}")


def oracle_bytes(obj: Any) -> bytes:
    out: list[bytes] = []
    _oracle_canonicalize(obj, out)
    return b"".join(out)


class Level(IntEnum):
    LOW = 1
    HIGH = 2


class Label(str):
    pass


class Tagged(dict):
    pass


Pair = collections.namedtuple("Pair", "left right")

#: Non-ASCII, astral, NUL, quote, backslash and newline characters.
tricky_text = st.text(alphabet=st.sampled_from("aé€\U0001f600\x00'\"\\\n"))
texts = st.text() | tricky_text
invalid_utf8 = st.sampled_from(
    [b"\xff", b"\x80abc", b"\xed\xa0\x80", b"\xc3", b"a\xfe"]
)
byte_strings = st.binary(max_size=12) | invalid_utf8
keys = (
    st.none()
    | st.booleans()
    | st.integers()
    | texts
    | byte_strings
    | st.sampled_from(list(Level))
    | texts.map(Label)
    | st.tuples(st.integers(), texts)
)
leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | texts
    | byte_strings
    | st.sampled_from(list(Level))
    | texts.map(Label)
)


def _extend(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(keys, children, max_size=4)
        | st.dictionaries(texts, children, max_size=3).map(Tagged)
        | st.builds(Pair, children, children)
        | st.builds(Signed, children, texts, texts)
        | st.frozensets(st.integers(), min_size=1, max_size=3)
        | st.sets(st.integers(), min_size=1, max_size=3)
    )


values = st.recursive(leaves, _extend, max_leaves=24)


@given(value=values)
@settings(max_examples=400, deadline=None)
def test_canonical_bytes_matches_recursive_oracle(value):
    try:
        want = oracle_bytes(value)
    except CryptoError as expected:
        with pytest.raises(CryptoError) as raised:
            canonical_bytes(value)
        assert str(raised.value) == str(expected)
    else:
        assert canonical_bytes(value) == want


@pytest.mark.parametrize(
    "value",
    [
        b"\xff\xfe",
        {"k": b"\xed\xa0\x80", b"\x80": "\udcff"},
        [Level.HIGH, Label("x"), True, 1, 1.0, None],
        Signed(Signed({"a": [1, (2, b"\xc3")]}, "s", "t"), "p", "u"),
    ],
)
def test_canonical_bytes_edge_cases_match_oracle(value):
    assert canonical_bytes(value) == oracle_bytes(value)


def test_canonical_bytes_rejects_a_set_anywhere():
    with pytest.raises(CryptoError, match="type set"):
        canonical_bytes({"ok": [1, {2, 3}]})


# ----------------------------------------------------------------------
# Signing encodes the payload as it is at call time
# ----------------------------------------------------------------------
def test_payload_mutated_after_signing_fails_verification():
    authority = SignatureAuthority(random.Random(3))
    authority.issue_keypair("server")
    authority.issue_keypair("proxy")
    payload = {"request_id": "r1", "response": {"ok": True, "value": [1, 2]}}
    signed = authority.sign("server", payload)
    envelope = authority.sign("proxy", signed)
    assert authority.verify(signed) and authority.verify_oversigned(envelope)

    payload["response"]["value"].append(3)
    assert not authority.verify(signed)
    assert not authority.verify_oversigned(envelope)

    payload["response"]["value"].pop()
    assert authority.verify(signed)
    payload["index"] = 0
    assert not authority.verify(signed)


# ----------------------------------------------------------------------
# Snapshot copies
# ----------------------------------------------------------------------
def test_restores_of_one_scalar_snapshot_stay_independent():
    """Two backups restoring one multicast snapshot share no state."""
    primary = KVStoreService()
    primary.apply({"op": "put", "key": "a", "value": 1})
    primary.apply({"op": "put", "key": "b", "value": "x"})
    snapshot = primary.snapshot()
    first, second = KVStoreService(), KVStoreService()
    first.restore(snapshot)
    second.restore(snapshot)

    first.apply({"op": "incr", "key": "a"})
    first.apply({"op": "put", "key": "c", "value": None})
    second.apply({"op": "delete", "key": "b"})

    assert snapshot == {"data": {"a": 1, "b": "x"}, "ops": 2}
    assert first.snapshot()["data"] == {"a": 2, "b": "x", "c": None}
    assert second.snapshot()["data"] == {"a": 1}
    assert primary.snapshot() == snapshot


def test_snapshot_with_mutable_values_is_still_deep():
    service = KVStoreService()
    service.apply({"op": "put", "key": "a", "value": [1, {"n": 2}]})
    snapshot = service.snapshot()
    snapshot["data"]["a"][1]["n"] = 99
    assert service.apply({"op": "get", "key": "a"})["value"] == [1, {"n": 2}]

    restored = KVStoreService()
    restored.restore(snapshot)
    snapshot["data"]["a"].append(3)
    assert restored.snapshot()["data"] == {"a": [1, {"n": 99}]}


# ----------------------------------------------------------------------
# Memoized SMR state digest
# ----------------------------------------------------------------------
def test_sync_digests_match_shipped_snapshots_under_attack(monkeypatch):
    """Every SYNC_RESPONSE of an attacked S0 deployment with a writing
    client reports the digest of the snapshot it carries, and each
    replica hashes its state at most once per state change."""
    reports = []
    adopt = SMRReplica._DISPATCH[SYNC_RESPONSE]

    def tap(replica, message):
        payload = message.payload
        reports.append((message.src, payload["digest"], payload["snapshot"]))
        adopt(replica, message)

    monkeypatch.setitem(SMRReplica._DISPATCH, SYNC_RESPONSE, tap)
    changes = collections.Counter()
    for name in ("apply", "restore"):
        original = getattr(KVStoreService, name)

        def counted(service, arg, _original=original, _name=name):
            changes[_name] += 1
            return _original(service, arg)

        monkeypatch.setattr(KVStoreService, name, counted)
    digest = Service.digest

    def counted_digest(service):
        changes["digest"] += 1
        return digest(service)

    monkeypatch.setattr(Service, "digest", counted_digest)

    deployed = build_system(s0(Scheme.SO, alpha=0.05, entropy_bits=8), seed=3)
    client = add_clients(deployed, 1)[0]
    attach_attacker(deployed)
    deployed.start()
    deployed.sim.run(until=10.0)

    assert client.responses_ok > 0
    assert any(server.crash_count for server in deployed.servers)
    with_state = [r for r in reports if r[2]["data"]]
    assert len(with_state) > 100
    assert len({(src, snap["ops"]) for src, _, snap in with_state}) > 10
    for src, reported, snapshot in reports:
        shipped = hashlib.sha256(canonical_bytes(snapshot)).hexdigest()
        assert reported == shipped, f"{src} reported a stale digest"
    servers = len(deployed.servers)
    assert changes["digest"] <= changes["apply"] + changes["restore"] + servers
    assert changes["digest"] < len(reports) / 4


def test_sync_after_adopting_peer_state_reports_the_adopted_state(monkeypatch):
    """A replica that answered a sync (memoizing its digest) and then
    adopts a newer state from f + 1 peers reports the new state."""
    reports = []
    adopt = SMRReplica._DISPATCH[SYNC_RESPONSE]

    def tap(replica, message):
        reports.append(message.payload)
        adopt(replica, message)

    monkeypatch.setitem(SMRReplica._DISPATCH, SYNC_RESPONSE, tap)
    deployed = build_system(s0(Scheme.SO, alpha=0.05, entropy_bits=8), seed=3)
    deployed.start()
    replica, asker = deployed.servers[0], deployed.servers[1].name
    replica.handle_message(Message(asker, replica.name, SYNC_REQUEST, {}))
    deployed.sim.run(until=0.1)
    assert reports[-1]["digest"] == KVStoreService().digest()

    peer_state = KVStoreService()
    peer_state.apply({"op": "put", "key": "k", "value": 7})
    newer = {
        "seq": replica.executed_seq + 1,
        "view": replica.view,
        "digest": peer_state.digest(),
        "snapshot": peer_state.snapshot(),
        "cache": {},
        "executed_ids": [],
    }
    for peer in deployed.servers[1:3]:
        adopt(replica, Message(peer.name, replica.name, SYNC_RESPONSE, dict(newer)))
    assert replica.service.digest() == peer_state.digest()

    replica.handle_message(Message(asker, replica.name, SYNC_REQUEST, {}))
    deployed.sim.run(until=0.2)
    assert reports[-1]["digest"] == peer_state.digest()
    assert reports[-1]["snapshot"] == peer_state.snapshot()


# ----------------------------------------------------------------------
# Memoized SMR sync payload
# ----------------------------------------------------------------------
def _fresh_sync_payload(replica: SMRReplica) -> dict:
    """The SYNC_RESPONSE payload built from scratch, as before the memo."""
    return {
        "seq": replica.executed_seq,
        "view": replica.view,
        "digest": replica.service.digest(),
        "snapshot": replica.service.snapshot(),
        "cache": dict(replica.response_cache),
        "executed_ids": sorted(replica.executed_ids),
    }


def test_sync_payload_memo_is_fresh_and_never_mutated(monkeypatch):
    """Every answered sync request of an attacked S0 deployment with a
    writing client and a forced view change sends exactly the payload a
    fresh build would, and nobody mutates a payload after it is sent."""
    outbox = []
    send = Network.send

    def recording_send(network, message):
        if message.mtype == SYNC_RESPONSE:
            outbox.append(message.payload)
        send(network, message)

    monkeypatch.setattr(Network, "send", recording_send)
    sent = []
    answer = SMRReplica._DISPATCH[SYNC_REQUEST]

    def tap(replica, message):
        fresh = _fresh_sync_payload(replica)
        answer(replica, message)
        payload = outbox[-1]
        assert payload == fresh, f"{replica.name} sent a stale sync payload"
        sent.append((payload, copy.deepcopy(payload)))

    monkeypatch.setitem(SMRReplica._DISPATCH, SYNC_REQUEST, tap)
    deployed = build_system(s0(Scheme.SO, alpha=0.05, entropy_bits=8), seed=3)
    client = add_clients(deployed, 1)[0]
    attach_attacker(deployed)
    leader = deployed.servers[0]
    # Power the view-0 leader off while requests are pending: the others
    # time out and move to view 1.
    deployed.sim.schedule(3.0, leader.begin_outage)
    deployed.sim.schedule(5.0, leader.end_outage)
    deployed.start()
    deployed.sim.run(until=10.0)

    assert len(sent) == len(outbox)
    assert client.responses_ok > 0
    assert any(server.crash_count for server in deployed.servers)
    assert any(payload["snapshot"]["data"] for payload, _ in sent)
    assert any(payload["view"] > 0 for payload, _ in sent)
    assert len({id(payload) for payload, _ in sent}) < len(sent) / 2  # shared
    for payload, at_send in sent:
        assert payload == at_send, "a sent sync payload was mutated"
