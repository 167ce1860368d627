"""Unit tests for message construction."""

from __future__ import annotations

from repro.net.message import Message


def test_reply_swaps_endpoints():
    request = Message("client", "server", "request", {"k": 1})
    response = request.reply("response", {"ok": True})
    assert response.src == "server"
    assert response.dst == "client"
    assert response.mtype == "response"
    assert response.payload == {"ok": True}


def test_reply_default_payload_empty():
    m = Message("a", "b", "t")
    assert m.reply("r").payload == {}


def test_forwarded_preserves_type_and_payload():
    original = Message("client", "proxy", "client_request", {"body": {"op": "get"}})
    forwarded = original.forwarded("proxy", "server")
    assert forwarded.src == "proxy"
    assert forwarded.dst == "server"
    assert forwarded.mtype == original.mtype
    assert forwarded.payload == original.payload
    assert forwarded is not original


def test_default_payload_is_empty_mapping():
    a = Message("x", "y", "t")
    assert a.payload == {}


def test_forwarded_and_reply_share_payload_mappings():
    """The hot relay paths must not copy payloads: proxies forward client
    requests verbatim, so the forwarded message adopts the same mapping
    (payloads are write-once by protocol convention)."""
    original = Message("client", "proxy", "client_request", {"body": {"op": "get"}})
    assert original.forwarded("proxy", "server").payload is original.payload
    reply_payload = {"ok": True}
    assert original.reply("response", reply_payload).payload is reply_payload
