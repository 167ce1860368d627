"""Locks on the canonical signing encoding.

``canonical_bytes`` feeds every signature, the SMR state digest and the
service digest, so its bytes are part of the behaviour contract:

* ``golden_canonical_bytes.json`` holds the encoding, the signature tag
  (or the error) of a fixed corpus, captured from the one-pass emitter
  encoder that preceded the piecewise one;
* a hypothesis property compares the encoder with a copy of that
  emitter encoder, kept below as the oracle, and fixed cases repeat
  key sets the way signed payloads do;
* ``verify_oversigned``, which encodes the inner payload once for both
  layers, agrees with two separate ``verify`` calls.

Regenerate the golden only from a commit whose encoding is the
reference, with ``python tests/test_canonical_encoding.py --capture``.
"""

from __future__ import annotations

import collections
import json
import math
import random
import sys
from enum import IntEnum
from pathlib import Path
from typing import Any, Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.signatures import Signed, SignatureAuthority, canonical_bytes
from repro.errors import CryptoError

GOLDEN = Path(__file__).parent / "data" / "golden_canonical_bytes.json"
TAG_KEY = "golden-private-key"


# ----------------------------------------------------------------------
# Oracle: the emitter encoder the piecewise one replaced
# ----------------------------------------------------------------------
def _oracle_encode(obj: Any, emit: Callable[[str], None]) -> None:
    cls = type(obj)
    kind = _ORACLE_KINDS.get(cls) or _oracle_subclass_kind(obj)
    if kind == "scalar":
        emit(f"{cls.__name__}:{obj!r};")
    elif kind == "map":
        emit("map{")
        for key in sorted(obj, key=repr):
            _oracle_encode(key, emit)
            emit("=")
            _oracle_encode(obj[key], emit)
        emit("}")
    elif kind == "seq":
        emit("seq[")
        for item in obj:
            _oracle_encode(item, emit)
        emit("]")
    elif kind == "signed":
        emit("signed<")
        _oracle_encode(obj.payload, emit)
        _oracle_encode(obj.signer, emit)
        _oracle_encode(obj.signature, emit)
        emit(">")
    else:
        emit(f"bytes:{obj.decode('utf-8', 'surrogateescape')};")


def _oracle_subclass_kind(obj: Any) -> str:
    if isinstance(obj, (bool, int, float, str)):
        return "scalar"
    if isinstance(obj, bytes):
        return "bytes"
    if isinstance(obj, (list, tuple)):
        return "seq"
    if isinstance(obj, dict):
        return "map"
    if isinstance(obj, Signed):
        return "signed"
    raise CryptoError(f"cannot canonicalize value of type {type(obj).__name__}")


_ORACLE_KINDS: dict[type, str] = {
    str: "scalar",
    int: "scalar",
    bool: "scalar",
    float: "scalar",
    type(None): "scalar",
    dict: "map",
    list: "seq",
    tuple: "seq",
    Signed: "signed",
    bytes: "bytes",
}


def oracle_bytes(obj: Any) -> bytes:
    out: list[str] = []
    _oracle_encode(obj, out.append)
    return "".join(out).encode("utf-8", "surrogateescape")


# ----------------------------------------------------------------------
# Fixed corpus
# ----------------------------------------------------------------------
class Level(IntEnum):
    LOW = 1
    HIGH = 2


class Label(str):
    pass


class Tagged(dict):
    pass


Pair = collections.namedtuple("Pair", "left right")


def corpus() -> dict[str, Any]:
    """Named values whose encodings the golden pins."""
    body = {"request_id": "openloop-1-r7", "response": {"ok": True}, "index": 0}
    server = Signed(body, "server-0", "ab" * 32)
    return {
        "scalars": [None, True, False, 0, 1, -7, 2**70, 1.5, "", "plain"],
        "bool_vs_int": [True, 1, False, 0],
        "floats": [math.inf, -math.inf, math.nan, -0.0, 0.0, 1e300, 5e-324],
        "mixed_keys": {
            None: "none",
            True: "bool",
            7: "int",
            "7": "str",
            2.5: "float",
            (1, "t"): "tuple",
            b"k": "bytes",
            Level.HIGH: "enum",
            Label("lab"): "label",
        },
        "repr_tie_keys": {Label("x"): 1, "y": 2, Label("a"): 3},
        "quoted_keys": {"plain": 1, "it's": 2, 'say "hi"': 3, "back\\slash": 4},
        "list": [1, [2, 3], (4,)],
        "tuple": (1, [2, 3], (4,)),
        "empty": [{}, [], (), ""],
        "bytes_invalid_utf8": [b"\xff\xfe", b"\xed\xa0\x80", b"\x80abc", b"a\xc3"],
        "bytes_in_map": {"k": b"\xed\xa0\x80", b"\x80": "\udcff"},
        "quotes": ["it's", 'say "hi"', "both ' and \"", "'", '"'],
        "backslashes": ["back\\slash", "\\", "\\'", "tab\t", "\x00\n"],
        "surrogates": ["\udcff", "\ud800x", "\U0001f600", "é€"],
        "int_enum": [Level.LOW, Level.HIGH],
        "str_subclass": [Label("x"), Label("")],
        "dict_subclass": Tagged({"b": 1, "a": Tagged({"c": [2]})}),
        "namedtuple": Pair(1, Pair("l", b"\xff")),
        "signed": server,
        "oversigned": Signed(server, "proxy-0", "cd" * 32),
        "nested_signed_bytes": Signed(
            Signed({"a": [1, (2, b"\xc3")]}, "s", "t"), "p", "u"
        ),
        "kv_snapshot": {"data": {"k0": 3, "k1": "v", "k2": None}, "ops": 5},
        "sync_response": {
            "seq": 4,
            "view": 1,
            "digest": "e3b0c442",
            "snapshot": {"data": {"k3": [1, {"n": 2}]}, "ops": 4},
        },
    }


def errors() -> dict[str, Any]:
    """Named values the encoding must refuse."""
    return {
        "set": {"ok": [1, {2, 3}]},
        "frozenset_key": {frozenset({1}): 1},
        "object": [1, object()],
        "set_before_frozenset": [{1}, frozenset({2})],
    }


def capture() -> dict[str, Any]:
    values = {}
    tags = {}
    for name, value in corpus().items():
        values[name] = canonical_bytes(value).hex()
        tags[name] = SignatureAuthority.tag(TAG_KEY, value)
    refused = {}
    for name, value in errors().items():
        try:
            canonical_bytes(value)
        except CryptoError as error:
            refused[name] = str(error)
        else:  # pragma: no cover - the capture commit must refuse them
            raise AssertionError(f"{name} encoded")
    return {"values": values, "tags": tags, "errors": refused}


@pytest.fixture(scope="module")
def golden() -> dict[str, Any]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(corpus()))
def test_encoding_matches_golden(golden, name):
    value = corpus()[name]
    assert canonical_bytes(value).hex() == golden["values"][name]
    assert SignatureAuthority.tag(TAG_KEY, value) == golden["tags"][name]
    assert oracle_bytes(value) == canonical_bytes(value)


@pytest.mark.parametrize("name", sorted(errors()))
def test_refusals_match_golden(golden, name):
    with pytest.raises(CryptoError) as raised:
        canonical_bytes(errors()[name])
    assert str(raised.value) == golden["errors"][name]


def test_golden_covers_the_whole_corpus(golden):
    assert set(golden["values"]) == set(corpus()) == set(golden["tags"])
    assert set(golden["errors"]) == set(errors())


# ----------------------------------------------------------------------
# Property: the encoder equals the oracle on random values
# ----------------------------------------------------------------------
texts = st.text() | st.text(
    alphabet=st.sampled_from("aé\U0001f600\x00'\"\\\n\udcff")
)
byte_strings = st.binary(max_size=8) | st.sampled_from([b"\xff", b"\xed\xa0\x80"])
keys = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | texts
    | byte_strings
    | st.sampled_from(list(Level))
    | texts.map(Label)
    | st.tuples(st.integers(), texts)
)


def _containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(keys, children, max_size=4)
        | st.dictionaries(texts, children, max_size=3).map(Tagged)
        | st.builds(Pair, children, children)
        | st.builds(Signed, children, texts, texts)
    )


def _with_refused(children):
    return _containers(children) | st.sets(st.integers(), min_size=1, max_size=2)


encodable = st.recursive(keys, _containers, max_leaves=20)
values = st.recursive(keys | st.just(object()), _with_refused, max_leaves=20)


@given(value=values)
@settings(max_examples=400, deadline=None)
def test_encoder_matches_emitter_oracle(value):
    try:
        want = oracle_bytes(value)
    except CryptoError as expected:
        with pytest.raises(CryptoError) as raised:
            canonical_bytes(value)
        assert str(raised.value) == str(expected)
    else:
        assert canonical_bytes(value) == want


# ----------------------------------------------------------------------
# Maps of exact-str keys reuse a remembered key order
# ----------------------------------------------------------------------
#: Each case lists maps in encoding order: a later map may meet the key
#: order an earlier one left behind, and must still match the oracle.
REPEATED_KEY_SETS = {
    # Equal and equally hashed keys, one of them a str subclass.
    "str_subclass_after_plain": [
        {"x": 1, "y": 2},
        {Label("x"): 1, "y": 2},
        {"x": 1, Label("y"): 2},
        {"x": Label("v"), "y": 2},
    ],
    # repr order differs from str order: repr("a'") opens with '"'.
    "quotes_and_bang": [
        {"a": 1, "a!": 2, "a'": 3, 'a"': 4, "it's": 5, "!": 6},
        {"!": 6, "it's": 5, 'a"': 4, "a'": 3, "a!": 2, "a": 1},
    ],
    "prefixes": [
        {"ab": 1, "a": 2, "abc": 3, "": 4, "b": 5},
        {"a": {"ab": 1, "a": 2}, "ab": {"a": 2, "ab": 1}},
    ],
}


@pytest.mark.parametrize("name", sorted(REPEATED_KEY_SETS))
def test_repeated_key_sets_encode_like_the_oracle(name):
    for _ in range(2):  # the second pass meets only remembered key sets
        for value in REPEATED_KEY_SETS[name]:
            assert canonical_bytes(value) == oracle_bytes(value)
            nested = [value, {"inner": value}]
            assert canonical_bytes(nested) == oracle_bytes(nested)


# ----------------------------------------------------------------------
# verify_oversigned: one encoding of the inner payload, same verdicts
# ----------------------------------------------------------------------
def _two_layer_verdict(authority: SignatureAuthority, envelope: Signed) -> bool:
    inner = envelope.payload
    return (
        authority.verify(envelope)
        and isinstance(inner, Signed)
        and authority.verify(inner)
    )


@given(
    payload=encodable,
    inner_signer=st.sampled_from(["server", "proxy", "ghost"]),
    outer_signer=st.sampled_from(["server", "proxy", "ghost"]),
    forge=st.sampled_from(["none", "inner", "outer", "payload"]),
)
@settings(max_examples=200, deadline=None)
def test_verify_oversigned_agrees_with_layerwise_verify(
    payload, inner_signer, outer_signer, forge
):
    authority = SignatureAuthority(random.Random(5))
    authority.issue_keypair("server")
    authority.issue_keypair("proxy")
    key = authority.private_key_of
    inner_key = key(inner_signer) if inner_signer != "ghost" else "k"
    outer_key = key(outer_signer) if outer_signer != "ghost" else "k"
    inner = authority.sign(inner_signer, payload, private=inner_key)
    if forge == "inner":
        inner = Signed(inner.payload, inner.signer, "0" * 64)
    envelope = authority.sign(outer_signer, inner, private=outer_key)
    if forge == "outer":
        envelope = Signed(inner, outer_signer, "0" * 64)
    if forge == "payload":
        envelope = Signed(
            Signed([payload], inner.signer, inner.signature),
            outer_signer,
            envelope.signature,
        )
    assert authority.verify_oversigned(envelope) == _two_layer_verdict(
        authority, envelope
    )


def test_verify_oversigned_refuses_a_non_envelope_payload():
    authority = SignatureAuthority(random.Random(5))
    authority.issue_keypair("proxy")
    envelope = authority.sign("proxy", {"request_id": "r1"})
    assert authority.verify(envelope)
    assert not authority.verify_oversigned(envelope)


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        raise SystemExit("usage: test_canonical_encoding.py --capture")
    GOLDEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
