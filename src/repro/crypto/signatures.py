"""Simulated digital signatures and the over-signing envelope.

FORTRESS responses carry **two** signatures (paper §3): each server signs
its response together with its index, and the forwarding proxy over-signs
one authentic server response.  A client accepts a response only when both
signatures verify.  :class:`Signed` models one signature layer; nesting a
``Signed`` inside another ``Signed`` models over-signing.

Signatures are HMAC-style tags over a canonical serialization, keyed by
the signer's private key.  The :class:`SignatureAuthority` plays the role
of the PKI: it issues key pairs and resolves public keys during
verification.  See :mod:`repro.crypto.keys` for why this substitution is
sound for a resilience study.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any

from ..errors import CryptoError
from .keys import KeyPair, generate_keypair


def canonical_bytes(obj: Any) -> bytes:
    """Serialize ``obj`` to a canonical byte string for signing.

    Dict keys are sorted by ``repr`` (the order of a map whose keys are
    all exact ``str`` is remembered per insertion-ordered key tuple);
    lists and tuples are equivalent; nested
    :class:`Signed` envelopes serialize by their fields.  Unsupported
    types raise :class:`~repro.errors.CryptoError` rather than silently
    using an unstable ``repr``.

    The encoding is built as text and encoded once.  ``bytes`` leaves
    travel as ``surrogateescape`` text, which encodes back to exactly
    the original bytes; ``repr`` escapes every surrogate of a ``str``
    leaf, so no other piece can collide with them.
    """
    return _text(obj).encode("utf-8", "surrogateescape")


def _text(obj: Any) -> str:
    """Canonical text of ``obj``, joined from string pieces.

    Exactly-typed scalars, dicts, lists, tuples and :class:`Signed`
    take the inline path, and containers encode their scalar children
    without a call; everything else (``bytes``, subclasses such as an
    ``IntEnum``, unsupported types) goes through :func:`_other_text`.
    """
    cls = type(obj)
    prefix = _SCALAR_PREFIX.get(cls)
    if prefix is not None:
        return f"{prefix}{obj!r};"
    if cls is dict:
        return _map_text(obj)
    if cls is list or cls is tuple:
        return _seq_text(obj)
    if cls is Signed:
        return _signed_text(_text(obj.payload), obj)
    return _other_text(obj)


def _map_text(obj: Any) -> str:
    keys = tuple(obj)
    for key in keys:
        if type(key) is not str:  # a subclass may hash and compare as a str
            return _sorted_map_text(obj)
    order = _STR_KEY_ORDER.get(keys)
    if order is None:
        order = _str_key_order(keys)
    pieces = ["map{"]
    append = pieces.append
    for key, key_text in order:
        append(key_text)
        value = obj[key]
        prefix = _SCALAR_PREFIX.get(type(value))
        append(f"{prefix}{value!r};" if prefix is not None else _text(value))
    append("}")
    return "".join(pieces)


def _str_key_order(keys: tuple) -> tuple:
    """Sorted ``(key, key text)`` pairs of a tuple of exact-``str`` keys,
    remembered under the tuple (the memo is emptied when full)."""
    if len(_STR_KEY_ORDER) >= _STR_KEY_ORDER_LIMIT:
        _STR_KEY_ORDER.clear()
    order = _STR_KEY_ORDER[keys] = tuple(
        (key, f"str:{key!r};=") for key in sorted(keys, key=repr)
    )
    return order


def _sorted_map_text(obj: Any) -> str:
    pieces = ["map{"]
    append = pieces.append
    for key in sorted(obj, key=repr):
        prefix = _SCALAR_PREFIX.get(type(key))
        append(f"{prefix}{key!r};=" if prefix is not None else _text(key) + "=")
        value = obj[key]
        prefix = _SCALAR_PREFIX.get(type(value))
        append(f"{prefix}{value!r};" if prefix is not None else _text(value))
    append("}")
    return "".join(pieces)


def _seq_text(obj: Any) -> str:
    pieces = ["seq["]
    append = pieces.append
    for item in obj:
        prefix = _SCALAR_PREFIX.get(type(item))
        append(f"{prefix}{item!r};" if prefix is not None else _text(item))
    append("]")
    return "".join(pieces)


def _signed_text(payload_text: str, obj: Signed) -> str:
    """Text of the envelope ``obj`` whose payload encodes as
    ``payload_text``."""
    return f"signed<{payload_text}{_text(obj.signer)}{_text(obj.signature)}>"


def _other_text(obj: Any) -> str:
    """Text of a value off the exact-type path, checked in the
    encoding's precedence order (a subclass encodes like its base, a
    scalar subclass under its own class name)."""
    if isinstance(obj, (bool, int, float, str)):
        return f"{type(obj).__name__}:{obj!r};"
    if isinstance(obj, bytes):
        return f"bytes:{obj.decode('utf-8', 'surrogateescape')};"
    if isinstance(obj, (list, tuple)):
        return _seq_text(obj)
    if isinstance(obj, dict):
        return _map_text(obj)
    if isinstance(obj, Signed):
        return _signed_text(_text(obj.payload), obj)
    raise CryptoError(f"cannot canonicalize value of type {type(obj).__name__}")


def _digest(private: str, text: str) -> str:
    """Signature tag of canonical ``text`` under ``private``."""
    digest = hashlib.sha256(private.encode("utf-8"))
    digest.update(text.encode("utf-8", "surrogateescape"))
    return digest.hexdigest()


@dataclass(frozen=True)
class Signed:
    """A payload together with one signature layer.

    Attributes
    ----------
    payload:
        The signed content (may itself be a :class:`Signed` envelope —
        that is FORTRESS over-signing).
    signer:
        Name of the signing party.
    signature:
        The tag produced by :meth:`SignatureAuthority.sign`.
    """

    payload: Any
    signer: str
    signature: str


#: Key order of the maps whose keys are all exact ``str``, by their
#: insertion-ordered key tuple: the sorted keys with each key's text.
#: Signed payloads repeat a few key sets, so the sort runs once per set;
#: values are still encoded at every call.
_STR_KEY_ORDER: dict[tuple, tuple] = {}
_STR_KEY_ORDER_LIMIT = 1024

#: Encoding prefix of each exactly-typed scalar (``bool`` is its own
#: type, so ``True`` and ``1`` encode apart).
_SCALAR_PREFIX: dict[type, str] = {
    str: "str:",
    int: "int:",
    bool: "bool:",
    float: "float:",
    type(None): "NoneType:",
}


class SignatureAuthority:
    """Issues key pairs and verifies signatures (the simulated PKI).

    Parameters
    ----------
    rng:
        RNG stream used for key generation.
    """

    def __init__(self, rng: random.Random | None = None) -> None:
        self._rng = rng or random.Random(0)
        self._by_owner: dict[str, KeyPair] = {}
        self._by_public: dict[str, KeyPair] = {}

    # ------------------------------------------------------------------
    # Key management
    # ------------------------------------------------------------------
    def issue_keypair(self, owner: str) -> KeyPair:
        """Issue (or re-issue) a key pair for ``owner``.

        Re-issuing replaces the owner's registered pair — used when a
        rebooted node provisions fresh credentials.
        """
        pair = generate_keypair(owner, self._rng)
        old = self._by_owner.get(owner)
        if old is not None:
            del self._by_public[old.public]
        self._by_owner[owner] = pair
        self._by_public[pair.public] = pair
        return pair

    def public_key_of(self, owner: str) -> str:
        """Return the registered public key of ``owner``."""
        try:
            return self._by_owner[owner].public
        except KeyError:
            raise CryptoError(f"no key pair registered for {owner!r}") from None

    def private_key_of(self, owner: str) -> str:
        """Return the private key of ``owner``.

        Legitimately called only by the owner; also called by attacker
        code after compromising the owner (a compromised node leaks its
        signing key).
        """
        try:
            return self._by_owner[owner].private
        except KeyError:
            raise CryptoError(f"no key pair registered for {owner!r}") from None

    # ------------------------------------------------------------------
    # Signing and verification
    # ------------------------------------------------------------------
    @staticmethod
    def tag(private: str, payload: Any) -> str:
        """Compute the signature tag of ``payload`` under ``private``.

        The payload is encoded as it is at call time, on every call, so
        a payload changed after signing no longer verifies.
        """
        return _digest(private, _text(payload))

    def sign(self, owner: str, payload: Any, private: str | None = None) -> Signed:
        """Sign ``payload`` as ``owner``.

        ``private`` defaults to the owner's registered key; an attacker
        passing a stolen key may sign as a victim (that is the point of
        modelling compromise).
        """
        key = private if private is not None else self.private_key_of(owner)
        return Signed(payload=payload, signer=owner, signature=self.tag(key, payload))

    def _check(self, signer: str, text: str, signature: str) -> bool:
        """Whether ``signature`` is ``signer``'s registered tag of the
        canonical ``text``."""
        pair = self._by_owner.get(signer)
        return pair is not None and _digest(pair.private, text) == signature

    def verify(self, signed: Signed) -> bool:
        """Check one signature layer against the signer's registered key."""
        return self._check(signed.signer, _text(signed.payload), signed.signature)

    def verify_oversigned(self, envelope: Signed) -> bool:
        """Check a FORTRESS doubly-signed response.

        The outer layer must be a valid proxy signature over an inner
        :class:`Signed` carrying a valid server signature.  The inner
        payload is encoded once: its text is the server's signed text
        and a piece of the proxy's.
        """
        inner = envelope.payload
        if not isinstance(inner, Signed):
            return False
        payload_text = _text(inner.payload)
        outer_text = _signed_text(payload_text, inner)
        if not self._check(envelope.signer, outer_text, envelope.signature):
            return False
        return self._check(inner.signer, payload_text, inner.signature)
