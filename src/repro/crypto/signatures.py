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
from typing import Any, Callable

from ..errors import CryptoError
from .keys import KeyPair, generate_keypair


def canonical_bytes(obj: Any) -> bytes:
    """Serialize ``obj`` to a canonical byte string for signing.

    Dict keys are sorted; lists and tuples are equivalent; nested
    :class:`Signed` envelopes serialize by their fields.  Unsupported
    types raise :class:`~repro.errors.CryptoError` rather than silently
    using an unstable ``repr``.

    The encoding is built as text and encoded once.  ``bytes`` leaves
    travel as ``surrogateescape`` text, which encodes back to exactly
    the original bytes; ``repr`` escapes every surrogate of a ``str``
    leaf, so no other piece can collide with them.
    """
    out: list[str] = []
    _encode(obj, out.append)
    return "".join(out).encode("utf-8", "surrogateescape")


def _encode(obj: Any, emit: Callable[[str], None]) -> None:
    cls = type(obj)
    kind = _KINDS.get(cls) or _subclass_kind(obj)
    if kind is _SCALAR:
        emit(f"{cls.__name__}:{obj!r};")
    elif kind is _MAP:
        emit("map{")
        for key in sorted(obj, key=repr):
            _encode(key, emit)
            emit("=")
            _encode(obj[key], emit)
        emit("}")
    elif kind is _SEQ:
        emit("seq[")
        for item in obj:
            _encode(item, emit)
        emit("]")
    elif kind is _SIGNED:
        emit("signed<")
        _encode(obj.payload, emit)
        _encode(obj.signer, emit)
        _encode(obj.signature, emit)
        emit(">")
    else:
        emit(f"bytes:{obj.decode('utf-8', 'surrogateescape')};")


def _subclass_kind(obj: Any) -> str:
    """Kind of a value whose exact type is not in ``_KINDS`` (a subclass
    such as an ``IntEnum``), checked in the encoding's precedence order."""
    if isinstance(obj, (bool, int, float, str)):
        return _SCALAR
    if isinstance(obj, bytes):
        return _BYTES
    if isinstance(obj, (list, tuple)):
        return _SEQ
    if isinstance(obj, dict):
        return _MAP
    if isinstance(obj, Signed):
        return _SIGNED
    raise CryptoError(f"cannot canonicalize value of type {type(obj).__name__}")


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


_SCALAR, _BYTES, _SEQ, _MAP, _SIGNED = "scalar", "bytes", "seq", "map", "signed"

#: Encoding kind of each exactly-typed value; subclasses go through
#: :func:`_subclass_kind`.
_KINDS: dict[type, str] = {
    str: _SCALAR,
    int: _SCALAR,
    bool: _SCALAR,
    float: _SCALAR,
    type(None): _SCALAR,
    dict: _MAP,
    list: _SEQ,
    tuple: _SEQ,
    Signed: _SIGNED,
    bytes: _BYTES,
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
        digest = hashlib.sha256()
        digest.update(private.encode("utf-8"))
        digest.update(canonical_bytes(payload))
        return digest.hexdigest()

    def sign(self, owner: str, payload: Any, private: str | None = None) -> Signed:
        """Sign ``payload`` as ``owner``.

        ``private`` defaults to the owner's registered key; an attacker
        passing a stolen key may sign as a victim (that is the point of
        modelling compromise).
        """
        key = private if private is not None else self.private_key_of(owner)
        return Signed(payload=payload, signer=owner, signature=self.tag(key, payload))

    def verify(self, signed: Signed) -> bool:
        """Check one signature layer against the signer's registered key."""
        pair = self._by_owner.get(signed.signer)
        if pair is None:
            return False
        return self.tag(pair.private, signed.payload) == signed.signature

    def verify_oversigned(self, envelope: Signed) -> bool:
        """Check a FORTRESS doubly-signed response.

        The outer layer must be a valid proxy signature over an inner
        :class:`Signed` carrying a valid server signature.
        """
        if not self.verify(envelope):
            return False
        inner = envelope.payload
        return isinstance(inner, Signed) and self.verify(inner)
