"""Simulated crypto: key pairs, signatures, over-signing envelopes."""

from .._exports import lazy_exports

_EXPORTS = {
    "KeyPair": "keys",
    "generate_keypair": "keys",
    "Signed": "signatures",
    "SignatureAuthority": "signatures",
    "canonical_bytes": "signatures",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
