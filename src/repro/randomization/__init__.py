"""Randomization substrate: key spaces, address spaces, PO/SO scheduling."""

from .._exports import lazy_exports

_EXPORTS = {
    "PAX_32BIT_ENTROPY": "keyspace",
    "KeySpace": "keyspace",
    "AddressSpace": "layout",
    "ProbeOutcome": "layout",
    "RandomizedProcess": "node",
    "KeyGroup": "obfuscation",
    "ObfuscationManager": "obfuscation",
    "Scheme": "obfuscation",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
