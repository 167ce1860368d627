"""Proxy tier: forwarding, over-signing, probe detection, name server."""

from .._exports import lazy_exports

_EXPORTS = {
    "DetectionLog": "detection",
    "DetectionPolicy": "detection",
    "kappa_for_policy": "detection",
    "Directory": "nameserver",
    "NameServer": "nameserver",
    "CLIENT_ERROR": "proxy",
    "CLIENT_REQUEST": "proxy",
    "CLIENT_RESPONSE": "proxy",
    "ProxyNode": "proxy",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
