"""Network substrate: datagrams, latency models, crash-observable connections."""

from .._exports import lazy_exports

_EXPORTS = {
    "ExponentialLatency": "latency",
    "FixedLatency": "latency",
    "LatencyModel": "latency",
    "UniformLatency": "latency",
    "Message": "message",
    "Network": "network",
    "Connection": "transport",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
