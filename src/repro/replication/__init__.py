"""Replication substrates: primary-backup, SMR ordering, services."""

from .._exports import lazy_exports

_EXPORTS = {
    "OrderingState": "order_protocol",
    "Slot": "order_protocol",
    "SlotPhase": "order_protocol",
    "quorum_size": "order_protocol",
    "PROBE_OP": "primary_backup",
    "PBServer": "primary_backup",
    "SMRReplica": "smr",
    "request_digest": "smr",
    "CounterService": "state_machine",
    "KVStoreService": "state_machine",
    "Service": "state_machine",
    "SessionTokenService": "state_machine",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
