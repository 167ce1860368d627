"""Replicated services.

The paper's central contrast is between services that *are* deterministic
state machines (SMR-compatible) and services that are not.  We provide:

* :class:`KVStoreService` — a deterministic key-value store, usable under
  both SMR and primary-backup;
* :class:`CounterService` — a minimal deterministic service for tests;
* :class:`SessionTokenService` — a service with inherent non-determinism
  (it mints random session tokens), which diverges under SMR but
  replicates perfectly under primary-backup.  This is the class of
  service that motivates FORTRESS (§1: PB "is suited to replicating any
  service without having to deal with sources of non-determinism").

A service processes request dicts of the form ``{"op": ..., ...args}``
and returns a response dict ``{"ok": bool, ...}``.  State can be
snapshotted, restored, and digested for state-transfer and agreement
checks.
"""

from __future__ import annotations

import copy
import hashlib
import random
from abc import ABC, abstractmethod
from typing import Any, Mapping

from ..crypto.signatures import canonical_bytes


class Service(ABC):
    """Interface every replicated service implements."""

    @abstractmethod
    def apply(self, request: Mapping[str, Any]) -> dict[str, Any]:
        """Execute one request against the service state."""

    @abstractmethod
    def snapshot(self) -> Any:
        """Return a deep, self-contained copy of the service state."""

    @abstractmethod
    def restore(self, state: Any) -> None:
        """Replace the service state with a snapshot."""

    def digest(self) -> str:
        """Stable hash of the current state (for agreement checks)."""
        return hashlib.sha256(canonical_bytes(self.snapshot())).hexdigest()

    @property
    def deterministic(self) -> bool:
        """Whether identical request sequences yield identical states."""
        return True


#: Immutable value types a store can copy by reference.
_SCALAR_TYPES = frozenset((int, str, float, bool, type(None)))


def _copy_data(data: dict[str, Any]) -> dict[str, Any]:
    """A self-contained copy of a store's data: a flat ``dict`` copy
    when every value's exact type is an immutable scalar (the built-in
    workloads write only ints), else a deep copy."""
    for value in data.values():
        if type(value) not in _SCALAR_TYPES:
            return copy.deepcopy(data)
    return dict(data)


class KVStoreService(Service):
    """Deterministic key-value store.

    Operations: ``get``, ``put``, ``delete``, ``incr``, ``keys``.
    """

    def __init__(self) -> None:
        self._data: dict[str, Any] = {}
        self.ops_applied = 0

    def apply(self, request: Mapping[str, Any]) -> dict[str, Any]:
        op = request.get("op")
        key = request.get("key")
        self.ops_applied += 1
        if op == "get":
            if key in self._data:
                return {"ok": True, "value": self._data[key]}
            return {"ok": False, "error": "not_found"}
        if op == "put":
            self._data[key] = request.get("value")
            return {"ok": True}
        if op == "delete":
            existed = self._data.pop(key, None) is not None
            return {"ok": True, "existed": existed}
        if op == "incr":
            value = self._data.get(key, 0)
            if not isinstance(value, int):
                return {"ok": False, "error": "not_an_integer"}
            value += int(request.get("by", 1))
            self._data[key] = value
            return {"ok": True, "value": value}
        if op == "keys":
            return {"ok": True, "keys": sorted(self._data)}
        self.ops_applied -= 1
        return {"ok": False, "error": f"unknown_op:{op}"}

    def snapshot(self) -> dict[str, Any]:
        return {"data": _copy_data(self._data), "ops": self.ops_applied}

    def restore(self, state: Any) -> None:
        self._data = _copy_data(state["data"])
        self.ops_applied = state["ops"]


class CounterService(Service):
    """A single integer register supporting ``add`` and ``read``."""

    def __init__(self) -> None:
        self.value = 0

    def apply(self, request: Mapping[str, Any]) -> dict[str, Any]:
        op = request.get("op")
        if op == "add":
            self.value += int(request.get("by", 1))
            return {"ok": True, "value": self.value}
        if op == "read":
            return {"ok": True, "value": self.value}
        return {"ok": False, "error": f"unknown_op:{op}"}

    def snapshot(self) -> int:
        return self.value

    def restore(self, state: Any) -> None:
        self.value = int(state)


class SessionTokenService(Service):
    """A non-deterministic service: login mints a random session token.

    Each replica owns a private RNG; two replicas executing the same
    ``login`` request mint *different* tokens, so SMR replicas diverge
    (their clients can never collect matching responses) while a
    primary-backup deployment simply ships the primary's token in its
    state updates.  Used by the ``nondeterministic_service`` example.

    Parameters
    ----------
    seed:
        Seed of this replica's private entropy source.  Distinct replicas
        should receive distinct seeds — that is what models OS-level
        non-determinism.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self._sessions: dict[str, str] = {}
        self._store = KVStoreService()

    @property
    def deterministic(self) -> bool:
        return False

    def apply(self, request: Mapping[str, Any]) -> dict[str, Any]:
        op = request.get("op")
        if op == "login":
            user = str(request.get("user"))
            token = f"{self._rng.getrandbits(64):016x}"
            self._sessions[user] = token
            return {"ok": True, "token": token}
        if op == "logout":
            user = str(request.get("user"))
            existed = self._sessions.pop(user, None) is not None
            return {"ok": True, "existed": existed}
        if op == "whoami":
            token = request.get("token")
            for user, active in self._sessions.items():
                if active == token:
                    return {"ok": True, "user": user}
            return {"ok": False, "error": "invalid_token"}
        # Authenticated KV access rides on top of the embedded store.
        if op in ("get", "put", "delete", "incr", "keys"):
            token = request.get("token")
            if token not in self._sessions.values():
                return {"ok": False, "error": "unauthenticated"}
            return self._store.apply(request)
        return {"ok": False, "error": f"unknown_op:{op}"}

    def snapshot(self) -> dict[str, Any]:
        return {
            "sessions": dict(self._sessions),
            "store": self._store.snapshot(),
        }

    def restore(self, state: Any) -> None:
        self._sessions = dict(state["sessions"])
        self._store.restore(state["store"])
