"""Content-addressed cache keys: canonical JSON × SHA-256.

A cache key must depend on *everything* that determines a campaign
point's outcomes and on *nothing* else — in particular never on the
fan-out configuration (``workers``, ``batch_size``), which the engine
guarantees is outcome-invariant.  The recipe, following the recursive
sorted-JSON-hash idiom of build-system content caches:

1. reduce the describing payload to plain JSON types with
   :func:`jsonable` (dataclass specs via their ``as_dict``, enum
   members by name, tuples as lists);
2. serialize with :func:`canonical_json` — sorted keys, no whitespace —
   so logically equal payloads are *textually* equal;
3. SHA-256 the canonical text (:func:`cache_key`).

:data:`ENGINE_VERSION` participates in every key (see
:meth:`repro.cache.store.ResultCache.key_for`): bumping it orphans all
prior entries at once, which is the invalidation story for engine
changes that alter protocol outcomes without touching any spec field.
"""

from __future__ import annotations

import enum
import hashlib
import json
from typing import Any, Mapping, Sequence

from ..errors import ConfigurationError

#: Version of the protocol-evaluation engine for cache-keying purposes.
#: **Bump this whenever a change alters protocol outcomes for the same
#: specs and seeds** (the golden-outcome batteries in
#: ``tests/test_fast_path.py`` referee exactly that property) — stale
#: entries keyed under the old version become unreachable, never
#: silently wrong.
#:
#: Version 2: protocol outcomes gained the ``events`` field (simulator
#: events executed per run), so version-1 cached blocks no longer decode.
#:
#: Version 3: protocol outcomes gained the per-run telemetry sample
#: (``metrics``).  Version-2 blocks would still decode (the field is
#: optional), but replaying them would silently undercount campaign
#: counter totals, so they are retired instead.
#:
#: Version 4: outcomes carry only ``metrics`` (probe/event duplicates dropped).
ENGINE_VERSION = 4


def jsonable(value: Any) -> Any:
    """Reduce ``value`` to plain JSON types, deterministically.

    Handles the vocabulary cache payloads are built from: JSON scalars,
    mappings, sequences, enum members (by name), and spec dataclasses
    exposing ``as_dict`` (:class:`~repro.core.specs.SystemSpec`,
    :class:`~repro.core.timing.TimingSpec`,
    :class:`~repro.scenarios.spec.ScenarioSpec`).  Anything else is
    refused loudly — hashing a ``repr`` would produce keys that drift
    across runs.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return value.name
    as_dict = getattr(value, "as_dict", None)
    if callable(as_dict):
        return jsonable(as_dict())
    if isinstance(value, Mapping):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)) or (
        isinstance(value, Sequence) and not isinstance(value, (str, bytes))
    ):
        return [jsonable(item) for item in value]
    item = getattr(value, "item", None)
    if callable(item):  # numpy scalars
        return jsonable(item())
    raise ConfigurationError(
        f"cannot build a stable cache key from {type(value).__name__!r} "
        f"({value!r}); give it an as_dict() or pass plain JSON types"
    )


def canonical_json(payload: Any) -> str:
    """Serialize ``payload`` so equal values are textually equal.

    Keys are sorted recursively and separators carry no whitespace;
    floats rely on ``repr`` round-tripping (exact for Python floats).
    """
    return json.dumps(
        jsonable(payload),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
    )


def cache_key(payload: Any) -> str:
    """SHA-256 hex digest of the canonical JSON of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
