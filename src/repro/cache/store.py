"""On-disk content-addressed result store.

Entries live under ``root/<key[:2]>/<key>.json`` (two-level fan-out so
directories stay small on big campaign sweeps).  Writes go through
:func:`atomic_write_text` — a temp file in the destination directory
renamed into place with :func:`os.replace` — so a crash mid-write can
never leave a half-entry behind; readers either see the whole entry or
nothing.  Anything unreadable (truncated file, bad JSON, key mismatch
from a hand-edited entry) is treated as a **miss**, never an error:
the cache must only ever make campaigns faster, not able to fail.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from pathlib import Path
from typing import Any, Optional

from ..log import get_logger
from .keys import ENGINE_VERSION, cache_key

logger = get_logger(__name__)


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    The temp file is created in ``path``'s directory so the final rename
    never crosses a filesystem boundary.  On any failure the temp file
    is removed and the original ``path`` (if any) is left untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class ResultCache:
    """Content-addressed cache of finished campaign-point results.

    Parameters
    ----------
    root:
        Directory to keep entries under (created lazily on first store).
    version:
        Engine version folded into every key; defaults to
        :data:`~repro.cache.keys.ENGINE_VERSION`.  Entries written under
        a different version simply never match — bumping the version is
        how engine changes invalidate the whole cache at once.

    The ``hits`` / ``misses`` counters tally :meth:`lookup` outcomes so
    campaign records can report how much work the cache saved.
    """

    def __init__(self, root: Path | str, version: int = ENGINE_VERSION) -> None:
        self.root = Path(root)
        self.version = version
        self.hits = 0
        self.misses = 0
        self.store_failures = 0

    @property
    def stats(self) -> dict:
        """Counters for campaign records: lookups and suppressed failures."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "store_failures": self.store_failures,
        }

    # ------------------------------------------------------------------
    def key_for(self, payload: dict) -> str:
        """Content hash of ``payload`` with the engine version folded in."""
        keyed = dict(payload)
        keyed["engine_version"] = self.version
        return cache_key(keyed)

    def _path(self, key: str) -> str:
        # A plain string: every replayed block looks one up, and two
        # ``pathlib`` joins cost several times this formatting.
        return f"{self.root}{os.sep}{key[:2]}{os.sep}{key}.json"

    # ------------------------------------------------------------------
    def lookup(self, key: str) -> Optional[Any]:
        """Stored payload for ``key``, or ``None`` on a miss.

        Corrupt, truncated, or otherwise unreadable entries count as
        misses: a failed read must degrade to recomputation, never
        propagate as an error.
        """
        try:
            with open(self._path(key), encoding="utf-8") as handle:
                entry = json.loads(handle.read())
        except (OSError, ValueError):
            self.misses += 1
            return None
        if not isinstance(entry, dict) or entry.get("key") != key:
            self.misses += 1
            return None
        self.hits += 1
        return entry["payload"]

    def store(self, key: str, payload: Any) -> None:
        """Persist ``payload`` under ``key`` (best-effort).

        Storage failures (read-only cache dir, disk full) are reported
        as a warning and otherwise ignored — the computed result is
        already in hand, so a failed write must not sink the campaign.
        The warning fires once per cache instance (a read-only dir would
        otherwise warn for every grid point of a sweep); later failures
        are tallied silently in :attr:`stats` as ``store_failures``.
        """
        entry = {"key": key, "engine_version": self.version, "payload": payload}
        try:
            atomic_write_text(self._path(key), json.dumps(entry))
        except OSError as exc:
            self.store_failures += 1
            if self.store_failures == 1:
                warnings.warn(
                    f"result cache write failed under {self.root}: {exc}; "
                    "continuing without caching (further failures this "
                    "run are counted, not warned)",
                    RuntimeWarning,
                    stacklevel=2,
                )
            else:
                logger.debug("cache write failed for %s: %s", key[:12], exc)

    # ------------------------------------------------------------------
    def _entry_paths(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("??/*.json"))

    def info(self) -> dict:
        """Inventory of the on-disk store: entries, bytes, versions.

        Unreadable entries are counted under a ``"corrupt"`` bucket
        rather than raised — the same miss-not-error stance as
        :meth:`lookup`.
        """
        entries = 0
        total_bytes = 0
        versions: dict[str, int] = {}
        for path in self._entry_paths():
            entries += 1
            try:
                total_bytes += path.stat().st_size
                entry = json.loads(path.read_text(encoding="utf-8"))
                version = str(entry["engine_version"])
            except (OSError, ValueError, KeyError, TypeError):
                version = "corrupt"
            versions[version] = versions.get(version, 0) + 1
        return {
            "root": str(self.root),
            "entries": entries,
            "bytes": total_bytes,
            "engine_version": self.version,
            "by_version": dict(sorted(versions.items())),
        }

    def prune(self) -> dict:
        """Delete entries not written under the current engine version.

        Stale-version and corrupt entries can never hit again (keys fold
        the version in), so they only cost disk; pruning removes them
        and reports what went.  Returns ``{"removed": n, "bytes": n}``.
        """
        removed = 0
        freed = 0
        for path in self._entry_paths():
            try:
                entry = json.loads(path.read_text(encoding="utf-8"))
                stale = entry["engine_version"] != self.version
            except (OSError, ValueError, KeyError, TypeError):
                stale = True
            if not stale:
                continue
            try:
                size = path.stat().st_size
                path.unlink()
            except OSError:
                continue
            removed += 1
            freed += size
        logger.info("cache prune removed %d entries (%d bytes)", removed, freed)
        return {"removed": removed, "bytes": freed}
