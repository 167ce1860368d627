"""Content-addressed campaign result cache.

:mod:`repro.cache.keys` turns result-determining payloads (spec dicts,
timing, scenario, seed blocks, engine version) into canonical-JSON
SHA-256 keys; :mod:`repro.cache.store` keeps the keyed entries on disk
with atomic-rename writes and corrupt-entry-as-miss reads.  The cache is
threaded through :mod:`repro.core.experiment` and
:mod:`repro.core.campaign` so repeated campaign points skip dispatch
entirely while staying bit-identical with recomputation.
"""

from .._exports import lazy_exports

_EXPORTS = {
    "ENGINE_VERSION": "keys",
    "ResultCache": "store",
    "atomic_write_text": "store",
    "cache_key": "keys",
    "canonical_json": "keys",
    "jsonable": "keys",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
