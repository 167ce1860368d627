"""Tests for the content-addressed campaign result cache.

Three layers:

* key construction — canonical JSON really is canonical (order-free,
  whitespace-free) and refuses values it can't serialize stably;
* the on-disk store — atomic writes, hit/miss accounting, corrupt or
  truncated entries degrading to misses, version-bump invalidation;
* campaign integration — cold cache, warm cache and ``--no-cache`` all
  produce bit-identical results under any executor configuration, and a
  fully warm campaign dispatches zero protocol tasks.
"""

from __future__ import annotations

import dataclasses
import json
import os
import warnings

import numpy as np
import pytest

from repro.cache import (
    ENGINE_VERSION,
    ResultCache,
    atomic_write_text,
    cache_key,
    canonical_json,
    jsonable,
)
from repro.core.campaign import campaign_grid, campaign_record, run_campaign
from repro.core.experiment import _outcome_block_payload, estimate_protocol_lifetime
from repro.core.specs import SystemClass, s1, s2
from repro.core.timing import TimingSpec
from repro.errors import ConfigurationError
from repro.randomization.obfuscation import Scheme
from repro.rare.splitting import SplittingConfig
from repro.scenarios.library import paper_baseline


def _small_grid():
    return campaign_grid(
        systems=(SystemClass.S1, SystemClass.S2),
        schemes=(Scheme.SO,),
        alphas=(0.2,),
        kappas=(0.5,),
        entropy_bits=6,
    )


CAMPAIGN_KW = dict(trials=3, max_steps=50, seed=11)
SPLITTING_KW = dict(
    estimator="splitting",
    splitting=SplittingConfig(pilot_runs=4, replications=2, trajectories=2),
)


def _estimates_payload(result) -> list:
    """Everything outcome-derived in a campaign, for bit-identity checks."""
    return [(e.spec, e.stats, e.censored, e.outcomes) for e in result.estimates]


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------
def test_canonical_json_is_order_free():
    a = canonical_json({"b": 1, "a": {"y": 2.5, "x": (1, 2)}})
    b = canonical_json({"a": {"x": [1, 2], "y": 2.5}, "b": 1})
    assert a == b
    assert " " not in a and "\n" not in a


def test_jsonable_vocabulary():
    spec = s1(Scheme.SO, alpha=0.2, entropy_bits=6)
    timing = TimingSpec.named("paper")
    payload = jsonable(
        {"spec": spec, "timing": timing, "scheme": Scheme.PO, "n": np.int64(3)}
    )
    assert payload["spec"]["alpha"] == 0.2
    assert payload["timing"] == timing.as_dict()
    assert payload["scheme"] == "PO"
    assert payload["n"] == 3 and isinstance(payload["n"], int)


def test_jsonable_rejects_unstable_values():
    with pytest.raises(ConfigurationError):
        jsonable(object())


def test_cache_key_sensitivity():
    """Changing any one field of a protocol block's payload changes its key."""
    spec = s2(Scheme.SO, alpha=0.2, kappa=0.5, entropy_bits=6)
    base = dict(
        spec=spec,
        seeds=[1, 2, 3],
        max_steps=50,
        build_kwargs={"timing": TimingSpec.paper()},
        scenario=None,
    )

    def key(**change) -> str:
        return cache_key(_outcome_block_payload(**{**base, **change}))

    assert key() == key(seeds=[1, 2, 3])  # equal payloads, equal keys
    spec_changes = {
        "system": SystemClass.S1,
        "scheme": Scheme.PO,
        "entropy_bits": 7,
        "alpha": 0.25,
        "kappa": 0.25,
        "launchpad_fraction": 0.5,
        "n_servers": 5,
        "n_proxies": 4,
        "f": 2,
        "period": 2.0,
    }
    assert set(spec_changes) == {field.name for field in dataclasses.fields(spec)}
    keys = [key()]
    keys += [
        key(spec=dataclasses.replace(spec, **{name: value}))
        for name, value in spec_changes.items()
    ]
    keys += [
        key(seeds=[1, 2, 4]),
        key(max_steps=51),
        key(build_kwargs={"timing": TimingSpec.ideal()}),
        key(scenario=paper_baseline()),
    ]
    assert len(set(keys)) == len(keys)


def test_key_for_folds_in_engine_version(tmp_path):
    payload = {"seeds": [1, 2]}
    now = ResultCache(tmp_path).key_for(payload)
    bumped = ResultCache(tmp_path, version=ENGINE_VERSION + 1).key_for(payload)
    assert now != bumped


# ----------------------------------------------------------------------
# Atomic writes
# ----------------------------------------------------------------------
def test_atomic_write_creates_parents_and_replaces(tmp_path):
    target = tmp_path / "deep" / "nested" / "record.json"
    atomic_write_text(target, "first\n")
    assert target.read_text() == "first\n"
    atomic_write_text(target, "second\n")
    assert target.read_text() == "second\n"
    # No temp-file droppings next to the target.
    assert os.listdir(target.parent) == ["record.json"]


def test_atomic_write_failure_leaves_original(tmp_path):
    target = tmp_path / "record.json"
    atomic_write_text(target, "keep me\n")

    class Unserializable:
        def __str__(self):
            raise RuntimeError("boom mid-write")

    with pytest.raises(TypeError):
        atomic_write_text(target, ["not text"])  # type: ignore[arg-type]
    assert target.read_text() == "keep me\n"
    assert os.listdir(tmp_path) == ["record.json"]


# ----------------------------------------------------------------------
# Store semantics
# ----------------------------------------------------------------------
def test_store_roundtrip_and_counters(tmp_path):
    cache = ResultCache(tmp_path)
    key = cache.key_for({"seeds": [1, 2, 3]})
    assert cache.lookup(key) is None
    cache.store(key, [{"steps": 5, "time": 5.0}])
    assert cache.lookup(key) == [{"steps": 5, "time": 5.0}]
    assert (cache.hits, cache.misses) == (1, 1)


@pytest.mark.parametrize(
    "corruption",
    ["", "{truncated", '"not a dict"', '{"key": "somebody-else", "payload": 1}'],
)
def test_corrupt_entries_are_misses(tmp_path, corruption):
    cache = ResultCache(tmp_path)
    key = cache.key_for({"seeds": [9]})
    cache.store(key, {"fine": True})
    cache._path(key).write_text(corruption)
    assert cache.lookup(key) is None
    assert cache.misses == 1


def test_version_bump_invalidates(tmp_path):
    old = ResultCache(tmp_path)
    payload = {"seeds": [4, 5]}
    old.store(old.key_for(payload), "cached-under-v1")
    new = ResultCache(tmp_path, version=ENGINE_VERSION + 1)
    assert new.lookup(new.key_for(payload)) is None
    # The old entry is untouched, merely unreachable from the new version.
    assert old.lookup(old.key_for(payload)) == "cached-under-v1"


def test_store_is_best_effort(tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("a file where the cache root should go")
    cache = ResultCache(blocker)
    with pytest.warns(RuntimeWarning, match="cache write failed"):
        cache.store(cache.key_for({"seeds": [1]}), {"x": 1})


# ----------------------------------------------------------------------
# Campaign integration
# ----------------------------------------------------------------------
def test_campaign_cold_warm_nocache_bit_identical(tmp_path):
    specs = _small_grid()
    cache = ResultCache(tmp_path)
    plain = run_campaign(specs, workers=1, **CAMPAIGN_KW)
    cold = run_campaign(specs, workers=1, cache=cache, **CAMPAIGN_KW)
    warm = run_campaign(specs, workers=1, cache=cache, **CAMPAIGN_KW)
    assert (cold.cache_hits, cold.cache_misses) == (0, len(specs))
    assert (warm.cache_hits, warm.cache_misses) == (len(specs), 0)
    assert plain.cache_hits is None and plain.cache_misses is None
    assert _estimates_payload(cold) == _estimates_payload(plain)
    assert _estimates_payload(warm) == _estimates_payload(plain)


def test_warm_campaign_dispatches_nothing(tmp_path, monkeypatch):
    specs = _small_grid()
    cache = ResultCache(tmp_path)
    run_campaign(specs, workers=1, cache=cache, **CAMPAIGN_KW)

    def refuse(task):
        raise AssertionError("a fully warm campaign must not dispatch tasks")

    monkeypatch.setattr("repro.core.experiment.run_protocol_task", refuse)
    warm = run_campaign(specs, workers=1, cache=cache, **CAMPAIGN_KW)
    assert warm.cache_hits == len(specs)
    assert warm.total_runs == len(specs) * CAMPAIGN_KW["trials"]


def test_warm_splitting_campaign_dispatches_nothing(tmp_path, monkeypatch):
    specs = _small_grid()
    cache = ResultCache(tmp_path)
    cold = run_campaign(specs, workers=1, cache=cache, **CAMPAIGN_KW, **SPLITTING_KW)

    def refuse(task):
        raise AssertionError("a fully warm campaign must not dispatch tasks")

    monkeypatch.setattr("repro.rare.splitting.run_pilot_task", refuse)
    monkeypatch.setattr("repro.rare.splitting.run_splitting_task", refuse)
    warm = run_campaign(specs, workers=1, cache=cache, **CAMPAIGN_KW, **SPLITTING_KW)
    assert (warm.cache_hits, warm.cache_misses) == (len(specs), 0)
    assert warm.estimates == cold.estimates


def test_warm_hits_are_fanout_invariant(tmp_path, monkeypatch):
    """Entries written by a serial campaign satisfy a parallel-configured
    one (and its serial-fallback path): keys never see the fan-out."""
    specs = _small_grid()
    cache = ResultCache(tmp_path)
    cold = run_campaign(specs, workers=1, cache=cache, **CAMPAIGN_KW)

    def broken_pool(*args, **kwargs):
        raise OSError("pools forbidden in this test")

    monkeypatch.setattr("repro.mc.executor.ProcessPoolExecutor", broken_pool)
    with warnings.catch_warnings():
        # Fully warm: the executor is never even asked for a pool, so
        # not even the serial-fallback warning may fire.
        warnings.simplefilter("error")
        warm_fallback = run_campaign(
            specs, workers=4, batch_size=1, cache=cache, **CAMPAIGN_KW
        )
    assert warm_fallback.cache_hits == len(specs)
    assert _estimates_payload(warm_fallback) == _estimates_payload(cold)


def test_corrupt_campaign_entries_recompute_identically(tmp_path):
    specs = _small_grid()
    cache = ResultCache(tmp_path)
    cold = run_campaign(specs, workers=1, cache=cache, **CAMPAIGN_KW)
    for entry in tmp_path.rglob("*.json"):
        entry.write_text("{definitely truncated")
    recomputed = run_campaign(specs, workers=1, cache=cache, **CAMPAIGN_KW)
    assert recomputed.cache_hits == 0
    assert recomputed.cache_misses == len(specs)
    assert _estimates_payload(recomputed) == _estimates_payload(cold)
    # And the rewrite healed the cache.
    healed = run_campaign(specs, workers=1, cache=cache, **CAMPAIGN_KW)
    assert healed.cache_hits == len(specs)


def test_engine_version_bump_invalidates_campaign(tmp_path):
    specs = _small_grid()
    cache = ResultCache(tmp_path)
    run_campaign(specs, workers=1, cache=cache, **CAMPAIGN_KW)
    bumped = ResultCache(tmp_path, version=ENGINE_VERSION + 1)
    rerun = run_campaign(specs, workers=1, cache=bumped, **CAMPAIGN_KW)
    assert rerun.cache_hits == 0 and rerun.cache_misses == len(specs)


def _nonsense(payload):
    return [{"nonsense": True}]


def _drop_events_executed(payload):
    for outcome in payload:
        del outcome["metrics"]["events_executed"]
    return payload


def _undecodable_entries_recompute(tmp_path, corrupt=_nonsense, **kwargs):
    """A well-formed entry whose payload doesn't decode to the request
    (e.g. written by a buggy tool) must recompute bit-identically, and
    the hit/miss counters must reflect the reclassification."""
    specs = _small_grid()[:1]
    cache = ResultCache(tmp_path)
    cold = run_campaign(specs, workers=1, cache=cache, **CAMPAIGN_KW, **kwargs)
    for entry_path in tmp_path.rglob("*.json"):
        entry = json.loads(entry_path.read_text())
        entry["payload"] = corrupt(entry["payload"])
        entry_path.write_text(json.dumps(entry))
    cache = ResultCache(tmp_path)
    rerun = run_campaign(specs, workers=1, cache=cache, **CAMPAIGN_KW, **kwargs)
    assert (rerun.cache_hits, rerun.cache_misses) == (0, 1)
    assert rerun.estimates == cold.estimates


def test_undecodable_entry_is_reclassified_as_miss(tmp_path):
    _undecodable_entries_recompute(tmp_path)


def test_undecodable_splitting_entry_is_reclassified_as_miss(tmp_path):
    _undecodable_entries_recompute(tmp_path, **SPLITTING_KW)


def test_entry_missing_a_counter_is_reclassified_as_miss(tmp_path):
    """A missing counter must not replay as a hit that cost 0 events."""
    _undecodable_entries_recompute(tmp_path, corrupt=_drop_events_executed)


def test_campaign_record_cache_section(tmp_path):
    specs = _small_grid()
    cache = ResultCache(tmp_path)
    plain = campaign_record(run_campaign(specs, workers=1, **CAMPAIGN_KW))
    assert "cache" not in plain
    cold = campaign_record(run_campaign(specs, workers=1, cache=cache, **CAMPAIGN_KW))
    warm1 = campaign_record(run_campaign(specs, workers=1, cache=cache, **CAMPAIGN_KW))
    warm2 = campaign_record(run_campaign(specs, workers=1, cache=cache, **CAMPAIGN_KW))
    assert cold["cache"] == {"hits": 0, "misses": len(specs)}
    assert warm1["cache"] == {"hits": len(specs), "misses": 0}
    # Wall-clock time is the one field that is *meant* to differ between
    # otherwise bit-identical runs; everything below compares modulo it.
    for record in (plain, cold, warm1, warm2):
        assert record.pop("wall_seconds") >= 0.0
    # Warm records are bit-identical *including* the cache section …
    assert json.dumps(warm1, sort_keys=True) == json.dumps(warm2, sort_keys=True)
    # … and modulo it, identical to the cold record and the plain run.
    for record in (cold, warm1):
        record.pop("cache")
    assert json.dumps(cold, sort_keys=True) == json.dumps(warm1, sort_keys=True)
    assert json.dumps(cold, sort_keys=True) == json.dumps(plain, sort_keys=True)


# ----------------------------------------------------------------------
# Estimator integration
# ----------------------------------------------------------------------
def test_estimate_cache_fixed_count(tmp_path, monkeypatch):
    spec = s1(Scheme.SO, alpha=0.2, entropy_bits=6)
    cache = ResultCache(tmp_path)
    cold = estimate_protocol_lifetime(
        spec, trials=4, max_steps=50, workers=1, cache=cache
    )
    monkeypatch.setattr(
        "repro.core.experiment.run_protocol_task",
        lambda task: pytest.fail("warm estimate must not dispatch"),
    )
    warm = estimate_protocol_lifetime(
        spec, trials=4, max_steps=50, workers=1, cache=cache
    )
    assert warm.outcomes == cold.outcomes
    assert warm.stats == cold.stats
    assert (cache.hits, cache.misses) == (1, 1)


def test_estimate_cache_precision_rounds(tmp_path):
    spec = s1(Scheme.SO, alpha=0.2, entropy_bits=6)
    cache = ResultCache(tmp_path)
    kwargs = dict(
        max_steps=50,
        workers=1,
        precision=0.5,
        min_trials=4,
        max_trials=96,
        cache=cache,
    )
    cold = estimate_protocol_lifetime(spec, **kwargs)
    hits_before, misses_before = cache.hits, cache.misses
    warm = estimate_protocol_lifetime(spec, **kwargs)
    assert warm.outcomes == cold.outcomes
    assert warm.stats == cold.stats
    assert warm.converged == cold.converged
    # Every streaming round replayed from disk, none recomputed.
    assert cache.misses == misses_before
    assert cache.hits > hits_before
