"""A result cache written by an older commit still replays, byte for byte.

``tests/data/cache_2574e58/`` holds a tiny cache written by commit
``2574e58`` with :func:`write_fixture` (run as
``PYTHONPATH=<that commit>/src python tests/test_cache_compat.py <dir>``):
one fixed-count block under ``TimingSpec.paper()`` with a root
seed past ``2**32``, one precision round of a scenario, and one
rare-event splitting estimate.  ``records.json`` beside it holds the
campaign records of that run.  These tests lock down that:

* every entry hits — nothing is dispatched, and each campaign record
  equals the committed one;
* a cold run of the same campaigns stores byte-identical entry files;
* each entry's cache key is the pinned SHA-256 literal;
* an entry whose fields carry the wrong JSON type (``"false"`` for a
  verdict, ``2.9`` for a step count, ``"12"`` for a counter …) reads as
  a miss, is recomputed and is overwritten.

The CI smoke job replays the fixed-count entry through the CLI as well.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

from repro.cache import ResultCache
from repro.core.campaign import (
    campaign_grid,
    campaign_record,
    run_campaign,
    run_scenario_campaign,
)
from repro.core.specs import SystemClass, s2
from repro.core.timing import TimingSpec
from repro.randomization.obfuscation import Scheme
from repro.rare.splitting import SplittingConfig
from repro.scenarios import get_scenario

FIXTURE = Path(__file__).resolve().parent / "data" / "cache_2574e58"

#: The fixed-count campaign, as ``protocol-sweep --systems s1 --schemes so
#: --alphas 0.2 --entropy-bits 6 --trials 4 --max-steps 30
#: --seed 4294967303`` runs it.
FIXED_ROOT = 2**32 + 7

#: Cache key of each campaign's one entry (the entry file's name).
KEYS = {
    "fixed": "49bc225df8bea1a81a676808d77294ebda00f6a18f936883904b1e7b18d0cedc",
    "precision": "3520f2ac6a3c7f3ae2aa5ff87321270ab651257d8b53c0c8066a830814a1a71a",
    "splitting": "78aafd79df92510b7e1d04655bc6216f8c8eb656ad823704736674b8a1e3715b",
}


def _scenario():
    return get_scenario("crash-storm-under-attack").replace(
        name="cache-compat-precision",
        entropy_bits=6,
        alphas=(0.3,),
        systems=("s1",),
    )


def run_fixture_campaign(name: str, cache: ResultCache):
    """One of the fixture's campaigns, serial, against ``cache``."""
    if name == "fixed":
        return run_campaign(
            campaign_grid(
                systems=(SystemClass.S1,),
                schemes=(Scheme.SO,),
                alphas=(0.2,),
                entropy_bits=6,
            ),
            trials=4,
            max_steps=30,
            seed=FIXED_ROOT,
            cache=cache,
            timing=TimingSpec.paper(),
        )
    if name == "precision":
        return run_scenario_campaign(
            _scenario(),
            max_steps=20,
            seed=2,
            precision=0.05,
            min_trials=4,
            max_trials=32,
            cache=cache,
        )
    if name == "splitting":
        return run_campaign(
            [s2(Scheme.PO, entropy_bits=8, alpha=0.05, kappa=0.5)],
            max_steps=12,
            seed=16,
            estimator="splitting",
            splitting=SplittingConfig(pilot_runs=8, replications=2, trajectories=4),
            cache=cache,
        )
    raise KeyError(name)


def comparable(record: dict) -> dict:
    """A campaign record without its execution-dependent fields."""
    return {k: v for k, v in record.items() if k not in ("wall_seconds", "cache")}


def write_fixture(directory: Path) -> None:
    """Write the fixture cache and ``records.json`` into ``directory``."""
    cache = ResultCache(directory)
    records = {}
    for name in KEYS:
        records[name] = comparable(campaign_record(run_fixture_campaign(name, cache)))
    (directory / "records.json").write_text(
        json.dumps(records, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _entries(root: Path) -> dict[str, bytes]:
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.glob("??/*.json"))
    }


@pytest.fixture
def copied_cache(tmp_path) -> Path:
    copy = tmp_path / "cache"
    shutil.copytree(FIXTURE, copy)
    return copy


@pytest.fixture
def records() -> dict:
    return json.loads((FIXTURE / "records.json").read_text(encoding="utf-8"))


def _refuse(task):
    raise AssertionError("a fully cached campaign must not dispatch a task")


def test_fixture_holds_one_entry_per_pinned_key():
    expected = sorted(f"{key[:2]}/{key}.json" for key in KEYS.values())
    assert sorted(_entries(FIXTURE)) == expected


def test_older_cache_replays_without_dispatch(copied_cache, records, monkeypatch):
    import repro.core.experiment as experiment
    import repro.rare.splitting as splitting

    monkeypatch.setattr(experiment, "run_protocol_task", _refuse)
    monkeypatch.setattr(splitting, "run_pilot_task", _refuse)
    monkeypatch.setattr(splitting, "run_splitting_task", _refuse)
    cache = ResultCache(copied_cache)
    for name in KEYS:
        record = campaign_record(run_fixture_campaign(name, cache))
        assert record["cache"] == {"hits": 1, "misses": 0}, name
        assert comparable(record) == records[name], name
    assert cache.hits == len(_entries(FIXTURE))
    assert _entries(copied_cache) == _entries(FIXTURE)


def test_cold_store_is_byte_identical_to_the_older_one(tmp_path):
    cache = ResultCache(tmp_path)
    for name in KEYS:
        run_fixture_campaign(name, cache)
    assert cache.misses == len(KEYS)
    assert _entries(tmp_path) == _entries(FIXTURE)


def test_keys_match_their_pinned_literals():
    # Imported here: write_fixture runs this module against older trees.
    from repro.core.experiment import _outcome_block_payload, _splitting_key_payload
    from repro.mc.executor import derive_point_seeds

    cache = ResultCache("unused")
    spec = campaign_grid(
        systems=(SystemClass.S1,), schemes=(Scheme.SO,), alphas=(0.2,), entropy_bits=6
    )[0]
    seeds = derive_point_seeds(FIXED_ROOT, 0, start=0, stop=4)
    timing = {"timing": TimingSpec.paper()}
    payload = _outcome_block_payload(spec, seeds, 30, timing, None)
    assert cache.key_for(payload) == KEYS["fixed"]

    scenario = _scenario()
    seeds = derive_point_seeds(2, 0, start=0, stop=32)
    payload = _outcome_block_payload(scenario.grid()[0], seeds, 20, {}, scenario)
    assert cache.key_for(payload) == KEYS["precision"]

    root = derive_point_seeds(16, 0, start=0, stop=1)[0]
    config = SplittingConfig(pilot_runs=8, replications=2, trajectories=4)
    spec = s2(Scheme.PO, entropy_bits=8, alpha=0.05, kappa=0.5)
    payload = _splitting_key_payload(spec, root, 12, {}, None, config)
    assert cache.key_for(payload) == KEYS["splitting"]


# ----------------------------------------------------------------------
# Entries with wrong value types read as misses
# ----------------------------------------------------------------------
#: (campaign, path to a field of the entry's payload, wrong value).
BROKEN = [
    ("fixed", (0, "compromised"), "false"),
    ("fixed", (0, "compromised"), 1),
    ("fixed", (0, "steps"), 2.9),
    ("fixed", (0, "steps"), True),
    ("fixed", (0, "time"), "1.5"),
    ("fixed", (0, "time"), False),
    ("fixed", (0, "cause"), 7),
    ("fixed", (0, "metrics", "events_executed"), "12"),
    ("fixed", (0, "metrics", "messages_sent"), 3.0),
    ("fixed", (0, "metrics", "probes_direct"), True),
    ("precision", (0, "compromised"), None),
    ("splitting", ("levels", 0), True),
    ("splitting", ("pilot", 0, 1), "0.5"),
    ("splitting", ("pilot", 0, 0, "steps"), 1.0),
    ("splitting", ("pilot", 0, 0, "metrics", "events_elided"), None),
    ("splitting", ("replications", 0, "product"), "0.5"),
    ("splitting", ("replications", 0, "events"), "40"),
    ("splitting", ("replications", 0, "counts", 0, 1), 1.5),
]


@pytest.mark.parametrize(
    "campaign, field, wrong",
    BROKEN,
    ids=[f"{c}-{'.'.join(map(str, f))}={w!r}" for c, f, w in BROKEN],
)
def test_wrong_value_types_read_as_misses(
    copied_cache, records, campaign, field, wrong
):
    key = KEYS[campaign]
    path = copied_cache / key[:2] / f"{key}.json"
    pristine = path.read_bytes()
    entry = json.loads(pristine)
    *parents, last = field
    target = entry["payload"]
    for step in parents:
        target = target[step]
    target[last] = wrong
    path.write_text(json.dumps(entry), encoding="utf-8")

    cache = ResultCache(copied_cache)
    record = campaign_record(run_fixture_campaign(campaign, cache))
    assert record["cache"] == {"hits": 0, "misses": 1}
    assert comparable(record) == records[campaign]
    assert path.read_bytes() == pristine  # recomputed and overwritten


if __name__ == "__main__":
    out = Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=False)
    write_fixture(out)
