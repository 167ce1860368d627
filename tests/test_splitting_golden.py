"""Golden splitting estimates, and the executor passes a split campaign makes.

``tests/data/golden_splitting_estimates.json`` pins three censor-heavy
S2PO points, each estimated by fixed-effort multilevel splitting: the
folded probability and CI, the placed levels, the pooled per-stage
counts, the per-replication products, the simulated-event charge and
the final-stage compromise steps.  Every field is compared exactly
(JSON floats round-trip bit-for-bit).  The same file is replayed
through one campaign over all three points and through three
single-point estimates, so the campaign's shared pilot and replication
passes must reproduce each point's own estimate.

The pass tests count :meth:`TaskExecutor.map` calls: a splitting
campaign runs every point's pilot tasks in one pass and every point's
replications in a second, whatever the number of points.
"""

from __future__ import annotations

import json
import pathlib
from functools import partial

import pytest

from repro.core.campaign import run_campaign
from repro.core.experiment import estimate_protocol_lifetime
from repro.core.specs import s2
from repro.mc.executor import TaskExecutor, derive_point_seed
from repro.randomization.obfuscation import Scheme
from repro.rare.splitting import SplittingConfig

GOLDEN_PATH = (
    pathlib.Path(__file__).parent / "data" / "golden_splitting_estimates.json"
)

ROOT_SEED = 16
MAX_STEPS = 12
CONFIG = SplittingConfig(pilot_runs=16, replications=4, trajectories=8)
SPECS = [
    s2(Scheme.PO, entropy_bits=8, alpha=alpha, kappa=kappa)
    for alpha, kappa in ((0.05, 0.5), (0.05, 0.8), (0.02, 0.5))
]


def rare_view(rare) -> dict:
    """The pinned fields of one :class:`RareEventEstimate`, JSON-ready."""
    return {
        "probability": rare.probability,
        "ci_low": rare.ci_low,
        "ci_high": rare.ci_high,
        "levels": list(rare.levels),
        "level_stats": [[s.level, s.n, s.crossed] for s in rare.level_stats],
        "products": list(rare.products),
        "events": rare.events,
        "compromise_steps": list(rare.compromise_steps),
    }


def _golden() -> dict:
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["root_seed"] == ROOT_SEED
    assert golden["max_steps"] == MAX_STEPS
    assert golden["config"] == CONFIG.as_dict()
    assert [point["spec"] for point in golden["points"]] == [
        spec.as_dict() for spec in SPECS
    ]
    return golden


def _counting_map(calls: list):
    original = TaskExecutor.map

    def counting(self, fn, tasks, on_result=None):
        calls.append(fn.__name__)
        return original(self, fn, tasks, on_result=on_result)

    return counting


@pytest.fixture(scope="module")
def split_campaign():
    """The golden grid as one splitting campaign, with its map calls."""
    calls: list[str] = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TaskExecutor, "map", _counting_map(calls))
        result = run_campaign(
            SPECS,
            max_steps=MAX_STEPS,
            seed=ROOT_SEED,
            workers=1,
            estimator="splitting",
            splitting=CONFIG,
        )
    return result, calls


def test_campaign_matches_golden(split_campaign):
    result, _ = split_campaign
    expected = [point["rare"] for point in _golden()["points"]]
    assert [rare_view(e.rare) for e in result.estimates] == expected


@pytest.mark.parametrize("index", range(len(SPECS)))
def test_single_point_matches_golden(index):
    estimate = estimate_protocol_lifetime(
        SPECS[index],
        max_steps=MAX_STEPS,
        seed_for=partial(derive_point_seed, ROOT_SEED, index),
        workers=1,
        estimator="splitting",
        splitting=CONFIG,
    )
    assert rare_view(estimate.rare) == _golden()["points"][index]["rare"]


def test_split_campaign_makes_two_executor_passes(split_campaign):
    _, calls = split_campaign
    assert calls == ["run_pilot_task", "run_splitting_task"]


def test_auto_campaign_makes_mc_rounds_then_two_passes(monkeypatch):
    calls: list[str] = []
    monkeypatch.setattr(TaskExecutor, "map", _counting_map(calls))
    result = run_campaign(
        SPECS[:2],
        trials=8,  # 5 of 8 runs censor on each point
        max_steps=MAX_STEPS,
        seed=ROOT_SEED,
        workers=1,
        estimator="auto",
        splitting=CONFIG,
    )
    assert [e.estimator for e in result.estimates] == ["splitting", "splitting"]
    assert calls == ["run_protocol_task", "run_pilot_task", "run_splitting_task"]
    # The switch reuses each point's root seed: same estimate as "splitting".
    expected = [point["rare"] for point in _golden()["points"][:2]]
    assert [rare_view(e.rare) for e in result.estimates] == expected
