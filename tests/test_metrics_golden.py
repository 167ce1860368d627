"""Golden campaign metrics snapshots, pinned byte for byte.

``tests/data/golden_metrics_snapshots.json`` was captured at commit
``2ea6337``, when ``CampaignResult.metrics_snapshot()`` still built its
snapshot through a metrics registry.  It pins ``as_dict()`` of two
campaigns, minus the two wall-clock gauges (``wall_seconds`` and
``events_per_second``), which no run reproduces:

* an ``estimator="auto"`` campaign against a fresh result cache, where
  one point stays Monte-Carlo and one switches to splitting, so the
  snapshot carries the ``cache_*`` and ``rare_*`` counters;
* a supervised campaign under seeded chaos, so it carries nonzero
  ``supervision_*`` counters (retries and a quarantined task).

The test serializes the fresh snapshots exactly as the capture did and
compares the text, so a count that changes, or a gauge or histogram
total that turns from float to int, fails it.
"""

from __future__ import annotations

import json
import pathlib
import warnings

from repro.cache import ResultCache
from repro.core.campaign import run_campaign
from repro.core.specs import s0, s1
from repro.randomization.obfuscation import Scheme
from repro.rare.splitting import SplittingConfig
from repro.supervision import ChaosSpec, SupervisionPolicy

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_metrics_snapshots.json"

#: The gauges that measure wall-clock time.
WALL_CLOCK_GAUGES = ("wall_seconds", "events_per_second")


def snapshot_view(result) -> dict:
    payload = result.metrics_snapshot().as_dict()
    for name in WALL_CLOCK_GAUGES:
        del payload["gauges"][name]
    return payload


def capture(cache_dir: pathlib.Path) -> dict:
    """Both pinned snapshots, JSON-ready."""
    auto = run_campaign(
        [s1(Scheme.SO, alpha=0.2, entropy_bits=6), s1(Scheme.PO, alpha=0.01)],
        trials=6,
        max_steps=6,
        seed=11,
        workers=1,
        estimator="auto",
        splitting=SplittingConfig(pilot_runs=8, replications=2, trajectories=4),
        cache=ResultCache(cache_dir),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        supervised = run_campaign(
            [
                s0(Scheme.PO, alpha=0.2, entropy_bits=6),
                s0(Scheme.SO, alpha=0.2, entropy_bits=6),
                s1(Scheme.SO, alpha=0.2, entropy_bits=6),
            ],
            trials=4,
            max_steps=30,
            seed=11,
            workers=1,
            chaos=ChaosSpec(seed=9, transient=0.5, poison=0.3),
            supervision=SupervisionPolicy(
                max_attempts=2, backoff_base=1e-4, backoff_cap=1e-3, poll_interval=0.005
            ),
        )
    return {"auto": snapshot_view(auto), "supervised": snapshot_view(supervised)}


def render(payload: dict) -> str:
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def test_metrics_snapshots_match_parent_golden(tmp_path):
    assert render(capture(tmp_path / "cache")) == GOLDEN_PATH.read_text()
