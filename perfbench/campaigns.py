"""Workload definitions and the correctness gate of the campaign benchmark.

Importing this module puts the checkout's ``src/`` on ``sys.path`` and
imports the campaign stack, so it is also what the set-up probe times.
Every workload is one closed-loop campaign call through the public API;
the only thing a workload receives from the benchmark's ``--seed`` is the
campaign's root seed (one per repetition), derived by :func:`root_seed`.

The gate: a campaign's outcome digest is the SHA-256 of its
``campaign_record`` with the two execution-dependent fields
(``wall_seconds`` and ``cache``) removed.  A run is correct when every
warm-cache replay reproduces the cold digest, when spot-checked runs
recomputed directly (no executor, no cache) equal the campaign's
outcomes, and, for seeds listed in ``digests.json``, when the first
repetition's digest equals the recorded one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: no repro source tree under {SRC}")
sys.path.insert(0, str(SRC))

from repro.cache import ResultCache, cache_key  # noqa: E402
from repro.core.campaign import (  # noqa: E402
    CampaignResult,
    campaign_grid,
    campaign_record,
    run_campaign,
    run_scenario_campaign,
)
from repro.core.experiment import run_protocol_lifetime  # noqa: E402
from repro.core.specs import SystemClass, SystemSpec  # noqa: E402
from repro.core.timing import TimingSpec  # noqa: E402
from repro.mc.executor import derive_point_seed  # noqa: E402
from repro.scenarios import ScenarioSpec, get_scenario  # noqa: E402

#: Worker processes of every campaign (the reference machine has 2 cores).
WORKERS = 2
SCALES = ("full", "tiny")


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload: a campaign shape plus its fan-out knobs.

    ``trials`` is the fixed per-point seed count (ignored when
    ``precision`` is set); a ``scenario`` routes the campaign through
    :func:`run_scenario_campaign` and supplies the grid, else ``specs``
    is the grid of a plain :func:`run_campaign`.  A run times
    ``campaigns`` distinct campaigns (root seeds ``0 .. campaigns-1``),
    so that its total work varies little from one ``--seed`` to the next.
    """

    name: str
    batch_size: int
    campaigns: int
    specs: tuple[SystemSpec, ...] = ()
    trials: int = 0
    max_steps: int = 300
    precision: Optional[float] = None
    max_trials: int = 2_000
    scenario: Optional[ScenarioSpec] = None

    @property
    def build_kwargs(self) -> dict:
        """Deployment kwargs every run of this workload is built with."""
        return {} if self.scenario is not None else {"timing": TimingSpec.paper()}

    def grid(self) -> list[SystemSpec]:
        if self.scenario is not None:
            return self.scenario.grid()
        return list(self.specs)

    def run(self, root: int, cache: Optional[ResultCache]) -> CampaignResult:
        """One campaign call (blocks until the result is back)."""
        common = dict(
            max_steps=self.max_steps,
            seed=root,
            workers=WORKERS,
            batch_size=self.batch_size,
            cache=cache,
        )
        if self.scenario is not None:
            return run_scenario_campaign(
                self.scenario,
                precision=self.precision,
                max_trials=self.max_trials,
                **common,
            )
        return run_campaign(
            self.specs,
            trials=self.trials,
            precision=self.precision,
            max_trials=self.max_trials,
            **common,
            **self.build_kwargs,
        )


def workloads(scale: str = "full") -> dict[str, Workload]:
    """The benchmark's workloads by name, at ``scale`` (full or tiny)."""
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {SCALES}")
    tiny = scale == "tiny"
    return {
        w.name: w
        for w in (
            # The 12-step budget censors the geometric tail of the PO
            # lifetimes, which would otherwise make one seed's campaign
            # several times the work of another's.
            Workload(
                name="long-attack",
                specs=tuple(campaign_grid(alphas=(0.1,), kappas=(0.25, 0.5))),
                trials=2 if tiny else 8,
                max_steps=12,
                batch_size=4,
                campaigns=2 if tiny else 6,
            ),
            Workload(
                name="short-fanout",
                specs=tuple(
                    campaign_grid(
                        systems=(SystemClass.S1,), alphas=(0.2, 0.3, 0.4, 0.5)
                    )
                ),
                trials=4 if tiny else 16,
                batch_size=1,
                campaigns=2 if tiny else 6,
            ),
            Workload(
                name="stress-precision",
                batch_size=4,
                campaigns=2 if tiny else 3,
                precision=0.5 if tiny else 0.1,
                max_trials=32 if tiny else 64,
                scenario=dataclasses.replace(
                    get_scenario("combined-stress"),
                    systems=("s1", "s2"),
                    schemes=("so",),
                ),
            ),
        )
    }


def root_seed(workload: str, seed: int, rep: int) -> int:
    """Campaign root seed of repetition ``rep`` under benchmark ``seed``."""
    text = f"{workload}:{seed}:{rep}".encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big")


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
def outcome_digest(result: CampaignResult) -> str:
    """SHA-256 of the campaign record minus its execution-dependent fields."""
    record = campaign_record(result)
    record.pop("wall_seconds", None)
    record.pop("cache", None)
    return cache_key(record)


def replay_problems(cold: str, replay: CampaignResult) -> list[str]:
    """Why a warm replay fails the gate (empty when it passes)."""
    problems = []
    if outcome_digest(replay) != cold:
        problems.append("warm replay digest differs from the cold campaign")
    if replay.cache_misses:
        problems.append(f"warm replay missed the cache {replay.cache_misses} times")
    return problems


def reference_problems(
    workload: Workload, root: int, result: CampaignResult
) -> list[str]:
    """Recompute each grid point's first run directly and compare.

    The direct path (:func:`run_protocol_lifetime`, no executor, no
    cache) must reproduce the campaign's outcome for the seed the
    campaign derived for (point, trial 0).
    """
    problems = []
    specs = workload.grid()
    if len(result.estimates) != len(specs):
        return [f"{len(result.estimates)} estimates for {len(specs)} grid points"]
    for index, (spec, estimate) in enumerate(zip(specs, result.estimates)):
        seed = derive_point_seed(root, index, 0)
        first = estimate.outcomes[0]
        if first.seed != seed or first.spec != spec:
            problems.append(f"point {index}: campaign ran the wrong spec or seed")
            continue
        expected = run_protocol_lifetime(
            spec,
            seed=seed,
            max_steps=workload.max_steps,
            scenario=workload.scenario,
            **workload.build_kwargs,
        )
        if expected != first:
            problems.append(f"point {index}: outcome differs from a direct run")
    return problems


def recorded_digest(workload: str, seed: int, scale: str) -> Optional[str]:
    """The digest ``digests.json`` records for (workload, seed), if any."""
    if scale != "full" or not DIGESTS_PATH.is_file():
        return None
    recorded = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    return recorded.get(workload, {}).get(str(seed))
