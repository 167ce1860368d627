"""The benchmark's recorded outcome digests, checked at unit-test speed.

``perfbench/digests.json`` pins the outcome digest of the first
repetition of every workload for seeds 0-9, but a benchmark run checks
them only at full scale, and the benchmark's self-test runs at tiny
scale, where none are recorded.  This test runs repetition 0 of seed 0
of each workload, and of seeds 1 and 2 of ``stress-precision``, through
the benchmark's own ``campaigns`` module (imported, not copied) in one
process, and compares its digest with the recorded one.  Digests do not
depend on the worker count.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

CAMPAIGNS = Path(__file__).resolve().parents[1] / "perfbench" / "campaigns.py"


def _load_campaigns():
    spec = importlib.util.spec_from_file_location("perfbench_campaigns", CAMPAIGNS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve through it
    spec.loader.exec_module(module)
    return module


campaigns = _load_campaigns()


def _check_recorded_digest(name, seed, monkeypatch):
    monkeypatch.setattr(campaigns, "WORKERS", 1)
    recorded = campaigns.recorded_digest(name, seed, "full")
    assert recorded is not None, f"digests.json records no seed {seed} for {name}"
    workload = campaigns.workloads()[name]
    result = workload.run(campaigns.root_seed(name, seed, 0), None)
    assert campaigns.outcome_digest(result) == recorded


@pytest.mark.parametrize("name", sorted(campaigns.workloads()))
def test_seed_zero_reproduces_the_recorded_digest(name, monkeypatch):
    _check_recorded_digest(name, 0, monkeypatch)


@pytest.mark.parametrize("seed", [1, 2])
def test_stress_precision_reproduces_its_recorded_digest(seed, monkeypatch):
    """The heaviest handler path (faults, PB/SMR traffic, stealth probes)
    is pinned on two more seeds."""
    _check_recorded_digest("stress-precision", seed, monkeypatch)
