"""Behaviour lock for the workload clients.

``tests/data/golden_client_runs.json`` pins what the closed-loop client
(installed by :func:`~repro.core.builders.add_clients`) and the
open-loop client (installed by
:func:`~repro.scenarios.runtime.install_workload`) do against S0, S1
and S2 under attack: each run's verdict, its ``RunMetrics`` counters
and every client's request, response, failure and latency counters.
``run_protocol_lifetime(with_workload=True)`` is pinned alongside.

The file was captured before the two clients were folded onto one
request core, from that commit's ``src/``, with
``python tests/test_client_golden.py --capture``.  Never re-capture it
with the current tree: it exists to prove the fold changed nothing.
Client names are left out of the record on purpose — the clients were
once named by a process-global counter.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro.core.builders import add_clients, attach_attacker, build_system
from repro.core.experiment import outcome_from_deployment, run_protocol_lifetime
from repro.core.specs import s0, s1, s2
from repro.randomization.obfuscation import Scheme
from repro.scenarios.runtime import install_workload
from repro.scenarios.spec import WorkloadSpec

GOLDEN = Path(__file__).parent / "data" / "golden_client_runs.json"

SYSTEMS = {
    "s0": lambda: s0(Scheme.SO, alpha=0.2, entropy_bits=7),
    "s1": lambda: s1(Scheme.PO, alpha=0.2, entropy_bits=7),
    "s2": lambda: s2(Scheme.SO, alpha=0.2, kappa=0.5, entropy_bits=7),
}
KINDS = ("closed", "open")
SEEDS = (0, 1, 2)
MAX_STEPS = 12
OPEN_LOOP = WorkloadSpec(kind="open_loop", clients=2, arrival_rate=4.0)

#: Client counters recorded per client (``failures`` for the closed
#: loop, ``timeouts`` for the open loop).
CLIENT_FIELDS = (
    "requests_sent",
    "responses_ok",
    "responses_corrupted",
    "failures",
    "timeouts",
)


def _outcome_view(outcome) -> dict:
    return {
        "compromised": outcome.compromised,
        "steps": outcome.steps,
        "time": outcome.time,
        "cause": outcome.cause,
        "metrics": dataclasses.asdict(outcome.metrics),
    }


def _client_view(client) -> dict:
    view = {
        field: getattr(client, field)
        for field in CLIENT_FIELDS
        if hasattr(client, field)
    }
    view["latency_count"] = len(client.latencies)
    view["latency_sum"] = sum(client.latencies)
    return view


def client_run(system: str, kind: str, seed: int) -> dict:
    """One attacked run with two clients of ``kind``, as a record.

    The run goes on past compromise, so compromised nodes answer the
    clients with corrupted responses.
    """
    spec = SYSTEMS[system]()
    deployed = build_system(spec, seed=seed, stop_on_compromise=False)
    attach_attacker(deployed)
    if kind == "closed":
        add_clients(deployed, 2)
    else:
        install_workload(deployed, OPEN_LOOP)
    deployed.start()
    deployed.sim.run(until=MAX_STEPS * spec.period)
    view = _outcome_view(outcome_from_deployment(deployed, seed, MAX_STEPS))
    view["clients"] = [_client_view(client) for client in deployed.clients]
    return view


def lifetime_run(system: str, seed: int) -> dict:
    spec = SYSTEMS[system]()
    outcome = run_protocol_lifetime(
        spec, seed=seed, max_steps=MAX_STEPS, with_workload=True
    )
    return _outcome_view(outcome)


def _cases():
    for system in SYSTEMS:
        for seed in SEEDS:
            for kind in KINDS:
                yield f"{system}-{kind}-{seed}", (client_run, system, kind, seed)
            yield f"{system}-lifetime-{seed}", (lifetime_run, system, seed)


def capture() -> dict:
    return {name: run(*args) for name, (run, *args) in _cases()}


@pytest.mark.parametrize(
    "name,case", [pytest.param(name, case, id=name) for name, case in _cases()]
)
def test_client_runs_match_golden(name, case):
    run, *args = case
    golden = json.loads(GOLDEN.read_text())
    assert run(*args) == golden[name]


def test_golden_covers_every_case():
    assert set(json.loads(GOLDEN.read_text())) == {name for name, _ in _cases()}


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        raise SystemExit("usage: test_client_golden.py --capture")
    GOLDEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
