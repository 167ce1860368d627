"""Tests for workload distributions and the open-loop client."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.core.builders import build_system
from repro.core.specs import s0, s1, s2
from repro.crypto.signatures import Signed
from repro.errors import ConfigurationError
from repro.net.message import Message
from repro.proxy.proxy import CLIENT_RESPONSE
from repro.randomization.obfuscation import Scheme
from repro.replication.primary_backup import SERVER_RESPONSE
from repro.workloads.distributions import UniformKeys, ZipfKeys, kv_body_factory
from repro.workloads.openloop import OpenLoopClient


# ----------------------------------------------------------------------
# Distributions
# ----------------------------------------------------------------------
def test_uniform_keys_cover_space():
    dist = UniformKeys(n_keys=8)
    rng = random.Random(1)
    seen = {dist.sample(rng) for _ in range(500)}
    assert seen == {f"k{i}" for i in range(8)}


def test_zipf_probabilities_normalized_and_ranked():
    dist = ZipfKeys(n_keys=16, s=1.2)
    probabilities = [dist.probability(i) for i in range(16)]
    assert sum(probabilities) == pytest.approx(1.0)
    assert probabilities == sorted(probabilities, reverse=True)


def test_zipf_skew_concentrates_on_hot_keys():
    dist = ZipfKeys(n_keys=64, s=1.0)
    rng = random.Random(2)
    counts = Counter(dist.sample(rng) for _ in range(20_000))
    hot = counts["k0"] / 20_000
    assert hot == pytest.approx(dist.probability(0), abs=0.02)
    assert hot > 5 * counts.get("k40", 1) / 20_000


def test_zipf_s_zero_is_uniform():
    dist = ZipfKeys(n_keys=10, s=0.0)
    for i in range(10):
        assert dist.probability(i) == pytest.approx(0.1)


def test_zipf_validation():
    with pytest.raises(ConfigurationError):
        ZipfKeys(n_keys=0)
    with pytest.raises(ConfigurationError):
        ZipfKeys(n_keys=4, s=-1.0)
    with pytest.raises(ConfigurationError):
        ZipfKeys(n_keys=4).probability(9)


def test_body_factory_read_ratio():
    factory = kv_body_factory(UniformKeys(8), read_ratio=0.8)
    rng = random.Random(3)
    bodies = [factory(i, rng) for i in range(1000)]
    reads = sum(1 for b in bodies if b["op"] == "get")
    assert 0.72 < reads / 1000 < 0.88
    with pytest.raises(ConfigurationError):
        kv_body_factory(UniformKeys(8), read_ratio=1.5)


# ----------------------------------------------------------------------
# Open-loop client
# ----------------------------------------------------------------------
def make_openloop(spec, mode, targets_of, arrival_rate=20.0, seed=70):
    deployed = build_system(spec, seed=seed)
    client = OpenLoopClient(
        deployed.sim,
        deployed.network,
        deployed.authority,
        mode=mode,
        targets=targets_of(deployed),
        arrival_rate=arrival_rate,
    )
    deployed.network.register(client)
    return deployed, client


def test_openloop_fortress_throughput_and_latency():
    deployed, client = make_openloop(
        s2(Scheme.PO, alpha=1e-4, entropy_bits=8),
        "fortress",
        lambda d: d.proxy_names,
    )
    deployed.start()
    client.start()
    deployed.sim.run(until=10.0)
    # ~20/s offered for 10s; essentially all complete.
    assert client.responses_ok > 150
    assert client.timeouts < client.requests_sent * 0.05
    assert client.latency_percentile(0.95) < 0.1


def test_openloop_pb_and_smr_modes():
    for factory, mode in ((s1, "pb"), (s0, "smr")):
        deployed, client = make_openloop(
            factory(Scheme.PO, alpha=1e-4, entropy_bits=8),
            mode,
            lambda d: d.server_names,
        )
        deployed.start()
        client.start()
        deployed.sim.run(until=8.0)
        assert client.responses_ok > 100, mode
        assert client.responses_corrupted == 0


def test_openloop_arrivals_independent_of_completions():
    """The defining open-loop property: arrivals continue even when no
    responses come back (all servers down)."""
    deployed, client = make_openloop(
        s1(Scheme.PO, alpha=1e-4, entropy_bits=8),
        "pb",
        lambda d: d.server_names,
    )
    for server in deployed.servers:
        server.stop()
    deployed.start()
    client.start()
    deployed.sim.run(until=5.0)
    assert client.requests_sent > 50
    assert client.responses_ok == 0
    assert client.timeouts > 40


def test_openloop_stop_drains():
    deployed, client = make_openloop(
        s1(Scheme.PO, alpha=1e-4, entropy_bits=8),
        "pb",
        lambda d: d.server_names,
    )
    deployed.start()
    client.start()
    deployed.sim.run(until=3.0)
    client.stop_workload()
    sent = client.requests_sent
    deployed.sim.run(until=6.0)
    assert client.requests_sent == sent
    assert client.in_flight == 0


def test_openloop_validation():
    deployed = build_system(s1(Scheme.PO, alpha=1e-4, entropy_bits=8), seed=71)
    with pytest.raises(ValueError):
        OpenLoopClient(
            deployed.sim,
            deployed.network,
            deployed.authority,
            mode="bogus",
            targets=[],
        )
    with pytest.raises(ValueError):
        OpenLoopClient(
            deployed.sim,
            deployed.network,
            deployed.authority,
            mode="pb",
            targets=[],
            arrival_rate=0.0,
        )
    client = OpenLoopClient(
        deployed.sim,
        deployed.network,
        deployed.authority,
        mode="pb",
        targets=deployed.server_names,
    )
    with pytest.raises(ValueError):
        client.latency_percentile(0.5)  # nothing completed yet


def _spy(monkeypatch, authority, method):
    calls: list[str] = []
    real = getattr(authority, method)

    def spy(signed):
        calls.append(signed.signer)
        return real(signed)

    monkeypatch.setattr(authority, method, spy)
    return calls


def test_openloop_checks_signatures_only_for_outstanding_requests(monkeypatch):
    """Every proxy (fortress) or server (pb) answers each request; the
    client checks the answer that completes it and drops the rest
    unchecked.  A forged answer to an outstanding request is still
    checked and rejected."""
    for spec, mode, targets, method in (
        (s2, "fortress", lambda d: d.proxy_names, "verify_oversigned"),
        (s1, "pb", lambda d: d.server_names, "verify"),
    ):
        deployed, client = make_openloop(
            spec(Scheme.PO, alpha=1e-4, entropy_bits=8), mode, targets
        )
        calls = _spy(monkeypatch, deployed.authority, method)
        deployed.start()
        client.start()
        deployed.sim.run(until=2.0)
        completed = client.responses_ok + client.responses_corrupted
        assert completed > 20 and len(targets(deployed)) > 1, mode
        assert len(calls) == completed, mode

        client.stop_workload()
        deployed.sim.run(until=4.0)
        outstanding = "forged-r1"
        client._outstanding[outstanding] = {"sent_at": 4.0, "votes": {}}
        body = {"request_id": outstanding, "response": {"ok": True}, "index": 0}
        forged = Signed(body, targets(deployed)[0], "forged")
        if mode == "fortress":
            mtype, payload = CLIENT_RESPONSE, {"envelope": Signed(forged, "x", "y")}
        else:
            mtype, payload = SERVER_RESPONSE, {"signed": forged}
        before = len(calls)
        client.handle_message(Message(forged.signer, client.name, mtype, payload))
        assert len(calls) == before + 1, mode
        assert outstanding in client._outstanding
