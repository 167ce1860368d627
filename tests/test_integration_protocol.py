"""Cross-fidelity integration tests.

The repository's three evaluation methods — analytic formulas, fast
Monte-Carlo samplers, and the full protocol-level simulation — model the
same attack.  These tests run the protocol stack over many seeds and
check its mean lifetimes against the analytic/MC predictions, and verify
that the κ mechanism (proxy detection forcing attacker pacing) emerges
from the protocol pieces.
"""

from __future__ import annotations

import pytest

from repro.analysis.lifetimes import el_s0_so, el_s1_po, el_s1_so
from repro.core.builders import add_clients, attach_attacker, build_system
from repro.core.experiment import estimate_protocol_lifetime
from repro.core.specs import s0, s1, s2
from repro.mc.montecarlo import mc_expected_lifetime
from repro.proxy.detection import DetectionPolicy, kappa_for_policy
from repro.randomization.obfuscation import Scheme

#: Relative tolerance for protocol-vs-model means over ~30 seeds.  The
#: protocol adds real effects (respawn delays, reconnects, message
#: latencies) that shave a fraction of a step either way.
TOLERANCE = 0.35


def protocol_mean(spec, trials=30, max_steps=200):
    estimate = estimate_protocol_lifetime(spec, trials=trials, max_steps=max_steps)
    assert estimate.censored == 0, "runs must complete for a fair comparison"
    return estimate.mean_steps


def test_protocol_matches_analytic_s1_so():
    spec = s1(Scheme.SO, alpha=0.1, entropy_bits=8)
    assert protocol_mean(spec, max_steps=60) == pytest.approx(
        el_s1_so(0.1), rel=TOLERANCE
    )


def test_protocol_matches_analytic_s1_po():
    spec = s1(Scheme.PO, alpha=0.1, entropy_bits=8)
    assert protocol_mean(spec, max_steps=400) == pytest.approx(
        el_s1_po(0.1), rel=TOLERANCE
    )


def test_protocol_matches_analytic_s0_so():
    spec = s0(Scheme.SO, alpha=0.1, entropy_bits=8)
    assert protocol_mean(spec, max_steps=60) == pytest.approx(
        el_s0_so(0.1), rel=TOLERANCE
    )


def test_protocol_matches_mc_s2_so():
    spec = s2(Scheme.SO, alpha=0.1, kappa=0.5, entropy_bits=8)
    mc = mc_expected_lifetime(spec, trials=50_000, seed=3)
    assert protocol_mean(spec, max_steps=100) == pytest.approx(mc.mean, rel=TOLERANCE)


def test_protocol_preserves_ordering_s1so_vs_s0so():
    """Trend 1 reproduced at the protocol level."""
    s1_mean = protocol_mean(s1(Scheme.SO, alpha=0.1, entropy_bits=8), max_steps=60)
    s0_mean = protocol_mean(s0(Scheme.SO, alpha=0.1, entropy_bits=8), max_steps=60)
    assert s1_mean > s0_mean


# ----------------------------------------------------------------------
# The κ mechanism
# ----------------------------------------------------------------------
def test_unpaced_attacker_gets_blacklisted():
    """An attacker probing indirectly at full rate trips the proxies'
    frequency analysis and loses the indirect channel entirely."""
    spec = s2(Scheme.SO, alpha=0.2, kappa=1.0, entropy_bits=8)
    policy = DetectionPolicy(window=5.0, threshold=10)  # strict
    deployed = build_system(spec, seed=5, detection_policy=policy)
    attacker = attach_attacker(deployed)
    deployed.start()
    deployed.sim.run(until=10.0)
    blacklisted = [
        proxy
        for proxy in deployed.proxies
        if proxy.detection.is_blacklisted(attacker.name)
    ]
    assert blacklisted, "full-rate probing must be detected"


def test_paced_attacker_evades_detection():
    """Probing below threshold/window per proxy evades the blacklist —
    this is why κ < 1 is the attacker's best response."""
    spec = s2(Scheme.SO, alpha=0.2, kappa=0.05, entropy_bits=8)
    policy = DetectionPolicy(window=5.0, threshold=10)
    deployed = build_system(spec, seed=6, detection_policy=policy)
    attacker = attach_attacker(deployed)
    deployed.start()
    deployed.sim.run(until=20.0)
    assert all(
        not proxy.detection.is_blacklisted(attacker.name)
        for proxy in deployed.proxies
    )


def test_kappa_for_policy_matches_observed_sustainable_rate():
    """The analytic κ formula agrees with what the mechanism admits: an
    attacker paced at 0.9·κ·ω is blacklisted by no proxy."""
    policy = DetectionPolicy(window=10.0, threshold=20)
    omega = 51.2  # alpha=0.2 at chi=256
    kappa = kappa_for_policy(policy, omega=omega, period=1.0)
    spec_clean = s2(Scheme.SO, alpha=0.2, kappa=kappa * 0.9, entropy_bits=8)
    deployed = build_system(spec_clean, seed=7, detection_policy=policy)
    attacker = attach_attacker(deployed)
    deployed.start()
    deployed.sim.run(until=15.0)
    assert all(not p.detection.is_blacklisted(attacker.name) for p in deployed.proxies)


# ----------------------------------------------------------------------
# End-to-end service integrity under attack
# ----------------------------------------------------------------------
def test_workload_sees_corruption_only_after_compromise():
    spec = s1(Scheme.SO, alpha=0.1, entropy_bits=8)
    deployed = build_system(spec, seed=8, stop_on_compromise=False)
    attach_attacker(deployed)
    clients = add_clients(deployed, 1)
    deployed.start()
    deployed.sim.run(until=30.0)
    client = clients[0]
    monitor = deployed.monitor
    assert monitor.is_compromised  # exhaustion guarantees it
    # The client observed at least one corrupted (attacker-controlled)
    # response after compromise, and only valid ones before.
    assert client.responses_corrupted > 0
    assert client.responses_ok > 0


def test_fortified_servers_unreachable_but_service_works():
    spec = s2(Scheme.PO, alpha=0.01, kappa=0.5, entropy_bits=8)
    deployed = build_system(spec, seed=9)
    attacker = attach_attacker(deployed)
    clients = add_clients(deployed, 1)
    deployed.start()
    deployed.sim.run(until=5.0)
    # Attack surface: no direct server connections for the attacker...
    assert deployed.network.connect(attacker.name, "server-0") is None
    # ...while legitimate clients are served through the proxies.
    assert clients[0].responses_ok > 20
