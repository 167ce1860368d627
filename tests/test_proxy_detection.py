"""Unit tests for the proxy's invalid-request frequency analysis."""

from __future__ import annotations

import pytest

from repro.attacker.agent import AttackerProcess
from repro.attacker.driver import IndirectProber
from repro.core.builders import add_clients, build_system
from repro.core.specs import s2
from repro.errors import ConfigurationError
from repro.proxy.detection import DetectionLog, DetectionPolicy, kappa_for_policy
from repro.randomization.obfuscation import Scheme


def test_policy_validation():
    with pytest.raises(ConfigurationError):
        DetectionPolicy(window=0.0)
    with pytest.raises(ConfigurationError):
        DetectionPolicy(threshold=0)


def test_max_sustainable_rate():
    assert DetectionPolicy(window=10.0, threshold=100).max_sustainable_rate == 10.0


def test_under_threshold_not_blacklisted():
    log = DetectionLog(DetectionPolicy(window=10.0, threshold=5))
    for t in range(5):
        assert not log.record_invalid("src", float(t))
    assert not log.is_blacklisted("src")


def test_exceeding_threshold_blacklists():
    log = DetectionLog(DetectionPolicy(window=10.0, threshold=5))
    tripped = [log.record_invalid("src", float(t) * 0.1) for t in range(6)]
    assert tripped == [False] * 5 + [True]
    assert log.is_blacklisted("src")


def test_blacklist_event_reported_once():
    log = DetectionLog(DetectionPolicy(window=10.0, threshold=2))
    flags = [log.record_invalid("s", float(i) * 0.1) for i in range(5)]
    assert flags.count(True) == 1


def test_window_expiry_allows_paced_probing():
    """An attacker pacing below threshold/window is never blacklisted —
    the mechanism that caps his indirect rate (κ)."""
    log = DetectionLog(DetectionPolicy(window=10.0, threshold=5))
    # One invalid request every 4 time units: 2.5 per window < 5.
    for i in range(50):
        assert not log.record_invalid("patient", i * 4.0)
    assert not log.is_blacklisted("patient")


def test_sources_tracked_independently():
    log = DetectionLog(DetectionPolicy(window=10.0, threshold=3))
    for i in range(4):
        log.record_invalid("noisy", float(i) * 0.1)
    log.record_invalid("quiet", 0.5)
    assert log.is_blacklisted("noisy")
    assert not log.is_blacklisted("quiet")
    assert log.blacklisted_sources == frozenset({"noisy"})


def test_suspicion_fraction():
    log = DetectionLog(DetectionPolicy(window=10.0, threshold=4))
    assert log.suspicion("s", now=0.0) == 0.0
    log.record_invalid("s", 0.0)
    log.record_invalid("s", 1.0)
    assert log.suspicion("s", now=1.0) == pytest.approx(0.5)
    # Old events age out of the window.
    assert log.suspicion("s", now=20.0) == 0.0


def test_lifetime_counts_survive_window_expiry():
    log = DetectionLog(DetectionPolicy(window=1.0, threshold=100))
    for i in range(10):
        log.record_invalid("s", float(i) * 5.0)
    assert log.invalid_count("s") == 10
    assert log.invalid_total == 10


# ----------------------------------------------------------------------
# κ derivation
# ----------------------------------------------------------------------
def test_kappa_caps_strong_attackers():
    policy = DetectionPolicy(window=10.0, threshold=100)  # 10 invalid/sec max
    # Attacker of strength 100 probes/step must slow to 10 -> kappa 0.1.
    assert kappa_for_policy(policy, omega=100.0, period=1.0) == pytest.approx(0.1)


def test_kappa_is_one_for_weak_attackers():
    policy = DetectionPolicy(window=10.0, threshold=100)
    assert kappa_for_policy(policy, omega=5.0, period=1.0) == 1.0


def test_kappa_scales_with_period():
    policy = DetectionPolicy(window=10.0, threshold=100)
    assert kappa_for_policy(policy, omega=100.0, period=2.0) == pytest.approx(0.2)


def test_kappa_requires_positive_omega():
    with pytest.raises(ConfigurationError):
        kappa_for_policy(DetectionPolicy(), omega=0.0)


def test_under_siege_requires_aggregate_threshold():
    log = DetectionLog(DetectionPolicy(window=10.0, threshold=100))
    for i in range(50):
        log.record_invalid(f"src{i}", float(i) * 0.01)
    assert not log.under_siege(1.0)  # no aggregate threshold configured


def test_under_siege_triggers_and_subsides():
    log = DetectionLog(
        DetectionPolicy(window=10.0, threshold=100, aggregate_threshold=20)
    )
    for i in range(25):
        log.record_invalid(f"src{i}", float(i) * 0.1)  # distinct sources!
    assert log.under_siege(2.5)
    assert not log.under_siege(30.0)  # window rolled past the burst


def test_valid_history_tracked():
    log = DetectionLog(DetectionPolicy())
    assert log.valid_count("c") == 0
    log.record_valid("c")
    log.record_valid("c")
    assert log.valid_count("c") == 2


# ----------------------------------------------------------------------
# Siege mode against an identity-rotating indirect prober
# ----------------------------------------------------------------------
def build_fortress(policy, seed):
    """An S2SO deployment with a *bare* attacker: no direct proxy
    streams, no launch pads, only the indirect (client-path) channel."""
    spec = s2(Scheme.SO, alpha=0.1, kappa=0.0, entropy_bits=10)
    deployed = build_system(
        spec, seed=seed, detection_policy=policy, stop_on_compromise=False
    )
    attacker = AttackerProcess(
        deployed.sim,
        deployed.network,
        keyspace=spec.keyspace,
        omega=spec.omega,
        period=spec.period,
    )
    deployed.network.register(attacker)
    deployed.attacker = attacker
    return deployed, attacker


def mount_rotating_prober(deployed, attacker, rate=16.0, identities=8):
    """Indirect probes at ``rate`` per step, cycling ``identities`` spoofed
    client identities across the proxies."""
    prober = IndirectProber(
        attacker,
        deployed.proxy_names,
        attacker.pool("server-tier"),
        interval=deployed.spec.period / rate,
        identities=identities,
    )
    prober.start()
    return prober


def test_siege_mode_blunts_identity_rotation():
    """Adding aggregate detection: identities without a valid history
    are turned away and the probing stream starves — rotation no longer
    pays."""
    # Per-source thresholds too lax to bite on their own; only the
    # aggregate analysis differs between the two deployments.
    per_source_only = DetectionPolicy(window=5.0, threshold=1000)
    with_siege = DetectionPolicy(window=5.0, threshold=1000, aggregate_threshold=5)

    probes = {}
    for label, policy in (("plain", per_source_only), ("siege", with_siege)):
        deployed, attacker = build_fortress(policy, seed=52)
        mount_rotating_prober(deployed, attacker)
        deployed.start()
        deployed.sim.run(until=40.0)
        # Count probes that actually reached the server tier.
        reached = sum(s.address_space.probes_received for s in deployed.servers)
        probes[label] = reached
        if label == "siege":
            assert any(p.dropped_siege > 0 for p in deployed.proxies)
    assert probes["siege"] < probes["plain"] / 2


def test_siege_mode_spares_established_clients():
    policy = DetectionPolicy(window=5.0, threshold=5, aggregate_threshold=8)
    deployed, attacker = build_fortress(policy, seed=53)
    clients = add_clients(deployed, 1)
    deployed.start()
    deployed.sim.run(until=5.0)  # client builds a valid history first
    mount_rotating_prober(deployed, attacker)
    before = clients[0].responses_ok
    deployed.sim.run(until=30.0)
    # The siege throttles the attacker, not the known-good client.
    assert clients[0].responses_ok > before + 50
    assert any(p.dropped_siege > 0 for p in deployed.proxies)
