"""Invalid-request logging and de-randomization probe detection.

Proxies do no application processing, so they can afford to log client
behaviour over long periods (paper §2.2).  A de-randomization probe that
guesses wrong manifests at the proxy as an *invalid request* (the server
processing it crashes and no authentic response comes back).  By counting
invalid requests per source over a sliding window, a proxy blacklists
sources that probe faster than an innocuous error rate.

The defensive consequence — the paper's **indirect attack coefficient**
``κ`` — follows directly: an attacker who must stay below the detection
threshold can sustain at most ``threshold / window`` probes per time
unit, so his effective per-step probe budget through proxies is capped.
:func:`kappa_for_policy` computes the κ a policy imposes on an attacker
of strength ω.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..errors import ConfigurationError


@dataclass
class DetectionPolicy:
    """Parameters of the proxy's frequency analysis.

    Attributes
    ----------
    window:
        Length of the sliding observation window (simulated time).
    threshold:
        Number of invalid requests within one window a single source may
        accumulate before being blacklisted.
    aggregate_threshold:
        Optional number of invalid requests within one window *across
        all sources* that puts the proxy in **siege mode**.  Per-source
        blacklisting is defeated by rotating spoofed identities (the
        §2.2 evasion); in siege mode the proxy additionally drops
        requests from sources with no history of valid requests, which
        blunts rotation while leaving established clients untouched.
    """

    window: float = 10.0
    threshold: int = 100
    aggregate_threshold: int | None = None

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ConfigurationError(f"window must be positive, got {self.window}")
        if self.threshold < 1:
            raise ConfigurationError(f"threshold must be >= 1, got {self.threshold}")
        if self.aggregate_threshold is not None and self.aggregate_threshold < 1:
            raise ConfigurationError(
                f"aggregate_threshold must be >= 1, got {self.aggregate_threshold}"
            )

    @property
    def max_sustainable_rate(self) -> float:
        """Highest long-run invalid-request rate that evades detection."""
        return self.threshold / self.window


def kappa_for_policy(
    policy: DetectionPolicy, omega: float, period: float = 1.0
) -> float:
    """The indirect attack coefficient κ that ``policy`` imposes.

    An attacker able to complete ``omega`` probes per unit time-step of
    length ``period`` must pace indirect probes below the policy's
    sustainable rate; κ is the resulting fraction of his direct strength
    (Definition 5 of the paper).  The bound is that of a single detection
    log seeing the whole stream; the number of proxies is not an input.
    In a deployment each :class:`~repro.proxy.proxy.ProxyNode` keeps its
    own :class:`DetectionLog`, and
    :class:`~repro.attacker.driver.IndirectProber` rotates its probes
    across the proxies, so each log sees only its share of the stream.
    """
    if omega <= 0:
        raise ConfigurationError(f"omega must be positive, got {omega}")
    evading_budget = policy.max_sustainable_rate * period
    return min(1.0, evading_budget / omega)


@dataclass
class _SourceLog:
    """Per-source sliding window of invalid-request timestamps."""

    events: deque = field(default_factory=deque)
    total: int = 0


class DetectionLog:
    """Sliding-window frequency analysis of invalid requests per source.

    Parameters
    ----------
    policy:
        Window length and blacklist threshold.
    """

    def __init__(self, policy: DetectionPolicy | None = None) -> None:
        self.policy = policy or DetectionPolicy()
        self._sources: dict[str, _SourceLog] = {}
        self._blacklist: set[str] = set()
        self._aggregate: deque = deque()
        self._valid_counts: dict[str, int] = {}
        self.invalid_total = 0

    # ------------------------------------------------------------------
    def record_invalid(self, source: str, now: float) -> bool:
        """Log one invalid request from ``source`` at time ``now``.

        Returns ``True`` if this event pushed the source over the
        threshold (it is blacklisted from now on).
        """
        log = self._sources.setdefault(source, _SourceLog())
        log.events.append(now)
        log.total += 1
        self.invalid_total += 1
        self._aggregate.append(now)
        self._expire_aggregate(now)
        self._expire(log, now)
        if len(log.events) > self.policy.threshold and source not in self._blacklist:
            self._blacklist.add(source)
            return True
        return False

    def _expire(self, log: _SourceLog, now: float) -> None:
        horizon = now - self.policy.window
        while log.events and log.events[0] < horizon:
            log.events.popleft()

    def _expire_aggregate(self, now: float) -> None:
        horizon = now - self.policy.window
        while self._aggregate and self._aggregate[0] < horizon:
            self._aggregate.popleft()

    # ------------------------------------------------------------------
    # Valid-request history and siege mode
    # ------------------------------------------------------------------
    def record_valid(self, source: str) -> None:
        """Log that ``source`` received a valid (authentic) response."""
        self._valid_counts[source] = self._valid_counts.get(source, 0) + 1

    def valid_count(self, source: str) -> int:
        """Lifetime count of valid responses delivered to ``source``."""
        return self._valid_counts.get(source, 0)

    def under_siege(self, now: float) -> bool:
        """Whether the aggregate invalid-request rate (all sources)
        currently exceeds the siege threshold."""
        if self.policy.aggregate_threshold is None:
            return False
        self._expire_aggregate(now)
        return len(self._aggregate) > self.policy.aggregate_threshold

    # ------------------------------------------------------------------
    def is_blacklisted(self, source: str) -> bool:
        """Whether ``source`` has been identified as a probe launcher."""
        return source in self._blacklist

    def suspicion(self, source: str, now: float) -> float:
        """Fraction of the threshold ``source`` currently occupies."""
        log = self._sources.get(source)
        if log is None:
            return 0.0
        self._expire(log, now)
        return len(log.events) / self.policy.threshold

    def invalid_count(self, source: str) -> int:
        """Lifetime invalid-request count of ``source``."""
        log = self._sources.get(source)
        return log.total if log else 0

    @property
    def blacklisted_sources(self) -> frozenset[str]:
        """All sources blacklisted so far."""
        return frozenset(self._blacklist)
