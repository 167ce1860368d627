"""Open-loop workload client.

The closed-loop :class:`~repro.core.clients.WorkloadClient` issues one
request at a time; an **open-loop** client issues requests on a Poisson
arrival process regardless of completions — the standard way to study a
service under offered load, and to observe queueing when the primary is
busy crashing under probes.  Both share one request core
(:class:`~repro.core.clients.RequestClient`), so requests are validated
alike: over-signed envelopes for FORTRESS, one authentic signature for
PB, ``f + 1`` matching for SMR.
"""

from __future__ import annotations

from typing import Optional

from ..core.clients import BodyFactory, RequestClient, default_body_factory
from ..crypto.signatures import SignatureAuthority
from ..net.network import Network
from ..sim.engine import Simulator


class OpenLoopClient(RequestClient):
    """Poisson-arrival client with concurrent outstanding requests.

    Parameters
    ----------
    sim, network, authority, mode, targets, f, name, body_factory:
        See :class:`~repro.core.clients.RequestClient`.
    arrival_rate:
        Mean requests per simulated time unit.
    request_timeout:
        Deadline after which an outstanding request counts as failed
        (open-loop clients do not retry; they measure).
    """

    stem = "openloop"

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        authority: SignatureAuthority,
        mode: str,
        targets: list[str],
        arrival_rate: float = 10.0,
        request_timeout: float = 1.0,
        f: int = 1,
        name: Optional[str] = None,
        body_factory: BodyFactory = default_body_factory,
    ) -> None:
        super().__init__(
            sim, network, authority, mode, targets, name, f, body_factory, "openloop"
        )
        if arrival_rate <= 0:
            raise ValueError(f"arrival_rate must be positive, got {arrival_rate}")
        self.arrival_rate = arrival_rate
        self.request_timeout = request_timeout
        self.timeouts = 0

    def _schedule_arrival(self) -> None:
        self.sim.schedule_fast(self._rng.expovariate(self.arrival_rate), self._arrive)

    def _arrive(self) -> None:
        if not self._running:
            return
        request_id, _ = self._open_request()
        # Lazy expiry: the deadline is never cancelled, and finds the
        # request gone when it completed in time.
        self.sim.schedule_fast(self.request_timeout, self._expire, request_id)
        self._schedule_arrival()

    def _expire(self, request_id: str) -> None:
        if self._outstanding.pop(request_id, None) is not None:
            self.timeouts += 1

    def latency_percentile(self, q: float) -> float:
        """The ``q``-quantile (0..1) of observed latencies."""
        if not self.latencies:
            raise ValueError("no completed requests yet")
        ordered = sorted(self.latencies)
        index = min(len(ordered) - 1, max(0, int(q * len(ordered))))
        return ordered[index]
