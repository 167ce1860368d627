"""Open-loop workload client.

The closed-loop :class:`~repro.core.clients.WorkloadClient` issues one
request at a time; an **open-loop** client issues requests on a Poisson
arrival process regardless of completions — the standard way to study a
service under offered load, and to observe queueing when the primary is
busy crashing under probes.  Requests are tracked concurrently, each
validated like the closed-loop client validates (over-signed envelopes
for FORTRESS, one authentic signature for PB, ``f + 1`` matching for
SMR).
"""

from __future__ import annotations

import itertools
from typing import Mapping, Optional

from ..core.clients import BodyFactory, default_body_factory
from ..crypto.signatures import Signed, SignatureAuthority
from ..net.message import Message
from ..net.network import Network
from ..proxy.proxy import CLIENT_REQUEST, CLIENT_RESPONSE
from ..replication.primary_backup import REQUEST, SERVER_RESPONSE
from ..sim.engine import Simulator
from ..sim.process import SimProcess

_OPEN_SEQ = itertools.count(1)


class OpenLoopClient(SimProcess):
    """Poisson-arrival client with concurrent outstanding requests.

    Parameters
    ----------
    sim, network, authority:
        Simulation substrates.
    mode:
        ``"fortress"``, ``"pb"`` or ``"smr"``.
    targets:
        Proxy addresses (fortress) or server addresses (pb/smr).
    arrival_rate:
        Mean requests per simulated time unit.
    request_timeout:
        Deadline after which an outstanding request counts as failed
        (open-loop clients do not retry; they measure).
    f:
        Fault threshold for SMR voting.
    """

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
        if mode not in ("fortress", "pb", "smr"):
            raise ValueError(f"unknown client mode {mode!r}")
        if arrival_rate <= 0:
            raise ValueError(f"arrival_rate must be positive, got {arrival_rate}")
        super().__init__(sim, name or f"openloop-{next(_OPEN_SEQ)}", respawn_delay=None)
        self.network = network
        self.authority = authority
        self.mode = mode
        self.targets = list(targets)
        self.arrival_rate = arrival_rate
        self.request_timeout = request_timeout
        self.f = f
        self.body_factory = body_factory
        self._rng = sim.rng.stream(f"{self.name}:openloop")
        self._outstanding: dict[str, dict] = {}
        self._op_index = 0
        self._running = False
        self.requests_sent = 0
        self.responses_ok = 0
        self.responses_corrupted = 0
        self.timeouts = 0
        self.latencies: list[float] = []

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the arrival process."""
        if not self._running:
            self._running = True
            self.sim.schedule_fast(self._next_gap(), self._arrive)

    def stop_workload(self) -> None:
        """Stop generating arrivals (outstanding requests still resolve)."""
        self._running = False

    def _next_gap(self) -> float:
        return self._rng.expovariate(self.arrival_rate)

    @property
    def in_flight(self) -> int:
        """Currently outstanding requests."""
        return len(self._outstanding)

    # ------------------------------------------------------------------
    def _arrive(self) -> None:
        if not self._running:
            return
        self._op_index += 1
        request_id = f"{self.name}-r{self._op_index}"
        body = self.body_factory(self._op_index, self._rng)
        self._outstanding[request_id] = {
            "sent_at": self.sim.now,
            "votes": {},
        }
        self.requests_sent += 1
        if self.mode == "fortress":
            payload = {"request_id": request_id, "client": self.name, "body": body}
            mtype = CLIENT_REQUEST
        else:
            payload = {
                "request_id": request_id,
                "client": self.name,
                "reply_to": [self.name],
                "body": body,
            }
            mtype = REQUEST
        for target in self.targets:
            if self.network.knows(target):
                self.network.send(Message(self.name, target, mtype, payload))
        self.sim.schedule_fast(self.request_timeout, self._expire, request_id)
        self.sim.schedule_fast(self._next_gap(), self._arrive)

    def _expire(self, request_id: str) -> None:
        if self._outstanding.pop(request_id, None) is not None:
            self.timeouts += 1

    # ------------------------------------------------------------------
    def handle_message(self, message: Message) -> None:
        if message.mtype == CLIENT_RESPONSE and self.mode == "fortress":
            envelope = message.payload.get("envelope")
            if not isinstance(envelope, Signed):
                return
            body = self._outstanding_body(envelope.payload)
            if body is not None and self.authority.verify_oversigned(envelope):
                self._complete(body["request_id"], body["response"])
        elif message.mtype == SERVER_RESPONSE and self.mode in ("pb", "smr"):
            signed = message.payload.get("signed")
            body = self._outstanding_body(signed)
            if body is None or not self.authority.verify(signed):
                return
            if self.mode == "pb":
                self._complete(body["request_id"], body["response"])
            else:
                self._vote(body)

    def _outstanding_body(self, signed: object) -> Optional[dict]:
        """The body ``signed`` carries if it answers an outstanding
        request, else ``None``.

        Checked before any signature: a response to a finished or
        unknown request is dropped either way, and verification has no
        side effect, so it is not paid for.
        """
        if not isinstance(signed, Signed) or not isinstance(signed.payload, dict):
            return None
        body = signed.payload
        return body if body.get("request_id") in self._outstanding else None

    def _vote(self, body: Mapping) -> None:
        entry = self._outstanding.get(body["request_id"])
        if entry is None:
            return
        fingerprint = repr(
            sorted((str(k), repr(v)) for k, v in body["response"].items())
        )
        entry["votes"][body["index"]] = (fingerprint, body["response"])
        counts: dict[str, int] = {}
        for fp, _ in entry["votes"].values():
            counts[fp] = counts.get(fp, 0) + 1
        for fp, count in counts.items():
            if count >= self.f + 1:
                response = next(r for f2, r in entry["votes"].values() if f2 == fp)
                self._complete(body["request_id"], response)
                return

    def _complete(self, request_id: str, response: Mapping) -> None:
        entry = self._outstanding.pop(request_id, None)
        if entry is None:
            return
        self.latencies.append(self.sim.now - entry["sent_at"])
        if response.get("error") == "__corrupted__":
            self.responses_corrupted += 1
        else:
            self.responses_ok += 1

    # ------------------------------------------------------------------
    def latency_percentile(self, q: float) -> float:
        """The ``q``-quantile (0..1) of observed latencies."""
        if not self.latencies:
            raise ValueError("no completed requests yet")
        ordered = sorted(self.latencies)
        index = min(len(ordered) - 1, max(0, int(q * len(ordered))))
        return ordered[index]
