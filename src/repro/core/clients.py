"""Workload clients.

Every client shares one request core, :class:`RequestClient`: it sends
legitimate service requests to whichever deployment it is pointed at and
*validates* the responses exactly the way the paper prescribes for each
system:

* **fortress** (S2) — requests go to all proxies; a response is accepted
  if it carries two authentic signatures, one from the forwarding proxy
  and one from a server (over-signing, §3);
* **pb** (S1) — requests go to all servers; one authentic server
  signature suffices;
* **smr** (S0) — requests go to all replicas; the client waits for
  ``f + 1`` matching authentic responses.

Only the arrival policy differs between clients.  The closed-loop
:class:`WorkloadClient` here keeps one request in flight and retries on
timeout; the open-loop :class:`~repro.workloads.openloop.OpenLoopClient`
issues requests on a Poisson process and never retries.
"""

from __future__ import annotations

import random
from typing import Callable, Mapping, Optional

from ..crypto.signatures import Signed, SignatureAuthority
from ..net.message import Message
from ..net.network import Network
from ..proxy.proxy import CLIENT_REQUEST, CLIENT_RESPONSE
from ..replication.primary_backup import REQUEST, SERVER_RESPONSE
from ..replication.smr import vote_response
from ..sim.engine import Simulator
from ..sim.process import SimProcess

#: request-body generator signature: (op_index, rng) -> body dict
BodyFactory = Callable[[int, random.Random], dict]


def default_body_factory(i: int, rng: random.Random) -> dict:
    """A mixed read/write KV workload."""
    key = f"k{rng.randrange(16)}"
    choice = i % 3
    if choice == 0:
        return {"op": "put", "key": key, "value": i}
    if choice == 1:
        return {"op": "get", "key": key}
    return {"op": "incr", "key": f"ctr{rng.randrange(4)}"}


class RequestClient(SimProcess):
    """The request core every workload client shares.

    It holds the table of outstanding requests keyed by ``request_id``,
    builds and sends request payloads, validates responses (see the
    module docstring) and counts completions.  A subclass supplies the
    arrival policy: :meth:`_schedule_arrival` and :meth:`_finished`.

    Parameters
    ----------
    sim, network, authority:
        Simulation substrates.
    mode:
        ``"fortress"``, ``"pb"`` or ``"smr"`` (see module docstring).
    targets:
        Proxy addresses (fortress) or server addresses (pb / smr).
    name:
        Network identity; its RNG stream is ``{name}:{stream}``.
    f:
        Fault threshold for SMR response voting.
    body_factory:
        Generates request bodies (defaults to a mixed KV workload).
    """

    #: Clients are named ``{stem}-{index}`` (see ``add_clients``).
    stem = "client"

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        authority: SignatureAuthority,
        mode: str,
        targets: list[str],
        name: Optional[str],
        f: int,
        body_factory: BodyFactory,
        stream: str,
    ) -> None:
        if mode not in ("fortress", "pb", "smr"):
            raise ValueError(f"unknown client mode {mode!r}")
        super().__init__(sim, name or f"{self.stem}-0", respawn_delay=None)
        self.network = network
        self.authority = authority
        self.mode = mode
        self.targets = list(targets)
        self.f = f
        self.body_factory = body_factory
        self._rng = sim.rng.stream(f"{self.name}:{stream}")
        self._response_type = CLIENT_RESPONSE if mode == "fortress" else SERVER_RESPONSE
        self._outstanding: dict[str, dict] = {}
        self._op_index = 0
        self._running = False
        self.requests_sent = 0
        self.responses_ok = 0
        self.responses_corrupted = 0
        self.latencies: list[float] = []

    # ------------------------------------------------------------------
    # Arrivals
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin issuing requests."""
        if not self._running:
            self._running = True
            self._schedule_arrival()

    def stop_workload(self) -> None:
        """Stop issuing requests (outstanding ones still resolve)."""
        self._running = False

    @property
    def in_flight(self) -> int:
        """Currently outstanding requests."""
        return len(self._outstanding)

    def _schedule_arrival(self) -> None:
        raise NotImplementedError

    def _finished(self, entry: dict) -> None:
        """Called once a request completes, after it is counted."""

    def _open_request(self) -> tuple[str, dict]:
        """Draw the next request body, record it and send it."""
        self._op_index += 1
        request_id = f"{self.name}-r{self._op_index}"
        entry = {
            "body": self.body_factory(self._op_index, self._rng),
            "sent_at": self.sim.now,
            "votes": {},
        }
        self._outstanding[request_id] = entry
        self._send(request_id, entry["body"])
        return request_id, entry

    def _send(self, request_id: str, body: dict) -> None:
        self.requests_sent += 1
        if self.mode == "fortress":
            mtype = CLIENT_REQUEST
            payload = {"request_id": request_id, "client": self.name, "body": body}
        else:
            mtype = REQUEST
            payload = {
                "request_id": request_id,
                "client": self.name,
                "reply_to": [self.name],
                "body": body,
            }
        for target in self.targets:
            if self.network.knows(target):
                self.network.send(Message(self.name, target, mtype, payload))

    # ------------------------------------------------------------------
    # Responses
    # ------------------------------------------------------------------
    def handle_message(self, message: Message) -> None:
        # Proxies' CLIENT_ERROR reports are ignored: the client's own
        # timer decides when a request has failed.
        if message.mtype != self._response_type:
            return
        if self.mode == "fortress":
            envelope = message.payload.get("envelope")
            signed = envelope.payload if isinstance(envelope, Signed) else None
        else:
            signed = message.payload.get("signed")
        if not isinstance(signed, Signed) or not isinstance(signed.payload, dict):
            return
        body = signed.payload
        request_id = body.get("request_id")
        # Look the request up before checking any signature: a response
        # to a finished or unknown request is dropped either way, and
        # verification has no side effect, so it is not paid for.
        entry = self._outstanding.get(request_id)
        if entry is None:
            return
        if self.mode == "fortress":
            authentic = self.authority.verify_oversigned(envelope)
        else:
            authentic = self.authority.verify(signed)
        if not authentic:
            return  # forged or tampered; keep waiting for an honest answer
        response = body["response"]
        if self.mode == "smr":
            response = vote_response(
                entry["votes"], body["index"], response, response, self.f + 1
            )
            if response is None:
                return
        self._complete(request_id, entry, response)

    def _complete(self, request_id: str, entry: dict, response: Mapping) -> None:
        del self._outstanding[request_id]
        self.latencies.append(self.sim.now - entry["sent_at"])
        if response.get("error") == "__corrupted__":
            self.responses_corrupted += 1
        else:
            self.responses_ok += 1
        self._finished(entry)


class WorkloadClient(RequestClient):
    """Closed-loop client: one request in flight, retried on timeout.

    Parameters
    ----------
    sim, network, authority, mode, targets, name, f, body_factory:
        See :class:`RequestClient`.
    think_time:
        Delay between receiving a response and issuing the next request.
    request_timeout:
        Patience before a retry.
    max_retries:
        Retries per request before recording a failure.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        authority: SignatureAuthority,
        mode: str,
        targets: list[str],
        name: Optional[str] = None,
        f: int = 1,
        think_time: float = 0.05,
        request_timeout: float = 0.6,
        max_retries: int = 3,
        body_factory: BodyFactory = default_body_factory,
    ) -> None:
        super().__init__(
            sim, network, authority, mode, targets, name, f, body_factory, "workload"
        )
        self.think_time = think_time
        self.request_timeout = request_timeout
        self.max_retries = max_retries
        self.failures = 0

    def _schedule_arrival(self) -> None:
        self.sim.schedule(self.think_time, self._issue_next)

    def _issue_next(self) -> None:
        if not self._running or self._outstanding:
            return
        request_id, entry = self._open_request()
        entry["retries"] = 0
        self._arm_deadline(request_id, entry)

    def _arm_deadline(self, request_id: str, entry: dict) -> None:
        entry["deadline"] = self.sim.schedule(
            self.request_timeout, self._on_timeout, request_id
        )

    def _on_timeout(self, request_id: str) -> None:
        entry = self._outstanding.get(request_id)
        if entry is None:
            return
        entry["retries"] += 1
        if entry["retries"] > self.max_retries:
            self.failures += 1
            del self._outstanding[request_id]
            self._after_request()
            return
        entry["votes"] = {}
        self._send(request_id, entry["body"])
        self._arm_deadline(request_id, entry)

    def _finished(self, entry: dict) -> None:
        entry["deadline"].cancel()
        self._after_request()

    def _after_request(self) -> None:
        if self._running:
            self._schedule_arrival()
