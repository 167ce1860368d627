"""State machine replication (SMR) over randomized replicas.

The paper's S0 system: ``n = 4`` diversely randomized replicas running a
deterministic state machine behind a PBFT-style order protocol, tolerant
of ``f = 1`` compromised replica.  Clients broadcast requests to all
replicas and accept a response once ``f + 1`` replicas return matching
signed responses.

The ordering core (quorum bookkeeping) lives in
:mod:`repro.replication.order_protocol`; this module adds the replica
process: leader sequencing, the three-phase exchange, in-order execution,
crash-triggered view changes, and recovery-time state transfer requiring
``f + 1`` matching states (the Roeder-Schneider condition the paper
summarizes in §2.3).

Attack surface: identical to :class:`~repro.replication.primary_backup.PBServer`
— direct connection probes, and probe-bearing requests which every
replica *executes* (each against its own diversely randomized address
space, so a single request-path probe can crash several replicas but can
compromise at most those whose key it guesses).
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Mapping, Optional

from ..core.timing import DEFAULT_RESPAWN_DELAY
from ..crypto.signatures import SignatureAuthority, canonical_bytes
from ..net.message import Message
from ..net.network import Network
from ..randomization.keyspace import KeySpace
from ..randomization.node import RandomizedProcess
from ..sim.engine import Simulator
from .order_protocol import OrderingState, SlotPhase
from .primary_backup import (
    PROBE_OP,
    REQUEST,
    SERVER_RESPONSE,
    SYNC_REQUEST,
    SYNC_RESPONSE,
)

PRE_PREPARE = "pre_prepare"
PREPARE = "prepare"
COMMIT = "commit"
VIEW_CHANGE = "view_change"


def request_digest(body: Mapping[str, Any]) -> str:
    """Stable digest identifying a request body."""
    return hashlib.sha256(canonical_bytes(dict(body))).hexdigest()


def vote_response(
    votes: dict, index: int, response: Mapping[str, Any], item: Any, quorum: int
) -> Any:
    """Record replica ``index``'s ``response``; return the agreed item.

    ``votes`` maps a replica index to ``(fingerprint, item)``; a replica
    that answers again replaces its vote.  Returns the ``item`` of the
    earliest vote for the first fingerprint ``quorum`` replicas share,
    or ``None`` while none does.  Clients vote with the response itself,
    proxies with the signed response they relay.
    """
    votes[index] = (repr(sorted((str(k), repr(v)) for k, v in response.items())), item)
    counts: dict[str, int] = {}
    for fingerprint, _ in votes.values():
        counts[fingerprint] = counts.get(fingerprint, 0) + 1
    winner = next((fp for fp, count in counts.items() if count >= quorum), None)
    if winner is None:
        return None
    return next(agreed for fp, agreed in votes.values() if fp == winner)


class SMRReplica(RandomizedProcess):
    """One replica of the S0 state-machine-replicated server system.

    Parameters
    ----------
    sim, name, keyspace, rng:
        See :class:`~repro.randomization.node.RandomizedProcess`.
    index:
        Replica index; the leader of view ``v`` is the replica with
        index position ``v mod n`` in the membership order.
    service:
        The deterministic state machine to replicate.
    authority, network:
        PKI and network substrates.
    f:
        Number of compromised replicas tolerated (``n > 3f``).
    request_timeout:
        How long a replica waits for a pending request to execute before
        voting for a view change.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        index: int,
        keyspace: KeySpace,
        rng: random.Random,
        service: Any,
        authority: SignatureAuthority,
        network: Network,
        f: int = 1,
        request_timeout: float = 0.25,
        respawn_delay: Optional[float] = DEFAULT_RESPAWN_DELAY,
    ) -> None:
        super().__init__(sim, name, keyspace, rng, respawn_delay=respawn_delay)
        self.index = index
        self.service = service
        self.authority = authority
        self.network = network
        self.f = f
        self.request_timeout = request_timeout
        self.peers: list[str] = []
        self._others: list[str] = []  # peers without us, for fan-outs
        self.view = 0
        self.next_seq = 0  # last seq this leader assigned
        self.executed_seq = 0
        self.executed_ids: set[str] = set()
        self.response_cache: dict[str, dict] = {}
        self.pending: dict[str, dict] = {}  # request_id -> request record
        self._pending_since: dict[str, float] = {}
        self._proposed: set[str] = set()
        self._view_votes: dict[int, set[str]] = {}
        self._ordering: Optional[OrderingState] = None
        self._sync_reports: dict[str, dict] = {}
        # ``service.digest()`` of the current state, or None until a sync
        # request needs it; cleared whenever the service state changes.
        self._state_digest: Optional[str] = None
        # The SYNC_RESPONSE payload for the current (seq, view, service,
        # response cache, executed ids), or None until a sync request
        # needs it; cleared whenever any of those fields changes.
        self._sync_payload: Optional[dict] = None
        self.requests_executed = 0
        authority.issue_keypair(name)
        self._ticker_started = False

    # ------------------------------------------------------------------
    # Membership and roles
    # ------------------------------------------------------------------
    def configure(self, peers: list[str]) -> None:
        """Install ordered membership and start the timeout ticker."""
        self.peers = list(peers)
        self._others = [peer for peer in self.peers if peer != self.name]
        self._ordering = OrderingState(n=len(peers), f=self.f)
        if not self._ticker_started:
            self._ticker_started = True
            self.sim.schedule_fast(self.request_timeout, self._tick)

    @property
    def ordering(self) -> OrderingState:
        if self._ordering is None:
            raise RuntimeError(f"{self.name} not configured")
        return self._ordering

    @property
    def leader_name(self) -> str:
        """Leader of the current view."""
        return self.peers[self.view % len(self.peers)]

    @property
    def is_leader(self) -> bool:
        """Whether this replica leads the current view."""
        return bool(self.peers) and self.leader_name == self.name

    # ------------------------------------------------------------------
    # Message handling (the MESSAGE_HANDLERS table closes the class)
    # ------------------------------------------------------------------
    # -- client requests --------------------------------------------------
    def _on_request(self, message: Message) -> None:
        payload = message.payload
        request_id = payload["request_id"]
        if request_id in self.executed_ids:
            cached = self.response_cache.get(request_id)
            if cached is not None:
                self._send_response(
                    request_id, cached, list(payload.get("reply_to", []))
                )
            return
        record = {
            "request_id": request_id,
            "body": dict(payload.get("body", {})),
            "reply_to": list(payload.get("reply_to", [message.src])),
        }
        if request_id not in self.pending:
            self.pending[request_id] = record
            self._pending_since[request_id] = self.sim.now
        if self.is_leader:
            self._propose(record)

    def _propose(self, record: dict) -> None:
        """Leader: assign the next sequence number and pre-prepare."""
        request_id = record["request_id"]
        if request_id in self._proposed or request_id in self.executed_ids:
            return
        self._proposed.add(request_id)
        self.next_seq = max(self.next_seq, self.executed_seq) + 1
        digest = request_digest(record["body"])
        payload = {
            "view": self.view,
            "seq": self.next_seq,
            "digest": digest,
            "record": record,
        }
        self.network.multicast(
            self.name,
            self._others,
            PRE_PREPARE,
            payload,
        )
        # Leader processes its own pre-prepare directly.
        self._accept_preprepare(payload)

    # -- three-phase ordering ----------------------------------------------
    def _on_preprepare(self, message: Message) -> None:
        if message.src != self.leader_name:
            return  # only the current leader may sequence
        self._accept_preprepare(message.payload)

    def _accept_preprepare(self, payload: Mapping[str, Any]) -> None:
        view, seq = payload["view"], payload["seq"]
        if view != self.view or seq <= self.executed_seq:
            return
        record = payload["record"]
        if request_digest(record["body"]) != payload["digest"]:
            return  # malformed proposal
        self.ordering.record_preprepare(view, seq, payload["digest"], dict(record))
        self.pending.setdefault(record["request_id"], dict(record))
        self._pending_since.setdefault(record["request_id"], self.sim.now)
        self._broadcast_vote(PREPARE, view, seq, payload["digest"])
        if self.ordering.record_prepare(view, seq, payload["digest"], self.name):
            self._broadcast_vote(COMMIT, view, seq, payload["digest"])
            self._record_own_commit(view, seq, payload["digest"])

    def _broadcast_vote(self, phase: str, view: int, seq: int, digest: str) -> None:
        payload = {"view": view, "seq": seq, "digest": digest}
        self.network.multicast(
            self.name,
            self._others,
            phase,
            payload,
        )

    def _on_prepare(self, message: Message) -> None:
        p = message.payload
        if p["view"] != self.view:
            return
        if self.ordering.record_prepare(p["view"], p["seq"], p["digest"], message.src):
            self._broadcast_vote(COMMIT, p["view"], p["seq"], p["digest"])
            self._record_own_commit(p["view"], p["seq"], p["digest"])

    def _record_own_commit(self, view: int, seq: int, digest: str) -> None:
        if self.ordering.record_commit(view, seq, digest, self.name):
            self._execute_ready()

    def _on_commit(self, message: Message) -> None:
        p = message.payload
        if p["view"] != self.view:
            return
        if self.ordering.record_commit(p["view"], p["seq"], p["digest"], message.src):
            self._execute_ready()

    def _execute_ready(self) -> None:
        """Execute committed slots in contiguous sequence order."""
        progressed = True
        while progressed:
            progressed = False
            slot = self.ordering.slot(self.view, self.executed_seq + 1)
            if slot.phase is SlotPhase.COMMITTED and slot.request is not None:
                self._execute(slot.request)
                self.executed_seq += 1
                # Also covers what _execute changed (executed ids,
                # service state, response cache, probe-op executions
                # included): it has no other caller, and nothing it does
                # answers a sync request before this line.
                self._sync_payload = None
                progressed = True

    def _execute(self, record: dict) -> None:
        request_id = record["request_id"]
        body = record["body"]
        reply_to = record["reply_to"]
        self.pending.pop(request_id, None)
        self._pending_since.pop(request_id, None)
        if request_id in self.executed_ids:
            return
        self.executed_ids.add(request_id)
        if body.get("op") == PROBE_OP:
            # Every replica executes the ordered request against its own
            # (diversely randomized) address space.
            self.receive_probe(int(body.get("guess", -1)))
            return
        response = self.service.apply(body)
        self._state_digest = None
        self.requests_executed += 1
        self.response_cache[request_id] = response
        self._send_response(request_id, response, reply_to)

    def _send_response(
        self, request_id: str, response: dict, reply_to: list[str]
    ) -> None:
        body = {"request_id": request_id, "response": response, "index": self.index}
        if self.compromised:
            body = {
                "request_id": request_id,
                "response": {"ok": False, "error": "__corrupted__"},
                "index": self.index,
            }
        signed = self.authority.sign(self.name, body)
        for target in reply_to:
            if self.network.knows(target):
                self.network.send(
                    Message(self.name, target, SERVER_RESPONSE, {"signed": signed})
                )

    # -- view changes --------------------------------------------------------
    def _tick(self) -> None:
        if self.is_available and self._pending_since:
            oldest = min(self._pending_since.values())
            if self.sim.now - oldest > self.request_timeout:
                self._vote_view_change(self.view + 1)
        self.sim.schedule_fast(self.request_timeout, self._tick)

    def _vote_view_change(self, new_view: int) -> None:
        votes = self._view_votes.setdefault(new_view, set())
        if self.name in votes:
            return
        votes.add(self.name)
        payload = {"new_view": new_view}
        self.network.multicast(
            self.name,
            self._others,
            VIEW_CHANGE,
            payload,
        )
        self._maybe_enter_view(new_view)

    def _on_view_change(self, message: Message) -> None:
        new_view = message.payload["new_view"]
        if new_view <= self.view:
            return
        self._view_votes.setdefault(new_view, set()).add(message.src)
        # Echo our own vote so the quorum can assemble even if our timer
        # has not fired yet (standard view-change amplification).
        if len(self._view_votes[new_view]) >= self.f + 1:
            self._vote_view_change(new_view)
        self._maybe_enter_view(new_view)

    def _maybe_enter_view(self, new_view: int) -> None:
        votes = self._view_votes.get(new_view, set())
        if new_view <= self.view or len(votes) < self.ordering.quorum:
            return
        old_view = self.view
        self.view = new_view
        self._sync_payload = None
        self.ordering.drop_view(old_view)
        self._proposed.clear()
        for request_id in self._pending_since:
            self._pending_since[request_id] = self.sim.now
        self._request_sync()
        if self.is_leader:
            for record in list(self.pending.values()):
                self._propose(record)

    # -- state transfer --------------------------------------------------------
    def _request_sync(self) -> None:
        # Runs at every respawn under probing: the request carries no
        # payload (Message shares one empty mapping).
        self._sync_reports.clear()
        name, send = self.name, self.network.send
        for peer in self._others:
            send(Message(name, peer, SYNC_REQUEST))

    def _on_sync_request(self, message: Message) -> None:
        """Answer with the memoized SYNC_RESPONSE payload.

        Peers ask at every crash and respawn, far more often than the
        state changes, so the payload (and the digest inside it) is
        built once per state and the same object is sent to every
        asker: receivers never mutate a report, and ``restore`` copies
        the snapshot it adopts.
        """
        payload = self._sync_payload
        if payload is None:
            digest = self._state_digest
            if digest is None:
                digest = self._state_digest = self.service.digest()
            payload = self._sync_payload = {
                "seq": self.executed_seq,
                "view": self.view,
                "digest": digest,
                "snapshot": self.service.snapshot(),
                "cache": dict(self.response_cache),
                "executed_ids": sorted(self.executed_ids),
            }
        self.network.send(Message(self.name, message.src, SYNC_RESPONSE, payload))

    def _on_sync_response(self, message: Message) -> None:
        """Adopt a peer state only when ``f + 1`` replicas agree on it.

        This is the recovery condition of §2.3: a re-joining replica
        needs ``f + 1`` correct working replicas to supply the state, so
        a single compromised replica cannot poison recovery.

        Reports are stored by reference (senders share one immutable
        payload per state).  Only the arriving report's ``(seq,
        digest)`` is counted: it is the only fingerprint whose count can
        rise, so it is the only one that can newly reach ``f + 1`` — any
        other would have been adopted (or found stale) when it did.  The
        first matching report in ``_sync_reports`` order is adopted.
        """
        report = message.payload
        reports = self._sync_reports
        reports[message.src] = report
        seq = report["seq"]
        if seq <= self.executed_seq:
            return
        digest = report["digest"]
        chosen = None
        matches = 0
        for other in reports.values():
            if other["seq"] == seq and other["digest"] == digest:
                if chosen is None:
                    chosen = other
                matches += 1
        if matches < self.f + 1:
            return
        self.executed_seq = seq
        self.view = max(self.view, chosen["view"])
        self.service.restore(chosen["snapshot"])
        self._state_digest = None
        self._sync_payload = None
        self.response_cache.update(chosen["cache"])
        self.executed_ids.update(chosen["executed_ids"])
        for request_id in list(self.pending):
            if request_id in self.executed_ids:
                self.pending.pop(request_id, None)
                self._pending_since.pop(request_id, None)

    # ------------------------------------------------------------------
    # Lifecycle hooks.  (The direct connection-probe attack surface is
    # inherited from RandomizedProcess.)
    # ------------------------------------------------------------------
    def on_respawn(self) -> None:
        self._request_sync()

    def on_reboot_complete(self) -> None:
        self._request_sync()

    MESSAGE_HANDLERS = {
        REQUEST: _on_request,
        PRE_PREPARE: _on_preprepare,
        PREPARE: _on_prepare,
        COMMIT: _on_commit,
        VIEW_CHANGE: _on_view_change,
        SYNC_REQUEST: _on_sync_request,
        SYNC_RESPONSE: _on_sync_response,
    }
