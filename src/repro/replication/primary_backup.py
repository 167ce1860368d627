"""Primary-backup (PB) replication over randomized server nodes.

Classical PB (paper §1): one replica — the **primary** — executes client
requests and ships the resulting state (plus the response) to the
**backups**; backups never execute, so arbitrary, non-deterministic
services replicate correctly.  Should the primary crash, a backup is
promoted.  PB tolerates crashes, not intrusions — which is exactly why
FORTRESS fortifies it.

Protocol messages
-----------------
``request``        client/proxy → servers; only the current primary executes.
``state_update``   primary → backups; carries seq, snapshot, response.
``server_response``server → requester; response signed with server index.
``heartbeat``      primary → backups (liveness).
``new_primary``    promoted backup → all (view announcement).
``sync_request`` / ``sync_response``  state transfer after reboot/respawn.

Attack surface
--------------
A request whose body is an attack probe (``op == "__probe__"``) exercises
the vulnerable code path when the primary processes it: a wrong key guess
crashes the primary (the forking daemon then respawns it with the same
key), the right guess compromises it.  This implements the paper's
"probes are crafted as service requests" (§6) and the indirect attack
path of FORTRESS.

Hot paths
---------
The heartbeat tick, the watchdog tick and ``_on_request`` run at
heartbeat and request rate.  They test primariness inline (the
``is_primary`` property costs two frames) and read the running state
from a module constant.  Proxies multicast every request to the whole
tier, so a backup drops a request before it reads the payload.  The
heartbeat chain resumes at its grid point through the kernel's no-handle
:meth:`~repro.sim.engine.Simulator.schedule_at`.
"""

from __future__ import annotations

import random
from typing import Optional

from ..core.timing import DEFAULT_RESPAWN_DELAY
from ..crypto.signatures import SignatureAuthority
from ..net.message import Message
from ..net.network import Network
from ..randomization.keyspace import KeySpace
from ..randomization.node import RandomizedProcess
from ..sim.engine import Simulator
from ..sim.process import ProcessState

#: Bound once: the liveness ticks read it at heartbeat rate, and a
#: module global is cheaper than an enum class attribute.
_RUNNING = ProcessState.RUNNING

#: Request body ``op`` that triggers the randomized-code attack path.
PROBE_OP = "__probe__"

REQUEST = "request"
STATE_UPDATE = "state_update"
SERVER_RESPONSE = "server_response"
HEARTBEAT = "heartbeat"
NEW_PRIMARY = "new_primary"
SYNC_REQUEST = "sync_request"
SYNC_RESPONSE = "sync_response"


class PBServer(RandomizedProcess):
    """One node of a primary-backup replicated server tier.

    Parameters
    ----------
    sim, name, keyspace, rng:
        See :class:`~repro.randomization.node.RandomizedProcess`.
    index:
        The server's unique index (known to proxies and clients via the
        name server); also determines promotion order.
    service:
        The service instance this replica hosts.
    authority:
        PKI used to sign responses.
    network:
        The network this server is registered on.
    heartbeat_interval / heartbeat_timeout:
        Primary liveness parameters; the timeout must exceed the
        interval.
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
        heartbeat_interval: float = 0.05,
        heartbeat_timeout: float = 0.2,
        respawn_delay: Optional[float] = DEFAULT_RESPAWN_DELAY,
    ) -> None:
        super().__init__(sim, name, keyspace, rng, respawn_delay=respawn_delay)
        self.index = index
        self.service = service
        self.authority = authority
        self.network = network
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.peers: list[str] = []  # all server names, in index order (incl. us)
        self._others: list[str] = []  # peers without us, for multicasts
        self.view = 0
        self.seq = 0
        self.last_heartbeat = 0.0
        self.response_cache: dict[str, dict] = {}
        self.requests_executed = 0
        self.updates_applied = 0
        authority.issue_keypair(name)
        self._heartbeat_started = False
        self._watchdog_started = False
        #: Time of the next heartbeat-grid point; the tick chain runs
        #: only while we are primary (backups pay no per-tick event) and
        #: resumes on promotion at exactly the grid an always-running
        #: chain would occupy — see ``_ensure_heartbeat``.
        self._hb_next = 0.0
        self._hb_scheduled = False

    # ------------------------------------------------------------------
    # Membership and roles
    # ------------------------------------------------------------------
    def configure(self, peers: list[str]) -> None:
        """Install the ordered server membership (index order) and start
        the heartbeat / failover machinery."""
        self.peers = list(peers)
        self._others = [peer for peer in self.peers if peer != self.name]
        self._start_timers()

    @property
    def primary_name(self) -> str:
        """Name of the primary for the current view."""
        return self.peers[self.view % len(self.peers)]

    @property
    def is_primary(self) -> bool:
        """Whether this replica currently acts as the primary."""
        return bool(self.peers) and self.primary_name == self.name

    def _start_timers(self) -> None:
        if not self._heartbeat_started:
            self._heartbeat_started = True
            self._hb_next = self.sim.now + self.heartbeat_interval
            if self.is_primary:
                self._hb_scheduled = True
                self.sim.schedule_fast(self.heartbeat_interval, self._heartbeat_tick)
        if not self._watchdog_started:
            self._watchdog_started = True
            self.last_heartbeat = self.sim.now
            self.sim.schedule_fast(self.heartbeat_timeout, self._watchdog_tick)

    def _ensure_heartbeat(self) -> None:
        """(Re)start the heartbeat chain if we are primary.

        Called wherever the view (and therefore primariness) can change.
        The chain resumes at the next grid point an always-running
        ticker would hit — the advance loop replays the same float
        additions that ticker's reschedules would have performed, so the
        heartbeat grid is bit-identical to a never-paused chain.
        """
        if self._hb_scheduled or not self._heartbeat_started or not self.is_primary:
            return
        now = self.sim.now
        nxt = self._hb_next
        while nxt <= now:
            nxt += self.heartbeat_interval
        self._hb_next = nxt
        self._hb_scheduled = True
        # An absolute time: the grid point must be hit exactly (now +
        # (nxt - now) could differ from nxt in the last ulp).
        self.sim.schedule_at(nxt, self._heartbeat_tick)

    def _heartbeat_tick(self) -> None:
        peers = self.peers
        sim = self.sim
        interval = self.heartbeat_interval
        if not (peers and peers[self.view % len(peers)] == self.name):  # demoted
            self._hb_scheduled = False
            self._hb_next = sim.now + interval
            return
        if self.state is _RUNNING:
            # Heartbeats advertise the primary's sequence number so that
            # replicas which missed state updates (reboot, respawn) can
            # detect staleness and sync lazily — see ``_on_heartbeat``.
            self.network.multicast(
                self.name, self._others, HEARTBEAT, {"view": self.view, "seq": self.seq}
            )
        self._hb_next = sim.now + interval
        sim.schedule_fast(interval, self._heartbeat_tick)

    def _watchdog_tick(self) -> None:
        peers = self.peers
        sim = self.sim
        if (
            self.state is _RUNNING
            and peers
            and peers[self.view % len(peers)] != self.name  # backup only
            and sim.now - self.last_heartbeat > self.heartbeat_timeout
        ):
            self._advance_view()
        sim.schedule_fast(self.heartbeat_timeout, self._watchdog_tick)

    def _advance_view(self) -> None:
        """Primary appears dead: move to the next view; announce if we
        are the new primary."""
        self.view += 1
        self.last_heartbeat = self.sim.now
        if self.is_primary:
            self.network.multicast(
                self.name, self._others, NEW_PRIMARY, {"view": self.view}
            )
            self._ensure_heartbeat()

    # ------------------------------------------------------------------
    # Message handling (the MESSAGE_HANDLERS table closes the class)
    # ------------------------------------------------------------------
    # -- requests -------------------------------------------------------
    def _on_request(self, message: Message) -> None:
        # Only the primary executes requests, probes included; a backup
        # drops them unread.
        peers = self.peers
        if not (peers and peers[self.view % len(peers)] == self.name):
            return
        payload = message.payload
        body = payload.get("body", {})
        if body.get("op") == PROBE_OP:
            # The probe exercises the randomized code path of the
            # primary that processes it.
            self.receive_probe(int(body.get("guess", -1)))
            return
        request_id = payload["request_id"]
        reply_to = list(payload.get("reply_to", [payload.get("client", message.src)]))
        if request_id in self.response_cache:
            self._send_response(request_id, self.response_cache[request_id], reply_to)
            return
        response = self.service.apply(body)
        self.requests_executed += 1
        self.seq += 1
        self.response_cache[request_id] = response
        self.network.multicast(
            self.name,
            self._others,
            STATE_UPDATE,
            {
                "seq": self.seq,
                "view": self.view,
                "request_id": request_id,
                "reply_to": reply_to,
                "snapshot": self.service.snapshot(),
                "response": response,
            },
        )
        self._send_response(request_id, response, reply_to)

    def _send_response(
        self, request_id: str, response: dict, reply_to: list[str]
    ) -> None:
        """Sign ``(request_id, response, index)`` and send to requesters.

        A compromised replica is attacker-controlled: it corrupts the
        response (the attacker's goal once inside is to subvert the
        service, and this makes compromise observable end-to-end).
        """
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

    # -- state updates ----------------------------------------------------
    def _on_state_update(self, message: Message) -> None:
        payload = message.payload
        if payload["view"] < self.view:
            return
        if payload["view"] > self.view:
            self.view = payload["view"]
        if payload["seq"] <= self.seq:
            return
        if payload["seq"] > self.seq + 1:
            # We missed an update (e.g. we were rebooting): sync instead.
            self._request_sync()
            return
        self.seq = payload["seq"]
        self.service.restore(payload["snapshot"])
        self.updates_applied += 1
        request_id = payload["request_id"]
        self.response_cache[request_id] = payload["response"]
        self.last_heartbeat = self.sim.now
        self._send_response(request_id, payload["response"], list(payload["reply_to"]))

    # -- liveness ---------------------------------------------------------
    def _on_heartbeat(self, message: Message) -> None:
        payload = message.payload
        if payload["view"] >= self.view:
            self.view = payload["view"]
            self.last_heartbeat = self.sim.now
            if payload.get("seq", 0) > self.seq:
                # We missed state updates while down: catch up from the
                # advertising primary (it provably holds that state).
                # The request carries no payload (Message shares one
                # empty mapping).
                self.network.send(Message(self.name, message.src, SYNC_REQUEST))

    def _on_new_primary(self, message: Message) -> None:
        if message.payload["view"] > self.view:
            self.view = message.payload["view"]
            self.last_heartbeat = self.sim.now
            self._ensure_heartbeat()  # defensive: adopted views may be ours

    # -- state transfer ----------------------------------------------------
    def _request_sync(self) -> None:
        name, send = self.name, self.network.send
        for peer in self._others:
            send(Message(name, peer, SYNC_REQUEST))

    def _on_sync_request(self, message: Message) -> None:
        self.network.send(
            Message(
                self.name,
                message.src,
                SYNC_RESPONSE,
                {
                    "seq": self.seq,
                    "view": self.view,
                    "snapshot": self.service.snapshot(),
                    "cache": dict(self.response_cache),
                },
            )
        )

    def _on_sync_response(self, message: Message) -> None:
        payload = message.payload
        if payload["seq"] > self.seq:
            self.seq = payload["seq"]
            self.view = max(self.view, payload["view"])
            self.service.restore(payload["snapshot"])
            self.response_cache.update(payload["cache"])
            # A peer may report a view in which *we* lead (it advanced
            # past us while we were down): restart our heartbeat chain.
            self._ensure_heartbeat()

    # ------------------------------------------------------------------
    # Lifecycle.  (The direct connection-probe attack surface is
    # inherited from RandomizedProcess.)  A respawned or rebooted
    # replica catches up on missed state lazily, so it keeps the base
    # no-op ``on_respawn`` and ``on_reboot_complete``: the next primary
    # heartbeat (at most one ``heartbeat_interval`` away) advertises the
    # current sequence number, and ``_on_heartbeat`` requests a sync only
    # when we are actually behind.  A respawn that missed nothing — the
    # common case under attack probing, where crashed primaries respawn
    # at probe rate with no workload executing — then costs zero sync
    # messages instead of a per-respawn request/response exchange with
    # every peer.
    # ------------------------------------------------------------------
    MESSAGE_HANDLERS = {
        REQUEST: _on_request,
        STATE_UPDATE: _on_state_update,
        HEARTBEAT: _on_heartbeat,
        NEW_PRIMARY: _on_new_primary,
        SYNC_REQUEST: _on_sync_request,
        SYNC_RESPONSE: _on_sync_response,
    }
