"""FORTRESS proxies: the fortification tier.

Proxies (paper §2.2, §3) stand between clients and the server tier:

* they **hide** the servers — clients never learn server addresses, so
  de-randomization attacks cannot be launched at servers over direct
  TCP connections;
* they **forward** each client request to every server and return one
  authentic server response, *over-signed* with the proxy's own key, so
  clients can authenticate both hops;
* they **observe**: a wrong-guess probe manifests as an invalid request
  (the primary crashes; no authentic response arrives before the
  timeout).  The proxy logs these per source and blacklists sources that
  exceed the detection threshold — the mechanism that forces attackers
  to pace indirect probes (κ < 1).

Proxies do no application processing, but they are network-facing
processes with their own randomized address spaces: they can be probed
and compromised over direct connections, exactly like servers in a
1-tier system.
"""

from __future__ import annotations

import random
from typing import Optional

from ..core.timing import DEFAULT_DETECTION_LAG, DEFAULT_RESPAWN_DELAY
from ..crypto.signatures import Signed, SignatureAuthority
from ..net.message import Message
from ..net.network import Network
from ..randomization.keyspace import KeySpace
from ..randomization.node import RandomizedProcess
from ..replication.primary_backup import REQUEST, SERVER_RESPONSE
from ..replication.smr import vote_response
from ..sim.engine import Simulator
from .detection import DetectionLog, DetectionPolicy

CLIENT_REQUEST = "client_request"
CLIENT_RESPONSE = "client_response"
CLIENT_ERROR = "client_error"


class ProxyNode(RandomizedProcess):
    """One redundant proxy of a fortified (2-tier) system.

    Parameters
    ----------
    sim, name, keyspace, rng:
        See :class:`~repro.randomization.node.RandomizedProcess`.
    authority, network:
        PKI and network substrates.
    policy:
        Detection policy for invalid-request frequency analysis.
    request_timeout:
        How long the proxy waits for a server response before declaring
        the request invalid — the deployment's detection lag
        (:attr:`repro.core.timing.TimingSpec.detection_lag`).
    server_replication:
        ``"primary-backup"`` (accept the first authentic response) or
        ``"smr"`` (wait for ``f + 1`` matching responses).  FORTRESS
        supports any server-tier replication; the paper's S2 uses PB.
    fault_threshold:
        f of the server tier (used only for SMR response voting).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        keyspace: KeySpace,
        rng: random.Random,
        authority: SignatureAuthority,
        network: Network,
        policy: Optional[DetectionPolicy] = None,
        request_timeout: float = DEFAULT_DETECTION_LAG,
        server_replication: str = "primary-backup",
        fault_threshold: int = 0,
        respawn_delay: Optional[float] = DEFAULT_RESPAWN_DELAY,
    ) -> None:
        super().__init__(sim, name, keyspace, rng, respawn_delay=respawn_delay)
        self.authority = authority
        self.network = network
        self.detection = DetectionLog(policy)
        self.request_timeout = request_timeout
        self.server_replication = server_replication
        self.fault_threshold = fault_threshold
        self.servers: list[str] = []
        self._pending: dict[str, dict] = {}
        self.requests_forwarded = 0
        self.responses_delivered = 0
        self.errors_returned = 0
        self.dropped_blacklisted = 0
        self.dropped_siege = 0
        authority.issue_keypair(name)

    # ------------------------------------------------------------------
    def configure(self, servers: list[str]) -> None:
        """Install the server-tier addresses (proxies know them; clients
        never do)."""
        self.servers = list(servers)

    # ------------------------------------------------------------------
    # Message handling (the MESSAGE_HANDLERS table closes the class)
    # ------------------------------------------------------------------
    def _on_client_request(self, message: Message) -> None:
        payload = message.payload
        client = payload.get("client", message.src)
        if self.detection.is_blacklisted(client):
            self.dropped_blacklisted += 1
            return
        if (
            self.detection.under_siege(self.sim.now)
            and self.detection.valid_count(client) == 0
        ):
            # Siege mode: the aggregate invalid rate says someone is
            # probing from rotating identities; sources without a valid
            # history are turned away until the siege subsides.
            self.dropped_siege += 1
            return
        request_id = payload["request_id"]
        if request_id in self._pending:
            return  # duplicate submission of an in-flight request
        deadline = self.sim.schedule(
            self.request_timeout, self._on_request_timeout, request_id
        )
        self._pending[request_id] = {
            "client": client,
            "deadline": deadline,
            "done": False,
            "votes": {},  # index -> (response fingerprint, signed)
        }
        self.requests_forwarded += 1
        body = payload.get("body", {})
        self.network.multicast(
            self.name,
            self.servers,
            REQUEST,
            {
                "request_id": request_id,
                "client": client,
                "reply_to": [self.name],
                "body": body,
            },
            strict=False,  # historical relay semantics: skip unknown servers
        )

    def _on_request_timeout(self, request_id: str) -> None:
        entry = self._pending.pop(request_id, None)
        if entry is None or entry["done"]:
            return
        # No authentic server response in time: this is what an
        # incorrectly guessed probe looks like from where we stand.
        client = entry["client"]
        self.detection.record_invalid(client, self.sim.now)
        self.errors_returned += 1
        if self.network.knows(client):
            self.network.send(
                Message(
                    self.name,
                    client,
                    CLIENT_ERROR,
                    {"request_id": request_id, "error": "timeout"},
                )
            )

    def _on_server_response(self, message: Message) -> None:
        signed = message.payload.get("signed")
        if not isinstance(signed, Signed) or not isinstance(signed.payload, dict):
            return
        body = signed.payload
        request_id = body.get("request_id")
        # Look the request up before checking the signature: a response
        # to a finished or unknown request is dropped either way, and
        # verify() has no side effect, so it is not paid for.
        entry = self._pending.get(request_id)
        if entry is None or entry["done"]:
            return
        if not self.authority.verify(signed):
            return  # inauthentic; a compromised node cannot forge peers
        if self.server_replication == "smr":
            signed = vote_response(
                entry["votes"],
                body["index"],
                body["response"],
                signed,
                self.fault_threshold + 1,
            )
            if signed is None:
                return
        self._deliver(entry, request_id, signed)

    def _deliver(self, entry: dict, request_id: str, signed: Signed) -> None:
        """Over-sign one authentic server response and return it."""
        entry["done"] = True
        entry["deadline"].cancel()
        self._pending.pop(request_id, None)
        envelope = self.authority.sign(self.name, signed)
        client = entry["client"]
        self.responses_delivered += 1
        self.detection.record_valid(client)
        if self.network.knows(client):
            self.network.send(
                Message(
                    self.name,
                    client,
                    CLIENT_RESPONSE,
                    {"request_id": request_id, "envelope": envelope},
                )
            )

    # ------------------------------------------------------------------
    # (The direct connection-probe attack surface is inherited from
    # RandomizedProcess: proxies are probed like any randomized node.)
    # ------------------------------------------------------------------
    def on_reboot_complete(self) -> None:
        """A rebooted proxy starts with an empty pending table; the
        detection log survives (it is long-horizon storage by design)."""
        self._pending.clear()

    MESSAGE_HANDLERS = {
        CLIENT_REQUEST: _on_client_request,
        SERVER_RESPONSE: _on_server_response,
    }
