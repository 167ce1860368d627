"""TCP-like connections with crash-observable closure.

De-randomization attacks (paper §2.1, citing Shacham et al. and Sovarel et
al.) rely on the attacker *observing* a process crash on the target
machine: the TCP connection linking attacker and target closes when the
probed process dies.  :class:`Connection` reproduces exactly that
observation channel — when an endpoint crashes, reboots or stops, the
network closes all of its connections and notifies the peers after one
network latency.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.process import SimProcess
    from .network import Network


class Connection:
    """A bidirectional stream between two processes.

    Connections are created through :meth:`repro.net.network.Network.connect`.
    Either endpoint may :meth:`send` payloads (delivered to the peer's
    ``handle_connection_data``) or :meth:`close` the stream.  Closure —
    explicit or caused by an endpoint crash — is signalled to the other
    endpoint via ``on_connection_closed``.

    ``__slots__``-based: attackers churn through one connection per
    crash observation, so connections are allocated at probe rate.
    """

    __slots__ = (
        "network",
        "initiator",
        "responder",
        "open",
        "_sinks",
    )

    def __init__(self, network: "Network", initiator: str, responder: str) -> None:
        self.network = network
        self.initiator = initiator
        self.responder = responder
        self.open = True
        #: Lazily created: almost no connection has a sink override.
        self._sinks: Optional[dict[str, "SimProcess"]] = None

    def attach_sink(self, endpoint: str, process: "SimProcess") -> None:
        """Route this connection's events for ``endpoint`` to ``process``.

        Used to model a remote shell: an attacker who compromised a proxy
        opens connections *from* the proxy's address but handles the
        traffic himself.
        """
        if endpoint not in (self.initiator, self.responder):
            raise ValueError(f"{endpoint} is not an endpoint of {self!r}")
        if self._sinks is None:
            self._sinks = {}
        self._sinks[endpoint] = process

    # ------------------------------------------------------------------
    def peer_of(self, name: str) -> str:
        """Return the name of the other endpoint."""
        if name == self.initiator:
            return self.responder
        if name == self.responder:
            return self.initiator
        raise ValueError(f"{name} is not an endpoint of {self!r}")

    def send(self, sender: str, payload: Any) -> bool:
        """Send ``payload`` from ``sender`` to the peer.

        Returns ``False`` (payload silently lost) if the connection has
        already closed — mirroring a write on a dying socket.
        """
        if not self.open:
            return False
        if sender == self.initiator:
            peer = self.responder
        elif sender == self.responder:
            peer = self.initiator
        else:
            raise ValueError(f"{sender} is not an endpoint of {self!r}")
        self.network.deliver_on_connection(self, peer, payload)
        return True

    def close(self, closed_by: str | None = None) -> None:
        """Close the connection and notify the peer(s).

        ``closed_by`` names the endpoint initiating the close (its peer is
        notified); ``None`` means the network itself tore the connection
        down (both endpoints are notified), as happens on a crash.
        """
        if not self.open:
            return
        self.open = False
        self.network.connection_closed(self, closed_by)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.open else "closed"
        return f"<Connection {self.initiator}<->{self.responder} {state}>"
