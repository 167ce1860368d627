"""The trusted, read-only name server of the FORTRESS architecture.

Paper §3: clients may know the proxies' addresses and public keys, the
servers' *indices* (not their addresses) and public keys, the replication
type of the server tier and, for SMR, the fault threshold f.  This is
facilitated through a trusted name server that is read-only for clients.
Servers accept messages only from proxies and the name server.

The name server is deliberately *not* a randomized process: it is trusted
infrastructure, outside the attack surface considered by the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..net.message import Message
from ..net.network import Network
from ..sim.engine import Simulator
from ..sim.process import SimProcess

NS_LOOKUP = "ns_lookup"
NS_INFO = "ns_info"


@dataclass
class Directory:
    """What the name server publishes to clients.

    Attributes
    ----------
    proxy_addresses:
        Network names of the proxies (clients talk only to these in a
        2-tier system; empty in 1-tier systems).
    proxy_keys:
        Proxy name → public key.
    server_indices:
        The server tier's indices, in order.  Addresses are *not*
        published when the tier is fortified.
    server_keys:
        Server index → public key.
    server_addresses:
        Server name by index — published only for 1-tier systems, where
        clients contact servers directly.
    replication:
        ``"primary-backup"`` or ``"smr"``.
    fault_threshold:
        f, published when replication is SMR.
    """

    proxy_addresses: list[str] = field(default_factory=list)
    proxy_keys: dict[str, str] = field(default_factory=dict)
    server_indices: list[int] = field(default_factory=list)
    server_keys: dict[int, str] = field(default_factory=dict)
    server_addresses: dict[int, str] = field(default_factory=dict)
    replication: str = "primary-backup"
    fault_threshold: int = 0

    def as_payload(self) -> dict:
        """Serialize for an ``ns_info`` reply."""
        return {
            "proxy_addresses": list(self.proxy_addresses),
            "proxy_keys": dict(self.proxy_keys),
            "server_indices": list(self.server_indices),
            "server_keys": dict(self.server_keys),
            "server_addresses": dict(self.server_addresses),
            "replication": self.replication,
            "fault_threshold": self.fault_threshold,
        }


class NameServer(SimProcess):
    """Serves the directory to clients; read-only by construction.

    Parameters
    ----------
    sim:
        Driving simulator.
    network:
        Network to answer lookups on.
    directory:
        The published directory (installed by the system builder).
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        directory: Optional[Directory] = None,
        name: str = "nameserver",
    ) -> None:
        super().__init__(sim, name, respawn_delay=None)
        self.network = network
        self.directory = directory or Directory()
        self.lookups_served = 0

    def _on_lookup(self, message: Message) -> None:
        self.lookups_served += 1
        self.network.send(
            Message(self.name, message.src, NS_INFO, self.directory.as_payload())
        )

    MESSAGE_HANDLERS = {NS_LOOKUP: _on_lookup}
