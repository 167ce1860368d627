"""The simulated network connecting all processes.

Two communication styles are provided:

* **Datagrams** (:meth:`Network.send`) — used by the replication and proxy
  protocols.  Fire-and-forget with sampled latency, optional loss, and
  optional partitions.
* **Connections** (:meth:`Network.connect`) — TCP-like streams used by
  attackers, whose *close-on-crash* behaviour is the crash-observation
  channel that de-randomization attacks need (see
  :mod:`repro.net.transport`).

Hot-path notes: every probe and protocol message crosses this file
twice (send + deliver), so the common configuration — fixed latency, no
partitions, no drops — is special-cased: the per-message cost is one
dict lookup, one no-handle schedule, and no latency-model call at all.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from ..errors import NetworkError
from ..sim.engine import Simulator
from ..sim.process import ProcessState, SimProcess
from .latency import FixedLatency, LatencyModel
from .message import Message
from .transport import Connection

if TYPE_CHECKING:  # pragma: no cover
    from ..randomization.node import RandomizedProcess

_RUNNING = ProcessState.RUNNING
_BASE_CLOSE_HANDLER = SimProcess.on_connection_closed


class Network:
    """Routes datagrams and manages connections between processes.

    Parameters
    ----------
    sim:
        The driving simulator.
    latency:
        Model sampling one-way delivery delays (default: fixed 1 ms).
    drop_rate:
        Probability that any datagram is silently lost.
    """

    __slots__ = (
        "sim",
        "latency",
        "drop_rate",
        "_rng",
        "_fixed_delay",
        "_processes",
        "_aliases",
        "_close_notify",
        "_connections",
        "_partitioned",
        "messages_sent",
        "messages_delivered",
        "messages_dropped",
        "events_elided",
    )

    def __init__(
        self,
        sim: Simulator,
        latency: LatencyModel | None = None,
        drop_rate: float = 0.0,
    ) -> None:
        if not 0.0 <= drop_rate < 1.0:
            raise NetworkError(f"drop_rate must be in [0, 1), got {drop_rate}")
        self.sim = sim
        self.latency = latency or FixedLatency()
        self.drop_rate = drop_rate
        # Fixed-latency fast path: a FixedLatency model consumes no RNG,
        # so its constant can be inlined without perturbing any stream.
        self._fixed_delay: Optional[float] = (
            self.latency.delay if type(self.latency) is FixedLatency else None
        )
        self._rng = sim.rng.stream("network")
        self._processes: dict[str, SimProcess] = {}
        self._aliases: dict[str, str] = {}
        #: Names whose process class overrides ``on_connection_closed``
        #: (cached at registration): only these get closure events under
        #: the fixed-latency elision — see :meth:`connection_closed`.
        self._close_notify: set[str] = set()
        #: Open connections per endpoint, as insertion-ordered dicts
        #: (values unused): crash teardown walks them in opening order,
        #: not in an order set by object addresses.
        self._connections: dict[str, dict[Connection, None]] = {}
        self._partitioned: set[frozenset[str]] = set()
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.events_elided = 0  # provably-inert notifications never scheduled

    def _delay(self) -> float:
        """One sampled one-way latency (constant-folded when fixed)."""
        fixed = self._fixed_delay
        return fixed if fixed is not None else self.latency.sample(self._rng)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, process: SimProcess) -> None:
        """Attach a process to the network under its name."""
        if process.name in self._processes:
            raise NetworkError(f"duplicate process name {process.name!r}")
        self._processes[process.name] = process
        self._connections.setdefault(process.name, {})
        if (
            type(process).on_connection_closed is not _BASE_CLOSE_HANDLER
            or "on_connection_closed" in process.__dict__
        ):
            self._close_notify.add(process.name)
        process.add_crash_listener(self._on_endpoint_down)

    def register_alias(self, alias: str, owner: str) -> None:
        """Bind an extra network identity to an existing process.

        Datagrams addressed to ``alias`` are delivered to ``owner``.
        This is how spoofed client identities are modelled: the attacker
        machine answers for many source addresses.
        """
        if alias in self._processes or alias in self._aliases:
            raise NetworkError(f"name {alias!r} already in use")
        if owner not in self._processes:
            raise NetworkError(f"unknown alias owner {owner!r}")
        self._aliases[alias] = owner

    def _resolve(self, name: str) -> Optional[SimProcess]:
        process = self._processes.get(name)
        if process is None:
            owner = self._aliases.get(name)
            if owner is not None:
                process = self._processes.get(owner)
        return process

    def process(self, name: str) -> SimProcess:
        """Look up a registered process by name (aliases resolve)."""
        process = self._resolve(name)
        if process is None:
            raise NetworkError(f"unknown process {name!r}")
        return process

    def knows(self, name: str) -> bool:
        """True if ``name`` is registered (directly or as an alias)."""
        return name in self._processes or name in self._aliases

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------
    def partition(self, a: str, b: str) -> None:
        """Block traffic (both directions) between ``a`` and ``b``."""
        self._partitioned.add(frozenset((a, b)))

    def heal(self, a: str, b: str) -> None:
        """Remove a partition between ``a`` and ``b`` if present."""
        self._partitioned.discard(frozenset((a, b)))

    def is_blocked(self, a: str, b: str) -> bool:
        """True if traffic between ``a`` and ``b`` is partitioned away."""
        partitioned = self._partitioned
        return bool(partitioned) and frozenset((a, b)) in partitioned

    # ------------------------------------------------------------------
    # Datagrams
    # ------------------------------------------------------------------
    def send(self, message: Message) -> None:
        """Send a datagram; it arrives after one sampled latency.

        Messages to unknown destinations raise; messages across a
        partition or unlucky under ``drop_rate`` are silently dropped,
        like UDP.
        """
        dst = message.dst
        if dst not in self._processes and dst not in self._aliases:
            raise NetworkError(f"message to unknown destination {dst!r}")
        self.messages_sent += 1
        if self._partitioned and self.is_blocked(message.src, dst):
            self.messages_dropped += 1
            return
        if self.drop_rate > 0.0 and self._rng.random() < self.drop_rate:
            self.messages_dropped += 1
            return
        fixed = self._fixed_delay
        self.sim.schedule_fast(
            fixed if fixed is not None else self.latency.sample(self._rng),
            self._deliver,
            message,
        )

    def _deliver(self, message: Message) -> None:
        process = self._processes.get(message.dst)
        if process is None:
            process = self._resolve(message.dst)
        if process is None or process.state is not _RUNNING:
            self.messages_dropped += 1
            return
        allowed = process.allowed_senders  # admission control, inlined
        if allowed is not None and message.src not in allowed:
            self.messages_dropped += 1
            return
        self.messages_delivered += 1
        process.handle_message(message)

    def broadcast(self, src: str, dsts: list[str], mtype: str, payload: dict) -> None:
        """Send one datagram with identical content to every name in ``dsts``."""
        for dst in dsts:
            self.send(Message(src=src, dst=dst, mtype=mtype, payload=payload))

    def multicast(
        self, src: str, dsts: list[str], mtype: str, payload, strict: bool = True
    ) -> None:
        """Send one identical datagram to several destinations at once.

        Protocol fan-outs (heartbeats, state updates, proxy→server
        forwards, SMR phase broadcasts) dominate the datagram volume, so
        under the common configuration — fixed latency, no loss — the
        whole group shares ONE delivery event and ONE message object.
        This is exactly order-equivalent to a per-destination ``send``
        loop: those sends are issued back to back, so their deliveries
        land at the same timestamp with consecutive sequence numbers,
        i.e. consecutively in ``dsts`` order — precisely how
        ``_deliver_multi`` walks the group.  Sampled-latency or lossy
        networks fall back to the loop (each message must draw its own
        latency/loss there, in per-message order).

        ``strict`` keeps ``send``'s misconfiguration guard: an unknown
        destination raises.  Callers that previously filtered with
        :meth:`knows` (the proxy relay, whose server list may outlive a
        deregistration-free network only in tests) pass ``strict=False``
        to skip unknown names silently instead.
        """
        if self._fixed_delay is None or self.drop_rate > 0.0:
            for dst in dsts:
                if strict or self.knows(dst):
                    self.send(Message(src=src, dst=dst, mtype=mtype, payload=payload))
            return
        processes = self._processes
        aliases = self._aliases
        partitioned = self._partitioned
        targets = []
        sent = 0
        for dst in dsts:
            if dst not in processes and dst not in aliases:
                if strict:
                    raise NetworkError(f"message to unknown destination {dst!r}")
                continue
            sent += 1
            if partitioned and frozenset((src, dst)) in partitioned:
                self.messages_dropped += 1
                continue
            targets.append(dst)
        self.messages_sent += sent
        if targets:
            self.sim.schedule_fast(
                self._fixed_delay,
                self._deliver_multi,
                Message(src=src, dst=targets[0], mtype=mtype, payload=payload),
                targets,
            )

    def _deliver_multi(self, message: Message, dsts: list[str]) -> None:
        """Deliver one shared message to each group member in order."""
        processes = self._processes
        src = message.src
        for dst in dsts:
            process = processes.get(dst)
            if process is None:
                process = self._resolve(dst)
            if process is None or process.state is not _RUNNING:
                self.messages_dropped += 1
                continue
            allowed = process.allowed_senders
            if allowed is not None and src not in allowed:
                self.messages_dropped += 1
                continue
            self.messages_delivered += 1
            process.handle_message(message)

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    def connect(self, initiator: str, responder: str) -> Optional[Connection]:
        """Open a connection; returns ``None`` if refused.

        A connection is refused when the responder is unknown, not
        currently running, or partitioned away from the initiator.
        """
        processes = self._processes
        if initiator not in processes:
            raise NetworkError(f"unknown initiator {initiator!r}")
        target = processes.get(responder)
        if target is None or target.state is not _RUNNING:
            return None
        if self._partitioned and self.is_blocked(initiator, responder):
            return None
        allowed = target.allowed_connection_initiators  # admission, inlined
        if allowed is not None and initiator not in allowed:
            return None
        connection = Connection(self, initiator, responder)
        connections = self._connections
        connections[initiator][connection] = None
        connections[responder][connection] = None
        return connection

    def deliver_on_connection(
        self, connection: Connection, dst: str, payload: Any
    ) -> None:
        """Deliver connection data to ``dst`` after one latency."""
        fixed = self._fixed_delay
        self.sim.schedule_fast(
            fixed if fixed is not None else self.latency.sample(self._rng),
            self._deliver_connection_data,
            connection,
            dst,
            payload,
        )

    def deliver_probe_to(
        self, connection: Connection, process: "RandomizedProcess", guess: int
    ) -> None:
        """Probe-stream delivery fast path: hand ``guess`` to ``process``.

        Scheduled by :class:`repro.attacker.driver.ProbeDriver` with the
        bare guess, not a ``{"kind": "probe", ...}`` payload.  Probe
        drivers target one fixed
        :class:`~repro.randomization.node.RandomizedProcess` per stream,
        the registry is append-only, and probe targets never carry sink
        overrides — so the name resolution and sink lookup of
        :meth:`_deliver_connection_data` and the payload parse of
        ``handle_connection_data`` are skipped, and the probe goes
        straight to ``receive_probe``, the same entry point the parsed
        payload reaches.
        """
        if connection.open and process.state is _RUNNING:
            process.receive_probe(guess, connection)

    def _deliver_connection_data(
        self, connection: Connection, dst: str, payload: Any
    ) -> None:
        if not connection.open:
            return
        sinks = connection._sinks
        process = None if sinks is None else sinks.get(dst)
        if process is None:
            process = self._processes.get(dst)
        if process is None or process.state is not _RUNNING:
            return
        process.handle_connection_data(connection, payload)

    def connection_closed(self, connection: Connection, closed_by: str | None) -> None:
        """Propagate a close: notify the peer (or both ends) after latency.

        Crash-driven closes notify both endpoints, but most endpoints
        inherit the base no-op ``on_connection_closed`` (only attackers
        observe closures) — under a fixed latency model, where skipping
        a delivery consumes no RNG, those provably-inert notifications
        are elided instead of scheduled.  A sink override or a
        subclass/instance handler always gets its event.
        """
        connections = self._connections
        schedule_fast = self.sim.schedule_fast
        fixed = self._fixed_delay is not None
        sinks = connection._sinks
        notify = self._close_notify
        for name in (connection.initiator, connection.responder):
            conns = connections.get(name)
            if conns is not None:
                conns.pop(connection, None)
            if name == closed_by:
                continue
            if fixed and name not in notify and (sinks is None or name not in sinks):
                self.events_elided += 1
                continue  # would reach the base no-op handler: inert
            schedule_fast(self._delay(), self._notify_closed, name, connection)

    def _notify_closed(self, name: str, connection: Connection) -> None:
        sinks = connection._sinks
        process = None if sinks is None else sinks.get(name)
        if process is None:
            process = self._processes.get(name)
        if process is not None and process.state is _RUNNING:
            process.on_connection_closed(connection)

    def connections_of(self, name: str) -> set[Connection]:
        """Snapshot of the open connections of ``name``."""
        return set(self._connections.get(name, ()))

    # ------------------------------------------------------------------
    def _on_endpoint_down(self, process: SimProcess) -> None:
        """Crash/reboot/stop listener: tear down the endpoint's connections.

        Runs once per probe-induced crash, so :meth:`Connection.close`
        is inlined: each connection is marked closed and handed to
        :meth:`connection_closed` (both ends notified), in the order the
        connections were opened.  That call removes the connection from
        the very dict being drained, hence the snapshot.
        """
        conns = self._connections.get(process.name)
        if conns:
            for connection in list(conns):
                if connection.open:
                    connection.open = False
                    self.connection_closed(connection, None)
            conns.clear()
