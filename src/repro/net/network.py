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
Delivery calls the receiver's :attr:`~repro.sim.process.SimProcess.MESSAGE_HANDLERS`
entry directly; only receivers that override ``handle_message``
(decided once, at registration) are called through it.  A crash tears
down the endpoint's connections in one pass over its table, eliding
each notification that would reach the base no-op
``on_connection_closed`` and scheduling the rest.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping, Optional

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
_BASE_MESSAGE_HANDLER = SimProcess.handle_message


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
        "_handlers",
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
        #: Name → ``MESSAGE_HANDLERS`` table of each process that does
        #: not override ``handle_message``; delivery to any other name
        #: (an override, an alias) goes through ``handle_message``.
        self._handlers: dict[str, Mapping] = {}
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
        cls = type(process)
        if (
            cls.handle_message is _BASE_MESSAGE_HANDLER
            and "handle_message" not in process.__dict__
        ):
            self._handlers[process.name] = cls.MESSAGE_HANDLERS
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
        dst = message.dst
        process = self._processes.get(dst)
        if process is None:
            process = self._resolve(dst)
        if process is None or process.state is not _RUNNING:
            self.messages_dropped += 1
            return
        allowed = process.allowed_senders  # admission control, inlined
        if allowed is not None and message.src not in allowed:
            self.messages_dropped += 1
            return
        self.messages_delivered += 1
        table = self._handlers.get(dst)
        if table is None:
            process.handle_message(message)
        else:  # SimProcess.handle_message, inlined
            handler = table.get(message.mtype)
            if handler is not None:
                handler(process, message)

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
        latency/loss there, in per-message order).  While no partition
        is in force, a group of registered names is accepted in one
        membership pass; aliases, unknown names and partitions take the
        per-destination loop.

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
        partitioned = self._partitioned
        if not partitioned:
            # The group is sent as a copy: the caller may reuse its list.
            for dst in dsts:
                if dst not in processes:
                    break
            else:
                if dsts:
                    self.messages_sent += len(dsts)
                    self.sim.schedule_fast(
                        self._fixed_delay,
                        self._deliver_multi,
                        Message(src, dsts[0], mtype, payload),
                        list(dsts),
                    )
                return
        aliases = self._aliases
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
        tables = self._handlers
        src = message.src
        mtype = message.mtype
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
            table = tables.get(dst)
            if table is None:
                process.handle_message(message)
            else:
                handler = table.get(mtype)
                if handler is not None:
                    handler(process, message)

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
        if target is None:
            return None
        return self.connect_process(initiator, target)

    def connect_process(
        self, initiator: str, target: SimProcess
    ) -> Optional[Connection]:
        """:meth:`connect` to an already resolved, registered ``target``.

        ``initiator`` must be a registered name.  Probe drivers reconnect
        at crash rate through this, with no name resolution.
        """
        if target.state is not _RUNNING:
            return None
        responder = target.name
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

    # ------------------------------------------------------------------
    def _on_endpoint_down(self, process: SimProcess) -> None:
        """Crash/reboot/stop listener: tear down the endpoint's connections.

        Runs once per probe-induced crash, so it does in one pass, in
        opening order, what :meth:`connection_closed` does with
        ``closed_by=None`` (same elision rule, initiator notified first),
        and clears the crashed end's table once at the end.
        """
        name = process.name
        connections = self._connections
        conns = connections[name]
        if not conns:
            return
        fixed = self._fixed_delay is not None
        notify = self._close_notify
        elided = 0
        for connection in conns:
            if not connection.open:
                continue
            connection.open = False
            initiator = connection.initiator
            responder = connection.responder
            peer = responder if initiator == name else initiator
            if peer != name:
                connections[peer].pop(connection, None)
            sinks = connection._sinks
            for end in (initiator, responder):
                if fixed and end not in notify and (sinks is None or end not in sinks):
                    elided += 1
                else:
                    self.sim.schedule_fast(
                        self._delay(), self._notify_closed, end, connection
                    )
        conns.clear()
        self.events_elided += elided
