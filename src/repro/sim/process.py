"""Process model for simulated nodes.

A :class:`SimProcess` is anything that occupies a machine in the simulated
deployment: servers, proxies, the name server, clients and attackers.  It
has an availability state (running / crashed / rebooting / stopped), an
orthogonal *compromised* flag, and hooks that subclasses override to
implement protocol behaviour.

Crash-and-respawn follows the forking-daemon model from the paper (§2.1):
a crashed server process is respawned by its daemon after a short delay,
and — because the child is *forked*, not re-executed — it inherits the
parent's randomization key.  Keys change only on reboot (re-randomization
or recovery), which is driven by :mod:`repro.randomization.obfuscation`.

Listeners are stored as tuples and replaced wholesale on registration:
notifying N listeners then iterates a snapshot without copying a list
per crash/state-change (the crash path runs at probe rate), and a
process with no listeners pays a single truthiness check.  Registration
during notification affects only subsequent notifications — the same
semantics the previous copy-on-notify list implementation had.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Mapping, Optional

from ..core.timing import DEFAULT_RESPAWN_DELAY
from ..errors import SimulationError
from .engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from ..net.message import Message

Listener = Callable[["SimProcess"], None]


class ProcessState(enum.Enum):
    """Availability state of a simulated process."""

    RUNNING = "running"
    CRASHED = "crashed"
    REBOOTING = "rebooting"
    STOPPED = "stopped"


#: Bound once: a module global is several times cheaper to read than an
#: enum class attribute, and the crash/respawn pair runs at probe rate.
_RUNNING = ProcessState.RUNNING
_CRASHED = ProcessState.CRASHED


class SimProcess:
    """Base class for all simulated nodes.

    Parameters
    ----------
    sim:
        The simulator that drives this process.
    name:
        Globally unique address of the process on the network.
    respawn_delay:
        Delay after a crash before the forking daemon restores the
        process, or ``None`` if the process has no forking daemon (it
        then stays crashed until rebooted externally).  Deployments
        thread this from a :class:`~repro.core.timing.TimingSpec`; the
        default is the paper-realistic
        :data:`~repro.core.timing.DEFAULT_RESPAWN_DELAY`.
    """

    __slots__ = (
        "sim",
        "name",
        "respawn_delay",
        "allowed_senders",
        "allowed_connection_initiators",
        "state",
        "compromised",
        "crash_count",
        "respawn_count",
        "reboot_count",
        "_crash_listeners",
        "_state_listeners",
        "_compromise_listeners",
        "_in_outage",
        "_outage_saved_delay",
        "__dict__",  # subclasses carry protocol state of their own
    )

    #: Message type → handler ``fn(self, message)``.  Types without an
    #: entry are ignored.  :class:`repro.net.network.Network` calls the
    #: entries directly unless the class or instance overrides
    #: :meth:`handle_message`.
    MESSAGE_HANDLERS: ClassVar[Mapping[str, Callable[[Any, "Message"], None]]] = {}

    #: Whether the class overrides :meth:`on_respawn` (set once per
    #: class): respawns run at probe rate, and most classes inherit the
    #: no-op hook, whose call is then skipped.
    _respawn_hook: ClassVar[bool] = False

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._respawn_hook = cls.on_respawn is not SimProcess.on_respawn

    def __init__(
        self,
        sim: Simulator,
        name: str,
        respawn_delay: Optional[float] = DEFAULT_RESPAWN_DELAY,
    ) -> None:
        self.sim = sim
        self.name = name
        self.respawn_delay = respawn_delay
        #: When not ``None``, only these senders may reach us with
        #: datagrams ("servers accept messages only from proxies and NS").
        self.allowed_senders: Optional[set[str]] = None
        #: When not ``None``, only these initiators may open connections
        #: to us (a fortified server is unreachable from outside).
        self.allowed_connection_initiators: Optional[set[str]] = None
        self.state = ProcessState.RUNNING
        self.compromised = False
        self.crash_count = 0
        self.respawn_count = 0
        self.reboot_count = 0
        self._crash_listeners: tuple[Listener, ...] = ()
        self._state_listeners: tuple[Listener, ...] = ()
        self._compromise_listeners: tuple[Listener, ...] = ()
        self._in_outage = False
        self._outage_saved_delay: Optional[float] = respawn_delay

    # ------------------------------------------------------------------
    # State queries
    # ------------------------------------------------------------------
    @property
    def is_available(self) -> bool:
        """True when the process can receive and handle messages."""
        return self.state is ProcessState.RUNNING

    def accepts_message_from(self, src: str) -> bool:
        """Datagram admission control (see ``allowed_senders``)."""
        return self.allowed_senders is None or src in self.allowed_senders

    def accepts_connection_from(self, initiator: str) -> bool:
        """Connection admission control (see
        ``allowed_connection_initiators``)."""
        return (
            self.allowed_connection_initiators is None
            or initiator in self.allowed_connection_initiators
        )

    # ------------------------------------------------------------------
    # Listeners
    # ------------------------------------------------------------------
    def add_crash_listener(self, listener: Listener) -> None:
        """Register a callback invoked (synchronously) whenever we crash."""
        self._crash_listeners += (listener,)

    def add_state_listener(self, listener: Listener) -> None:
        """Register a callback invoked on every state transition."""
        self._state_listeners += (listener,)

    def add_compromise_listener(self, listener: Listener) -> None:
        """Register a callback invoked when the process is compromised."""
        self._compromise_listeners += (listener,)

    def _set_state(self, state: ProcessState) -> None:
        self.state = state
        listeners = self._state_listeners
        if listeners:
            for listener in listeners:
                listener(self)

    # ------------------------------------------------------------------
    # Crash / respawn (forking daemon)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Crash the process (e.g. an incorrectly guessed probe hit it).

        Crash listeners fire immediately — in particular, open connections
        close, which is the attacker's observation channel.  If the process
        has a forking daemon, a respawn is scheduled.
        """
        if self.state is not _RUNNING:
            return
        self.crash_count += 1
        self.state = _CRASHED  # _set_state, inlined (hot)
        listeners = self._state_listeners
        if listeners:
            for listener in listeners:
                listener(self)
        listeners = self._crash_listeners
        if listeners:
            for listener in listeners:
                listener(self)
        if self.respawn_delay is not None:
            self.sim.schedule_fast(self.respawn_delay, self._respawn)

    def _respawn(self) -> None:
        """Forking-daemon respawn: restore service, *preserving* the key.

        A respawn scheduled *before* an outage began must not revive the
        powered-off machine, so mid-outage respawns are dropped (the
        daemon itself is down with the machine).
        """
        if self.state is not _CRASHED or self._in_outage:
            return
        self.respawn_count += 1
        self.state = _RUNNING  # _set_state, inlined (hot)
        listeners = self._state_listeners
        if listeners:
            for listener in listeners:
                listener(self)
        if self._respawn_hook:
            self.on_respawn()

    def revive(self) -> None:
        """Bring a crashed process back up (an operator action, used by
        fault-injection plans to end an outage)."""
        self._respawn()

    # ------------------------------------------------------------------
    # Outages (machine down — nothing can restart it until it ends)
    # ------------------------------------------------------------------
    def begin_outage(self) -> None:
        """Take the machine down: the forking daemon cannot respawn it
        and refresh reboots cannot reach it until :meth:`end_outage`."""
        self._outage_saved_delay = self.respawn_delay
        self.respawn_delay = None
        self._in_outage = True
        self.crash()

    def end_outage(self) -> None:
        """Power the machine back on and restore its daemon."""
        if not self._in_outage:
            return
        self._in_outage = False
        self.respawn_delay = self._outage_saved_delay
        self.revive()

    # ------------------------------------------------------------------
    # Reboot (re-randomization / recovery)
    # ------------------------------------------------------------------
    def begin_reboot(self, duration: float = 0.0) -> None:
        """Take the process down for a reboot lasting ``duration``.

        Rebooting cleanses compromise: the attacker loses control of the
        node when its executable is replaced (paper §4, Definition 4
        context: control lasts "until re-randomization is applied").
        """
        if self.state is ProcessState.STOPPED:
            raise SimulationError(f"cannot reboot stopped process {self.name}")
        if self._in_outage:
            return  # a powered-off machine cannot be refreshed
        self.compromised = False
        self.reboot_count += 1
        if duration <= 0.0:
            self._set_state(ProcessState.RUNNING)
            self.on_reboot_complete()
            return
        self._set_state(ProcessState.REBOOTING)
        listeners = self._crash_listeners
        if listeners:
            for listener in listeners:
                listener(self)
        self.sim.schedule_fast(duration, self._finish_reboot)

    def _finish_reboot(self) -> None:
        if self.state is not ProcessState.REBOOTING:
            return
        self._set_state(ProcessState.RUNNING)
        self.on_reboot_complete()

    def stop(self) -> None:
        """Permanently remove the process from the simulation."""
        self._set_state(ProcessState.STOPPED)
        listeners = self._crash_listeners
        if listeners:
            for listener in listeners:
                listener(self)

    # ------------------------------------------------------------------
    # Compromise
    # ------------------------------------------------------------------
    def mark_compromised(self) -> None:
        """Record that an attacker now controls this process."""
        if self.state is ProcessState.STOPPED:
            return
        self.compromised = True
        self.on_compromised()
        listeners = self._compromise_listeners
        if listeners:
            for listener in listeners:
                listener(self)

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------
    def handle_message(self, message: "Message") -> None:
        """Handle a datagram: run its :attr:`MESSAGE_HANDLERS` entry."""
        handler = self.MESSAGE_HANDLERS.get(message.mtype)
        if handler is not None:
            handler(self, message)

    def handle_connection_data(self, connection, payload) -> None:
        """Handle data arriving on an open connection.  Override me."""

    def on_connection_closed(self, connection) -> None:
        """Notification that a connection we are party to closed."""

    def on_respawn(self) -> None:
        """Hook invoked after a forking-daemon respawn (if overridden)."""

    def on_reboot_complete(self) -> None:
        """Hook invoked after a reboot completes."""

    def on_compromised(self) -> None:
        """Hook invoked when the process becomes attacker-controlled."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = "!" if self.compromised else ""
        return f"<{type(self).__name__} {self.name} {self.state.value}{flag}>"
