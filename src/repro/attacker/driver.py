"""Paced probe streams.

:class:`ProbeDriver` fires connection probes at one target at a fixed
rate (ω probes per unit time-step, i.e. one probe every ``period/ω``).
It reconnects when the target's crash closes the connection — relying on
the forking daemon to resurrect the victim — and reports intrusion on an
``intrusion_ack``.

:class:`IndirectProber` is the 2-tier counterpart: it crafts probes as
client requests and submits them through the proxies (rotating across
them, the load-balancing evasion of §2.2), at the *paced* rate κ·ω that
keeps the attacker under the proxies' detection threshold.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional

from ..errors import ConfigurationError
from ..net.message import Message
from ..net.transport import Connection
from ..proxy.proxy import CLIENT_REQUEST
from .keytracker import KeyGuessTracker
from .probe import is_intrusion_ack, request_probe

if TYPE_CHECKING:  # pragma: no cover
    from .agent import AttackerProcess


class ProbeDriver:
    """One paced stream of direct connection probes at one target.

    Parameters
    ----------
    attacker:
        The orchestrating attacker process (receives connection events).
    target:
        Name of the node under attack.
    pool:
        Guess tracker of the target's randomization instance.
    interval:
        Simulated time between probes (``period / ω``).
    initiator:
        Connection source address; defaults to the attacker itself.
        Launch-pad streams pass a compromised proxy's name here.
    """

    __slots__ = (
        "attacker",
        "target",
        "pool",
        "interval",
        "initiator",
        "connection",
        "active",
        "probes_sent",
        "reconnects",
        "_last_guess",
        "_schedule_fast",
        "_net",
        "_target_process",
    )

    def __init__(
        self,
        attacker: "AttackerProcess",
        target: str,
        pool: KeyGuessTracker,
        interval: float,
        initiator: Optional[str] = None,
    ) -> None:
        if interval <= 0:
            raise ConfigurationError(f"probe interval must be positive, got {interval}")
        self.attacker = attacker
        self.target = target
        self.pool = pool
        self.interval = interval
        self.initiator = initiator or attacker.name
        self.connection: Optional[Connection] = None
        self.active = False
        self.probes_sent = 0
        self.reconnects = 0
        self._last_guess: Optional[int] = None
        self._schedule_fast = attacker.sim.schedule_fast  # per-probe hot call
        self._net = attacker.network
        self._target_process = None  # bound at first successful connect

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the probe loop."""
        if self.active:
            return
        self.active = True
        self._schedule_fast(self.interval, self._fire)

    def stop(self) -> None:
        """Stop probing and drop the connection."""
        self.active = False
        connection = self.connection
        if connection is not None:
            if connection.open:
                connection.close(closed_by=self.initiator)
            self.attacker.unregister_connection(connection)
        self.connection = None

    # ------------------------------------------------------------------
    def _fire(self) -> None:
        if not self.active:
            return
        attacker = self.attacker
        pool = self.pool
        known = pool.known_key
        if known is None and len(pool._tried) >= pool._size:  # exhausted
            # Defensive: in SO mode against an unlucky space the pool can
            # drain; the attack has then provably failed for this instance.
            self.active = False
            attacker._on_stream_dead()
            return
        connection = self.connection
        if connection is None or not connection.open:
            if connection is not None:
                # The old stream died (its closure is our crash
                # observation); retire its routing entry here instead of
                # paying a notification event per crash
                # (AttackerProcess.unregister_connection, inlined).
                attacker._by_connection.pop(connection.conn_id, None)
            connection = self.connection = attacker.network.connect(
                self.initiator, self.target
            )
            if connection is not None:
                self.reconnects += 1
                attacker.register_connection(connection, self)
                if self._target_process is None:
                    # The registry is append-only: resolve once, deliver
                    # by object reference from then on.
                    self._target_process = self._net.process(self.target)
        if connection is not None:
            if known is not None:
                # Re-exploitation: recovery did not change the key, so
                # the discovered key works instantly (SO semantics).
                guess = known
            else:
                guess = pool.next_guess()
            self._last_guess = guess
            # Inlined Connection.send + Network.deliver_on_connection
            # fast path: the connection is open (checked above), our
            # peer is always the target, and the per-probe delivery
            # event carries the bare guess (no payload to build or
            # parse) and is pushed without intermediate frames.
            connection.bytes_exchanged += 1
            net = self._net
            fixed = net._fixed_delay
            self._schedule_fast(
                fixed if fixed is not None else net.latency.sample(net._rng),
                net.deliver_probe_to,
                connection,
                self._target_process,
                guess,
            )
            self.probes_sent += 1
            attacker.probes_sent_direct += 1
        self._schedule_fast(self.interval, self._fire)

    # -- events routed back by the attacker ------------------------------
    # (There is deliberately no on_closed hook: the driver observes a
    # crash-induced closure itself, via ``connection.open`` at its next
    # fire — see AttackerProcess.unregister_connection.)
    def on_data(self, connection: Connection, payload) -> None:
        """Intrusion acks confirm the in-flight guess was the key."""
        if is_intrusion_ack(payload) and self._last_guess is not None:
            self.pool.record_success(self._last_guess)


class IndirectProber:
    """Paced request-path probing through the proxy tier.

    Parameters
    ----------
    attacker:
        Orchestrating attacker process.
    proxies:
        Proxy addresses to rotate across.
    pool:
        Guess tracker of the *server* randomization instance.
    interval:
        Mean time between indirect probes (``period / (κ·ω)``).
    identities:
        Number of client identities to rotate through (source spoofing;
        1 = honest single source, which per-source frequency analysis
        can eventually pin down).
    pacing_rng:
        When given, each gap is jittered uniformly over
        ``[0.5, 1.5]·interval`` (same long-run rate).  Only the *rate*
        of the stream matters to the detection threshold; exact
        periodicity, by contrast, phase-locks the request path to the
        direct/launch-pad probe grid whenever κ is rational in ω, and
        the stream then systematically collides with the primary
        crashes its co-streams cause — a discrete-event artifact the §4
        model's independent-streams assumption excludes.  The attack
        orchestrator always passes a stream; ``None`` keeps strict
        periodicity (unit tests).
    """

    __slots__ = (
        "attacker",
        "proxies",
        "pool",
        "interval",
        "identities",
        "pacing_rng",
        "active",
        "probes_sent",
        "_turn",
        "_jitter_buffer",
    )

    #: Pacing-jitter draws pre-pulled per chunk.  The pacing stream has
    #: exactly one consumer (this prober) and one call type
    #: (``random()``), so chunked pulls replay the identical value
    #: sequence the per-probe calls would produce — bit-stable pacing,
    #: amortized RNG dispatch.
    PACING_CHUNK = 256

    def __init__(
        self,
        attacker: "AttackerProcess",
        proxies: list[str],
        pool: KeyGuessTracker,
        interval: float,
        identities: int = 1,
        pacing_rng: Optional[random.Random] = None,
    ) -> None:
        if interval <= 0:
            raise ConfigurationError(f"probe interval must be positive, got {interval}")
        if not proxies:
            raise ConfigurationError("indirect probing needs at least one proxy")
        self.attacker = attacker
        self.proxies = list(proxies)
        self.pool = pool
        self.interval = interval
        self.identities = max(1, identities)
        self.pacing_rng = pacing_rng
        self.active = False
        self.probes_sent = 0
        self._turn = 0
        self._jitter_buffer: list[float] = []

    def _next_delay(self) -> float:
        rng = self.pacing_rng
        if rng is None:
            return self.interval
        buffer = self._jitter_buffer
        if not buffer:
            # Refill in reverse so pop() returns draws in stream order.
            buffer.extend(rng.random() for _ in range(self.PACING_CHUNK))
            buffer.reverse()
        return self.interval * (0.5 + buffer.pop())

    def start(self) -> None:
        """Begin the indirect probe loop."""
        if self.active:
            return
        self.active = True
        self.attacker.sim.schedule_fast(self._next_delay(), self._fire)

    def stop(self) -> None:
        """Stop the loop."""
        self.active = False

    def _fire(self) -> None:
        if not self.active:
            return
        attacker = self.attacker
        pool = self.pool
        if pool.exhausted:
            self.active = False
            attacker._on_stream_dead()
            return
        guess = pool.next_guess()
        identity = attacker.name
        if self.identities > 1:
            identity = f"{attacker.name}~{self._turn % self.identities}"
        payload = request_probe(guess, identity)
        proxy = self.proxies[self._turn % len(self.proxies)]
        self._turn += 1
        if attacker.network.knows(proxy):
            attacker.network.send(
                Message(attacker.name, proxy, CLIENT_REQUEST, payload)
            )
        self.probes_sent += 1
        attacker.probes_sent_indirect += 1
        attacker.sim.schedule_fast(self._next_delay(), self._fire)
