"""The attack orchestrator.

:class:`AttackerProcess` runs the full campaign of the paper's §4 attack
model against a deployed system:

* **direct attacks** at every node it can reach (1-tier servers; the
  proxies of a 2-tier system), each a paced
  :class:`~repro.attacker.driver.ProbeDriver` at ω probes per step;
* **indirect attacks** at fortified servers, crafted as client requests
  and paced at κ·ω to stay under the proxies' detection threshold;
* **launch-pad attacks**: the moment a proxy is compromised, the
  attacker opens direct connections *from that proxy* to the servers
  and probes at full rate until re-randomization cleanses the proxy.

Key knowledge is organized in pools (see
:class:`~repro.attacker.keytracker.KeyGuessTracker`): identically
randomized servers share one pool; each diversely randomized node is its
own pool.  Against PO systems the attacker resets pools at every epoch —
his eliminations are worthless once keys are resampled.
"""

from __future__ import annotations

import random
from typing import Optional

from ..errors import ConfigurationError
from ..net.network import Network
from ..net.transport import Connection
from ..randomization.keyspace import KeySpace
from ..randomization.node import RandomizedProcess
from ..sim.engine import Simulator
from ..sim.process import SimProcess
from .driver import IndirectProber, ProbeDriver
from .keytracker import GuessBuffer, KeyGuessTracker

#: Simulated-time grace between "every probe stream is dead" and the
#: fast-forward stop, expressed in attacker periods.  It only needs to
#: cover in-flight probe chains (a handful of network latencies plus one
#: detection lag, all ≪ period by construction); one full period is a
#: generous upper bound.
FAST_FORWARD_GRACE_PERIODS = 1.0


class AttackerProcess(SimProcess):
    """An external adversary machine running de-randomization campaigns.

    Parameters
    ----------
    sim, network:
        Simulation substrates (the attacker is itself a network process —
        it must be reachable for connection events and error responses).
    keyspace:
        Key space of the defending randomization scheme.
    omega:
        Attacker strength: probes completed per unit time-step when
        attacking directly.
    period:
        Length of the unit time-step.
    reset_pools_on_epoch:
        ``True`` when attacking a PO system (fresh keys every epoch make
        eliminations worthless); ``False`` against SO systems.
    probe_pacing:
        Multiplier on every probe interval
        (:attr:`repro.core.timing.TimingSpec.probe_pacing`); 1.0 is the
        paper's pacing, larger values model a slower attacker.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        keyspace: KeySpace,
        omega: float,
        period: float = 1.0,
        name: str = "attacker",
        reset_pools_on_epoch: bool = False,
        probe_pacing: float = 1.0,
    ) -> None:
        super().__init__(sim, name, respawn_delay=None)
        self.network = network
        self.keyspace = keyspace
        self.omega = omega
        self.period = period
        self.reset_pools_on_epoch = reset_pools_on_epoch
        self.probe_pacing = probe_pacing
        self._rng: random.Random = sim.rng.stream(f"{name}:guesses")
        #: Chunked randrange pulls shared by every pool drawing from the
        #: guesses stream (bit-identical to per-probe draws; see
        #: :class:`~repro.attacker.keytracker.GuessBuffer`).
        self._guess_buffer = GuessBuffer(self._rng, keyspace.size)
        self._pools: dict[str, KeyGuessTracker] = {}
        self._drivers: list[ProbeDriver] = []
        self._coordinated_agents: dict[str, SimProcess] = {}
        self._indirect: list[IndirectProber] = []
        #: Keyed by the connection object (identity hash; dict order is
        #: insertion order, so no iteration order depends on addresses).
        self._by_connection: dict[Connection, ProbeDriver] = {}
        self._launchpad_servers: list[str] = []
        self._launchpad_pool_id: Optional[str] = None
        self._launchpad_drivers: dict[str, ProbeDriver] = {}  # proxy -> driver
        #: Currently compromised proxies, in compromise order (a dict,
        #: values unused: the launch pad goes to the first-compromised
        #: host, never to one picked by object address).
        self._launchpad_hosts: dict = {}
        self._watched_proxies: set = set()  # proxies with our state listener
        self._fast_forward = False
        self._ff_check_pending = False
        self.fast_forward_arms = 0
        self.probes_sent_direct = 0
        self.probes_sent_indirect = 0
        self.compromises_observed: list[tuple[float, str]] = []

    # ------------------------------------------------------------------
    # Pools
    # ------------------------------------------------------------------
    def pool(self, pool_id: str) -> KeyGuessTracker:
        """Return (creating on first use) the tracker for ``pool_id``."""
        tracker = self._pools.get(pool_id)
        if tracker is None:
            tracker = KeyGuessTracker(
                self.keyspace, self._rng, buffer=self._guess_buffer
            )
            self._guess_buffer.register(tracker)
            self._pools[pool_id] = tracker
        return tracker

    # ------------------------------------------------------------------
    # Campaign configuration
    # ------------------------------------------------------------------
    def attack_direct(
        self,
        target: RandomizedProcess,
        pool_id: Optional[str] = None,
        rate: Optional[float] = None,
    ) -> ProbeDriver:
        """Start a direct probe stream at ``target``.

        ``pool_id`` defaults to the target's own name (diverse
        randomization); pass a shared id for identically randomized
        groups.  ``rate`` defaults to ω.
        """
        driver = ProbeDriver(
            attacker=self,
            target=target.name,
            pool=self.pool(pool_id or target.name),
            interval=self.probe_pacing * self.period / (rate or self.omega),
        )
        self._watch(target)
        self._drivers.append(driver)
        driver.start()
        return driver

    def attack_direct_duty_cycled(
        self,
        target: RandomizedProcess,
        on_fraction: float,
        cycle_periods: float = 1.0,
        pool_id: Optional[str] = None,
        rate: Optional[float] = None,
    ) -> "ProbeDriver":
        """Start a stealth (duty-cycled) direct probe stream at ``target``.

        The stream probes at full rate during the first ``on_fraction``
        of every ``cycle_periods``-period window and stays silent for
        the rest (long-run rate ``on_fraction · ω``) — see
        :class:`~repro.attacker.strategies.DutyCycledProbeDriver`.
        """
        from .strategies import DutyCycledProbeDriver

        if not 0.0 < on_fraction <= 1.0:
            raise ConfigurationError(
                f"on_fraction must be in (0, 1], got {on_fraction}"
            )
        cycle = cycle_periods * self.period
        driver = DutyCycledProbeDriver(
            attacker=self,
            target=target.name,
            pool=self.pool(pool_id or target.name),
            interval=self.probe_pacing * self.period / (rate or self.omega),
            on_time=on_fraction * cycle,
            cycle_time=cycle,
        )
        self._watch(target)
        self._drivers.append(driver)
        driver.start()
        return driver

    def attack_direct_coordinated(
        self,
        target: RandomizedProcess,
        agents: int,
        pool_id: Optional[str] = None,
        rate: Optional[float] = None,
    ) -> list["ProbeDriver"]:
        """Split a direct attack on ``target`` across ``agents`` machines.

        Each cooperating agent (a distinct registered network endpoint —
        see :class:`~repro.attacker.strategies.CoordinatedAgent`) runs
        one stream at ``rate / agents``, start times staggered so the
        target sees one evenly paced aggregate stream of ``rate``.  All
        streams share the target's key pool through the orchestrator's
        guess buffer: the agents never duplicate a guess, and the probe
        sequence is bit-deterministic like any single stream.
        """
        from .strategies import CoordinatedAgent

        if agents < 1:
            raise ConfigurationError(f"need at least one agent, got {agents}")
        rate = rate or self.omega
        base_interval = self.probe_pacing * self.period / rate
        pool = self.pool(pool_id or target.name)
        self._watch(target)
        drivers: list[ProbeDriver] = []
        for k in range(agents):
            name = f"{self.name}~agent{k}"
            if name not in self._coordinated_agents:
                agent = CoordinatedAgent(self.sim, name)
                self.network.register(agent)
                self._coordinated_agents[name] = agent
            driver = ProbeDriver(
                attacker=self,
                target=target.name,
                pool=pool,
                interval=agents * base_interval,
                initiator=name,
            )
            self._drivers.append(driver)
            drivers.append(driver)
            if k == 0:
                driver.start()
            else:
                self.sim.schedule_fast(k * base_interval, driver.start)
        return drivers

    def attack_indirect(
        self,
        proxies: list[str],
        servers: list[RandomizedProcess],
        pool_id: str,
        rate: float,
        identities: int = 1,
    ) -> Optional[IndirectProber]:
        """Start request-path probing of the fortified servers.

        ``rate`` is the paced budget κ·ω (probes per step); a rate of
        zero means the proxies' detection fully suppresses indirect
        probing (κ = 0) and no prober is started.
        """
        for server in servers:
            self._watch(server)
        if rate <= 0:
            return None
        prober = IndirectProber(
            attacker=self,
            proxies=proxies,
            pool=self.pool(pool_id),
            interval=self.probe_pacing * self.period / rate,
            identities=identities,
            pacing_rng=self.sim.rng.stream(f"{self.name}:pacing"),
        )
        self._indirect.append(prober)
        prober.start()
        return prober

    def enable_launchpad(
        self,
        proxies: list[RandomizedProcess],
        servers: list[str],
        pool_id: str,
    ) -> None:
        """Arm the launch-pad strategy.

        Whenever one of ``proxies`` is compromised, a direct probe stream
        at the server tier starts *from that proxy* at full rate ω; it is
        torn down when the proxy is refreshed.
        """
        self._launchpad_servers = list(servers)
        self._launchpad_pool_id = pool_id
        for proxy in proxies:
            proxy.add_compromise_listener(self._on_proxy_compromised)
            # The state listener (which detects the refresh that evicts
            # us from a proxy) is registered lazily at first compromise:
            # proxies crash at probe rate, and an armed-but-idle launch
            # pad must not pay a listener call per crash/respawn.

    # ------------------------------------------------------------------
    # Fast-forward (skip draining decided runs)
    # ------------------------------------------------------------------
    def enable_fast_forward(self) -> None:
        """Allow the attacker to stop the simulation once the attack is
        provably over.

        A probe stream dies permanently when its pool drains (every key
        tried, the winning probes lost to downtime) — nothing restarts
        it.  Once *every* stream is dead and no launch pad is live, the
        run's outcome is decided: the remaining simulated epochs are pure
        timer churn (heartbeats, refreshes) that cannot change the
        compromise verdict.  With fast-forward enabled the attacker then
        stops the simulator after a one-period grace window (long enough
        for any in-flight probe chain to land), so censored runs cost a
        few periods instead of the whole step budget.

        Off by default: opted into by the experiment layer
        (:func:`repro.core.experiment.run_protocol_lifetime` for runs
        without a workload).  Deployments driven directly — examples,
        traces, workload studies — keep the full timeline.
        """
        self._fast_forward = True

    def discard_buffered_randomness(self) -> None:
        """Drop every pre-drawn value buffer (chunked guesses, pacing
        jitter).

        The buffers hold *future* draws of the current RNG streams —
        after a stream reseed (rare-event resplitting, see
        :func:`repro.rare.fork.reseed_for_split`) serving them would
        replay the parent's randomness instead of the child's.  Clearing
        is always safe: an empty buffer simply refills from the live
        stream at the next draw, and the guess buffer's
        materialization-headroom invariant holds vacuously when empty.
        """
        self._guess_buffer._values.clear()
        for prober in self._indirect:
            prober._jitter_buffer.clear()

    def _attack_live(self) -> bool:
        """Whether any current or potential probe source remains."""
        return (
            any(d.active for d in self._drivers)
            or any(p.active for p in self._indirect)
            or bool(self._launchpad_drivers)
            or bool(self._launchpad_hosts)
        )

    def _on_stream_dead(self) -> None:
        """A probe stream deactivated itself (pool drained)."""
        if not self._fast_forward or self._ff_check_pending:
            return
        if self._attack_live():
            return
        self._ff_check_pending = True
        self.fast_forward_arms += 1
        self.sim.schedule_fast(
            FAST_FORWARD_GRACE_PERIODS * self.period, self._ff_confirm
        )

    def _ff_confirm(self) -> None:
        """Grace window elapsed: stop the run if the attack stayed dead.

        The window exists because the *last* probes of a dying stream can
        still be in flight when the stream deactivates; had one of them
        carried the key, the compromise fires during the grace period
        (reviving the launch pad and failing this check)."""
        self._ff_check_pending = False
        if self._fast_forward and not self._attack_live():
            self.sim.stop()

    # ------------------------------------------------------------------
    # Epoch alignment (PO awareness)
    # ------------------------------------------------------------------
    def on_epoch(self, epoch: int) -> None:
        """Hook for the obfuscation manager's epoch listener."""
        if self.reset_pools_on_epoch:
            for tracker in self._pools.values():
                tracker.reset()

    # ------------------------------------------------------------------
    # Event routing
    # ------------------------------------------------------------------
    def handle_connection_data(self, connection: Connection, payload) -> None:
        driver = self._by_connection.get(connection)
        if driver is not None:
            driver.on_data(connection, payload)

    def unregister_connection(self, connection: Connection) -> None:
        """Drop the routing entry of a dead connection.

        Drivers add the entry when they open a connection (inline in
        ``ProbeDriver._fire``, which also attaches the attacker as the
        initiating host's sink for launch-pad and agent streams) and
        drop it when they abandon a closed one: through this method on
        stop, inline in ``ProbeDriver._fire`` on reconnect.  The
        attacker deliberately does *not* override
        ``on_connection_closed``: a probe driver discovers the closure
        itself by checking ``connection.open`` at its next fire, so a
        per-crash closure notification event would carry no
        information — and the network elides notifications that would
        only reach the base no-op handler.
        """
        self._by_connection.pop(connection, None)

    # ------------------------------------------------------------------
    # Compromise observation and launch-pad lifecycle
    # ------------------------------------------------------------------
    def _watch(self, node: RandomizedProcess) -> None:
        node.add_compromise_listener(self._on_node_compromised)

    def _on_node_compromised(self, node) -> None:
        self.compromises_observed.append((self.sim.now, node.name))

    def _on_proxy_compromised(self, proxy) -> None:
        self._on_node_compromised(proxy)
        if proxy not in self._watched_proxies:
            self._watched_proxies.add(proxy)
            proxy.add_state_listener(self._on_proxy_state_change)
        self._launchpad_hosts.setdefault(proxy, None)
        self._ensure_launchpad()

    def _on_proxy_state_change(self, proxy) -> None:
        if not self._launchpad_hosts and not self._launchpad_drivers:
            return  # nothing armed: crash/respawn churn is not ours
        if proxy.compromised:
            return
        self._launchpad_hosts.pop(proxy, None)
        driver = self._launchpad_drivers.pop(proxy.name, None)
        if driver is not None:
            driver.stop()
            self._ensure_launchpad()
            # The launch pad may have been the last live stream (all
            # direct/indirect pools long drained): re-check deadness.
            self._on_stream_dead()

    def _ensure_launchpad(self) -> None:
        """Keep exactly one launch-pad stream alive while any compromised
        proxy is available.

        The servers share a single key pool, so additional streams from
        further proxies would only duplicate guesses; the analytic model
        (one launch-pad attack per step, success λ·α) matches this.
        """
        if not self._launchpad_servers or self._launchpad_drivers:
            return
        host = next(iter(self._launchpad_hosts), None)
        if host is None or not host.compromised:
            return
        assert self._launchpad_pool_id is not None
        driver = ProbeDriver(
            attacker=self,
            target=self._launchpad_servers[0],
            pool=self.pool(self._launchpad_pool_id),
            interval=self.probe_pacing * self.period / self.omega,
            initiator=host.name,
        )
        self._launchpad_drivers[host.name] = driver
        driver.start()

    # ------------------------------------------------------------------
    @property
    def endpoint_names(self) -> tuple[str, ...]:
        """Every network endpoint the attack operates from: the
        orchestrator itself plus any coordinated agent machines.
        Network-level countermeasures (partition plans) must cut all of
        them to actually sever the attacker."""
        return (self.name, *self._coordinated_agents)
