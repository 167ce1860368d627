"""Builders: turn a :class:`~repro.core.specs.SystemSpec` into a running
protocol-level deployment.

``build_system`` wires the full stack — network, PKI, name server, server
tier (SMR or PB), proxy tier for S2, obfuscation manager, compromise
monitor.  ``attach_attacker`` then mounts the paper's attack campaign on
top, and ``add_clients`` adds legitimate workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Optional

from ..attacker.agent import AttackerProcess
from ..crypto.signatures import SignatureAuthority
from ..errors import ConfigurationError
from ..net.latency import FixedLatency, LatencyModel
from ..net.network import Network
from ..proxy.detection import DetectionPolicy
from ..proxy.nameserver import Directory, NameServer
from ..proxy.proxy import ProxyNode
from ..randomization.obfuscation import ObfuscationManager, Scheme
from ..replication.primary_backup import PBServer
from ..replication.smr import SMRReplica
from ..replication.state_machine import KVStoreService, Service
from ..sim.engine import Simulator
from .clients import RequestClient, WorkloadClient
from .compromise import CompromiseMonitor
from .specs import SystemClass, SystemSpec
from .timing import DEFAULT_TIMING, TimingSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.injector import FaultInjector
    from ..randomization.node import RandomizedProcess

#: Shared key-pool id of an identically randomized server tier.
SERVER_POOL = "server-tier"

#: How a direct probe stream is mounted on one target: scenario
#: adversaries (stealth, coordinated) swap this while the campaign
#: wiring of :func:`attach_attacker` stays single-sourced.
DirectAttack = Callable[[AttackerProcess, "RandomizedProcess", Optional[str]], object]

ServiceFactory = Callable[[int], Service]


def _default_service_factory(index: int) -> Service:
    return KVStoreService()


@dataclass
class DeployedSystem:
    """A fully wired protocol-level deployment.

    Produced by :func:`build_system`; holds every top-level component so
    tests, examples and experiments can reach into the stack.
    """

    spec: SystemSpec
    sim: Simulator
    network: Network
    authority: SignatureAuthority
    servers: list
    proxies: list[ProxyNode]
    nameserver: NameServer
    obfuscation: ObfuscationManager
    monitor: CompromiseMonitor
    timing: TimingSpec = DEFAULT_TIMING
    attacker: Optional[AttackerProcess] = None
    clients: list[RequestClient] = field(default_factory=list)
    #: Set by the scenario runtime when a fault plan is scheduled.
    injector: Optional["FaultInjector"] = None

    @property
    def server_names(self) -> list[str]:
        return [s.name for s in self.servers]

    @property
    def proxy_names(self) -> list[str]:
        return [p.name for p in self.proxies]

    def start(self) -> None:
        """Start the epoch schedule and any configured clients."""
        self.obfuscation.start()
        for client in self.clients:
            client.start()


def build_system(
    spec: SystemSpec,
    seed: int = 0,
    latency: Optional[LatencyModel] = None,
    service_factory: ServiceFactory = _default_service_factory,
    detection_policy: Optional[DetectionPolicy] = None,
    timing: Optional[TimingSpec] = None,
    respawn_delay: Optional[float] = None,
    reboot_duration: float = 0.0,
    stop_on_compromise: bool = True,
    s2_server_tier: str = "primary-backup",
    stagger_recovery: bool = False,
) -> DeployedSystem:
    """Instantiate the deployment described by ``spec``.

    Parameters
    ----------
    spec:
        System class, scheme and parameters.
    seed:
        Root seed; every stochastic component derives its stream from it.
    latency:
        Network latency model; overrides the fixed
        ``timing.reconnect_latency`` when given.
    service_factory:
        Builds the service instance hosted by each server (by index).
        Must produce deterministic services for SMR tiers.
    detection_policy:
        Proxy detection parameters (S2 only).
    timing:
        The deployment's :class:`~repro.core.timing.TimingSpec` —
        respawn delay, network latency, probe pacing, refresh stagger
        and detection lag, threaded into every component below.
        Defaults to :meth:`TimingSpec.paper` (the stack's historical
        constants).
    respawn_delay:
        Back-compatible override of ``timing.respawn_delay``.
    reboot_duration:
        Node downtime at each epoch refresh (paper default: instant).
    stop_on_compromise:
        Halt the simulation when the system-level predicate fires.
    s2_server_tier:
        FORTRESS supports any server-tier replication (§3).  The paper's
        S2 fortifies primary-backup (the default); pass ``"smr"`` to
        fortify an SMR tier instead (the spec then needs
        ``n_servers > 3f`` diversely randomized replicas).
    stagger_recovery:
        Refresh SMR replicas in staggered batches of one, spread across
        the *whole* period (Roeder-Schneider style, §2.3) regardless of
        ``timing.epoch_stagger``.  With a non-zero ``reboot_duration``
        this keeps at least ``n − 1`` replicas up at every instant, so
        the order protocol never stalls during refreshes.
    """
    if s2_server_tier not in ("primary-backup", "smr"):
        raise ConfigurationError(f"unknown server tier {s2_server_tier!r}")
    timing = DEFAULT_TIMING if timing is None else timing
    if respawn_delay is not None:
        timing = replace(timing, respawn_delay=respawn_delay)
    smr_tier = spec.system is SystemClass.S0 or (
        spec.system is SystemClass.S2 and s2_server_tier == "smr"
    )
    if smr_tier and spec.system is SystemClass.S2 and spec.n_servers <= 3 * spec.f:
        raise ConfigurationError(
            f"a fortified SMR tier needs n > 3f servers "
            f"(n={spec.n_servers}, f={spec.f}); pass n_servers explicitly"
        )

    sim = Simulator(seed=seed)
    network = Network(sim, latency=latency or FixedLatency(timing.reconnect_latency))
    authority = SignatureAuthority(sim.rng.stream("authority"))
    keyspace = spec.keyspace

    servers: list = []
    proxies: list[ProxyNode] = []
    obfuscation = ObfuscationManager(
        sim, spec.scheme, period=spec.period, reboot_duration=reboot_duration
    )

    if smr_tier:
        for i in range(spec.n_servers):
            service = service_factory(i)
            if not service.deterministic:
                raise ConfigurationError(
                    "an SMR tier replicates a deterministic state machine; "
                    f"{type(service).__name__} is not deterministic"
                )
            replica = SMRReplica(
                sim,
                name=f"replica-{i}",
                index=i,
                keyspace=keyspace,
                rng=sim.rng.stream(f"keys:replica-{i}"),
                service=service,
                authority=authority,
                network=network,
                f=spec.f,
                respawn_delay=timing.respawn_delay,
            )
            network.register(replica)
            servers.append(replica)
            # Diverse randomization; staggered in batches of one across
            # a configurable slice of the period (exit, refresh, re-join
            # — §2.3).  ``stagger_recovery`` forces the full spread.
            stagger = 1.0 if stagger_recovery else timing.epoch_stagger
            offset = i * stagger * spec.period / spec.n_servers
            obfuscation.add_node(replica, offset=offset)
        names = [s.name for s in servers]
        for replica in servers:
            replica.configure(names)
    else:
        for i in range(spec.n_servers):
            server = PBServer(
                sim,
                name=f"server-{i}",
                index=i,
                keyspace=keyspace,
                rng=sim.rng.stream(f"keys:server-{i}"),
                service=service_factory(i),
                authority=authority,
                network=network,
                respawn_delay=timing.respawn_delay,
            )
            network.register(server)
            servers.append(server)
        names = [s.name for s in servers]
        for server in servers:
            server.configure(names)
        # PB servers are randomized identically (one key group): state
        # updates then need no representation conversion (paper §3).
        obfuscation.add_group(servers)

    if spec.system is SystemClass.S2:
        for i in range(spec.n_proxies):
            proxy = ProxyNode(
                sim,
                name=f"proxy-{i}",
                keyspace=keyspace,
                rng=sim.rng.stream(f"keys:proxy-{i}"),
                authority=authority,
                network=network,
                policy=detection_policy,
                request_timeout=timing.detection_lag,
                respawn_delay=timing.respawn_delay,
                server_replication="smr" if smr_tier else "primary-backup",
                fault_threshold=spec.f if smr_tier else 0,
            )
            network.register(proxy)
            proxy.configure([s.name for s in servers])
            proxies.append(proxy)
            # Proxies are diversely randomized; their refreshes spread
            # over ``epoch_stagger`` of the period like any diverse tier.
            obfuscation.add_node(
                proxy,
                offset=i * timing.epoch_stagger * spec.period / spec.n_proxies,
            )
        # Fortification: servers accept traffic only from proxies, their
        # peers (state updates) and the name server; and no connections
        # from outside the proxy tier.
        proxy_names = {p.name for p in proxies}
        server_names = {s.name for s in servers}
        for server in servers:
            server.allowed_senders = proxy_names | server_names | {"nameserver"}
            server.allowed_connection_initiators = set(proxy_names)

    directory = _make_directory(spec, servers, proxies, authority, smr_tier)
    nameserver = NameServer(sim, network, directory)
    network.register(nameserver)

    monitor = CompromiseMonitor(
        sim,
        spec.system,
        servers=servers,
        proxies=proxies,
        f=spec.f,
        period=spec.period,
        stop_on_compromise=stop_on_compromise,
        server_tier_f=(spec.f if (smr_tier and spec.system is SystemClass.S2) else 0),
    )

    return DeployedSystem(
        spec=spec,
        sim=sim,
        network=network,
        authority=authority,
        servers=servers,
        proxies=proxies,
        nameserver=nameserver,
        obfuscation=obfuscation,
        monitor=monitor,
        timing=timing,
    )


def _make_directory(
    spec: SystemSpec,
    servers: list,
    proxies: list[ProxyNode],
    authority: SignatureAuthority,
    smr_tier: bool,
) -> Directory:
    """Publish what the paper allows clients to know (§3)."""
    directory = Directory(
        replication="smr" if smr_tier else "primary-backup",
        fault_threshold=spec.f if smr_tier else 0,
    )
    directory.server_indices = [s.index for s in servers]
    directory.server_keys = {s.index: authority.public_key_of(s.name) for s in servers}
    if spec.system is SystemClass.S2:
        directory.proxy_addresses = [p.name for p in proxies]
        directory.proxy_keys = {
            p.name: authority.public_key_of(p.name) for p in proxies
        }
        # Server *addresses* stay hidden behind the proxies.
    else:
        directory.server_addresses = {s.index: s.name for s in servers}
    return directory


def attach_attacker(
    deployed: DeployedSystem,
    direct: Optional[DirectAttack] = None,
    indirect_identities: int = 1,
) -> AttackerProcess:
    """Mount the §4 attack campaign wiring on a deployment.

    * S0 — direct probe streams at every replica (diverse pools);
    * S1 — one direct stream at the server tier's shared pool;
    * S2 — direct streams at every proxy, paced indirect probing of the
      servers at κ·ω, and the launch-pad strategy armed.

    ``direct`` swaps how each direct stream is driven (the scenario
    subsystem passes duty-cycled or coordinated variants — see
    :mod:`repro.attacker.strategies`); the default is the paper's
    full-rate :meth:`~repro.attacker.agent.AttackerProcess.attack_direct`.
    ``indirect_identities`` rotates that many spoofed client identities
    through the indirect stream (the coordinated adversary matches it
    to its agent count).
    """
    spec = deployed.spec
    if deployed.attacker is not None:
        raise ConfigurationError("attacker already attached")
    if direct is None:

        def direct(attacker, target, pool_id=None):
            return attacker.attack_direct(target, pool_id=pool_id)

    attacker = AttackerProcess(
        deployed.sim,
        deployed.network,
        keyspace=spec.keyspace,
        omega=spec.omega,
        period=spec.period,
        reset_pools_on_epoch=(spec.scheme is Scheme.PO),
        probe_pacing=deployed.timing.probe_pacing,
    )
    deployed.network.register(attacker)
    deployed.obfuscation.add_epoch_listener(attacker.on_epoch)

    if spec.system is SystemClass.S0:
        for replica in deployed.servers:
            direct(attacker, replica)
    elif spec.system is SystemClass.S1:
        # The servers share one key: extra streams would re-test the same
        # pool, so the attacker aims one full-rate stream at the tier.
        direct(attacker, deployed.servers[0], SERVER_POOL)
        for server in deployed.servers[1:]:
            server.add_compromise_listener(attacker._on_node_compromised)
    else:  # S2
        for proxy in deployed.proxies:
            direct(attacker, proxy)
        attacker.attack_indirect(
            proxies=deployed.proxy_names,
            servers=deployed.servers,
            pool_id=SERVER_POOL,
            rate=spec.kappa * spec.omega,
            identities=indirect_identities,
        )
        pb_tier = isinstance(deployed.servers[0], PBServer)
        if spec.launchpad_fraction > 0 and pb_tier:
            # The launch pad exploits the PB tier's *shared* key pool;
            # against a fortified SMR tier (diverse keys, f-tolerant) a
            # single launch-pad stream gains the attacker nothing, so
            # none is armed.
            attacker.enable_launchpad(
                proxies=deployed.proxies,
                servers=deployed.server_names,
                pool_id=SERVER_POOL,
            )
    deployed.attacker = attacker
    return attacker


def add_clients(
    deployed: DeployedSystem,
    count: int = 1,
    client_class: type[RequestClient] = WorkloadClient,
    **client_kwargs,
) -> list[RequestClient]:
    """Add ``count`` workload clients in the mode matching the system.

    ``client_class`` picks the arrival policy: the closed-loop
    :class:`~repro.core.clients.WorkloadClient` or the open-loop
    :class:`~repro.workloads.openloop.OpenLoopClient`; ``client_kwargs``
    go to its constructor.  Each client is named by its index in
    ``deployed.clients`` (``client-0``, ``openloop-0``, ...): its RNG
    streams derive from the name, so runs stay reproducible however
    many clients the process built before.
    """
    mode = {
        SystemClass.S0: "smr",
        SystemClass.S1: "pb",
        SystemClass.S2: "fortress",
    }[deployed.spec.system]
    targets = (
        deployed.proxy_names
        if deployed.spec.system is SystemClass.S2
        else deployed.server_names
    )
    clients = []
    for _ in range(count):
        client = client_class(
            deployed.sim,
            deployed.network,
            deployed.authority,
            mode=mode,
            targets=targets,
            f=deployed.spec.f,
            name=f"{client_class.stem}-{len(deployed.clients)}",
            **client_kwargs,
        )
        deployed.network.register(client)
        deployed.clients.append(client)
        clients.append(client)
    return clients
