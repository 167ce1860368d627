"""A simulated process protected by address-space randomization.

:class:`RandomizedProcess` extends :class:`~repro.sim.process.SimProcess`
with an :class:`~repro.randomization.layout.AddressSpace` and the probe
semantics attackers exploit:

* a probe carrying the wrong key guess **crashes** the process — the
  forking daemon respawns it with the *same* key (fork preserves layout);
* a probe carrying the right key compromises the process.

Key changes happen only through :meth:`rerandomize` (fresh key — proactive
obfuscation) or :meth:`recover` (same key — proactive recovery), both of
which reboot the node and cleanse any compromise.
"""

from __future__ import annotations

import random
from typing import Optional

from ..core.timing import DEFAULT_RESPAWN_DELAY
from ..sim.engine import Simulator
from ..sim.process import SimProcess
from .keyspace import KeySpace
from .layout import AddressSpace, ProbeOutcome


class RandomizedProcess(SimProcess):
    """A node whose executable is randomized over a key space.

    Parameters
    ----------
    sim, name, respawn_delay:
        See :class:`~repro.sim.process.SimProcess`.
    keyspace:
        Key space of the randomization scheme protecting this node.
    rng:
        Stream used to draw this node's keys.
    key:
        Optional initial key; drawn uniformly when omitted.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        keyspace: KeySpace,
        rng: random.Random,
        key: Optional[int] = None,
        respawn_delay: Optional[float] = DEFAULT_RESPAWN_DELAY,
    ) -> None:
        super().__init__(sim, name, respawn_delay=respawn_delay)
        self._rng = rng
        initial = keyspace.sample_key(rng) if key is None else key
        self.address_space = AddressSpace(keyspace, initial)

    # ------------------------------------------------------------------
    @property
    def keyspace(self) -> KeySpace:
        """The key space protecting this node."""
        return self.address_space.keyspace

    def receive_probe(self, guess: int, connection=None) -> ProbeOutcome:
        """Apply an attack probe to this node — the one place the probe
        rules live.

        Wrong guess → process crash (observable through connection
        closure); right guess → the node is marked compromised, and a
        probe that arrived on ``connection`` is acknowledged on it (the
        exploit code runs and phones home).  Request-path probes, which
        every replica executes, pass no connection.

        (``AddressSpace.check_probe`` is inlined here — this runs once
        per probe, the innermost protocol operation there is.)
        """
        space = self.address_space
        space.probes_received += 1
        if guess == space.key:
            space.intrusions += 1
            self.mark_compromised()
            if connection is not None:
                connection.send(self.name, {"kind": "intrusion_ack", "node": self.name})
            return ProbeOutcome.INTRUSION
        space.crashes_caused += 1
        self.crash()
        return ProbeOutcome.CRASH

    def handle_connection_data(self, connection, payload) -> None:
        """Parse a ``{"kind": "probe", "guess": g}`` connection payload
        and hand the guess to :meth:`receive_probe`.

        Every randomized, network-facing process exposes this surface.
        Probe drivers skip the parse: they schedule
        :meth:`~repro.net.network.Network.deliver_probe_to` with the
        bare guess.
        """
        # Duck-type instead of paying a Mapping ABC check per payload
        # (non-mapping payloads lack .get).
        try:
            kind = payload.get("kind")
        except AttributeError:
            return
        if kind == "probe":
            guess = payload.get("guess", -1)
            if guess.__class__ is not int:
                guess = int(guess)
            self.receive_probe(guess, connection)

    # ------------------------------------------------------------------
    # Refresh operations (invoked by the obfuscation manager)
    # ------------------------------------------------------------------
    def rerandomize(
        self, reboot_duration: float = 0.0, key: Optional[int] = None
    ) -> int:
        """Reboot with a *fresh* randomization key (proactive obfuscation).

        ``key`` lets a caller randomize a group of nodes identically;
        when omitted a uniform key is drawn from this node's stream.
        Returns the installed key.
        """
        new_key = self.keyspace.sample_key(self._rng) if key is None else key
        self.address_space.set_key(new_key)
        self.begin_reboot(reboot_duration)
        return new_key

    def recover(self, reboot_duration: float = 0.0) -> int:
        """Reboot with the *same* key (proactive recovery, paper §2.3).

        Recovery reinstalls the original executable, so an attacker's
        knowledge of eliminated keys stays valid.  Returns the
        (unchanged) key.
        """
        self.begin_reboot(reboot_duration)
        return self.address_space.key
