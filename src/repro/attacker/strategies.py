"""Alternative adversary strategies beyond the paper's §4 probers.

The paper's attack model fixes one adversary: full-rate direct streams,
a paced indirect stream, the launch pad.  The scenario subsystem
(:mod:`repro.scenarios`) composes deployments with a *chosen* adversary,
and this module supplies the two non-paper strategies of the built-in
scenario library:

* :class:`DutyCycledProbeDriver` — a **stealth** prober that probes in
  bursts: full rate ω during the first ``on_time`` of every
  ``cycle_time`` window, silent for the rest.  Long-run rate is
  ``on_time / cycle_time · ω``, but the burst structure defeats
  detection thresholds calibrated on *sustained* rates — and the
  silent windows let respawned targets settle, so fewer probes are
  wasted on mid-respawn downtime.  Its fire runs once per probe, so it
  calls the base fire as a plain function (no ``super()`` proxy) and
  re-arms through the driver's bound ``_refire``.
* :class:`CoordinatedAgent` — a cooperating attacker **machine**: a
  distinct network endpoint whose probe connections are opened under
  its own address while the orchestrating
  :class:`~repro.attacker.agent.AttackerProcess` drives the stream and
  receives its events (exactly the sink mechanism launch-pad streams
  use from a compromised proxy).  N agents attacking one target split
  the probe budget ω into N interleaved streams from N sources, which
  per-source frequency analysis cannot aggregate.

Both strategies draw guesses from the ordinary shared key pools through
the orchestrator's chunked :class:`~repro.attacker.keytracker.GuessBuffer`,
so the determinism contract of the stock attacker — same seed, same
probe stream, any worker count — carries over unchanged.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from ..errors import ConfigurationError
from ..sim.engine import Simulator
from ..sim.process import SimProcess
from .driver import ProbeDriver
from .keytracker import KeyGuessTracker

if TYPE_CHECKING:  # pragma: no cover
    from .agent import AttackerProcess


class DutyCycledProbeDriver(ProbeDriver):
    """A probe stream that fires only during periodic on-windows.

    Cycles are anchored at simulated time zero: the stream is live in
    ``[k·cycle_time, k·cycle_time + on_time)`` for every integer ``k``
    and silent otherwise.  Inside an on-window the stream behaves
    exactly like its parent :class:`~repro.attacker.driver.ProbeDriver`
    (same pacing, same pool discipline, same reconnect behaviour);
    fires that land in an off-window consume no guess, no probe and no
    RNG draw — they just sleep until the next window opens (or, when
    rounding puts that opening within half an ulp of now, until the
    next float, so the clock always moves on).

    Parameters (beyond the parent's)
    --------------------------------
    on_time:
        Length of the probing window at the start of each cycle.
    cycle_time:
        Full duty-cycle length; must be at least ``on_time``.
    """

    __slots__ = ("on_time", "cycle_time")

    def __init__(
        self,
        attacker: "AttackerProcess",
        target: str,
        pool: KeyGuessTracker,
        interval: float,
        on_time: float,
        cycle_time: float,
        initiator: Optional[str] = None,
    ) -> None:
        if on_time <= 0 or cycle_time <= 0:
            raise ConfigurationError(
                f"duty cycle needs positive on_time and cycle_time, got "
                f"{on_time}, {cycle_time}"
            )
        if on_time > cycle_time:
            raise ConfigurationError(
                f"on_time {on_time} exceeds cycle_time {cycle_time}"
            )
        super().__init__(attacker, target, pool, interval, initiator)
        self.on_time = on_time
        self.cycle_time = cycle_time

    def _fire(self) -> None:
        if not self.active:
            return
        sim = self.attacker.sim
        now = sim.now
        phase = now % self.cycle_time
        if phase >= self.on_time:
            # Off-window: sleep to the next cycle start, touch nothing.
            # When ``now`` lies within half an ulp below a cycle start
            # (``phase`` a hair under ``cycle_time``), ``now + sleep``
            # rounds back to ``now`` and the stream would wake at the
            # same instant forever; the next float lies past that start.
            wake = now + (self.cycle_time - phase)
            sim.schedule_at(
                wake if wake > now else math.nextafter(now, math.inf), self._refire
            )
            return
        # The base fire, called as a plain function: this runs once per
        # probe, and a ``super()`` proxy per call is measurable there.
        ProbeDriver._fire(self)


class CoordinatedAgent(SimProcess):
    """A cooperating attacker machine under the orchestrator's control.

    Carries no behaviour of its own — the orchestrating
    :class:`~repro.attacker.agent.AttackerProcess` opens probe
    connections under this agent's address and attaches itself as the
    event sink, so crash observations and intrusion acks flow back to
    the shared campaign state.  Attacker machines sit outside the
    deployment: no forking daemon, never crashed by the defence.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name, respawn_delay=None)
