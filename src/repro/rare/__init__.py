"""Rare-event estimation: multilevel splitting over attacker progress.

Plain Monte-Carlo handles the paper's far tail worst: at high κ / low α
almost every protocol run censors at the step budget, and an honest
compromise-probability estimate would need orders of magnitude more
runs.  This package turns that compute problem into a variance-reduction
problem with fixed-effort multilevel splitting (RESTART-style trajectory
splitting): trajectories that make unusual attacker *progress* are
forked — full simulator state, event heap, attacker key knowledge and
per-stream RNGs — and re-run conditionally, stage by stage, until the
compromise event itself is reached often enough to measure.

Three pillars, one module each:

* :mod:`repro.rare.fork` — bit-identical cloning of a live deployment
  and deterministic re-seeding of resplit children;
* :mod:`repro.rare.levels` — the attacker-progress level function and
  its cheap in-simulation crossing probe, plus pilot-quantile level
  placement;
* :mod:`repro.rare.splitting` — the pilot and replication tasks of
  fixed-effort splitting, level placement between the two waves, and
  the fold into an unbiased probability with a delta-method CI.

The waves run inside the protocol round loop
(:mod:`repro.core.experiment`): a campaign runs the pilot wave of
every split point in one executor pass and all their replications in a
second.  Ask for an estimate with
``estimate_protocol_lifetime(spec, seed0=root_seed,
estimator="splitting", splitting=config).rare``, or for a whole grid
with :func:`~repro.core.campaign.run_campaign`.
"""

from .._exports import lazy_exports

_EXPORTS = {
    "LevelProbe": "levels",
    "RareEventEstimate": "splitting",
    "SplittingConfig": "splitting",
    "SplittingTask": "splitting",
    "Trajectory": "fork",
    "attacker_progress": "levels",
    "choose_levels": "levels",
    "dedupe_levels": "levels",
    "fork_trajectory": "fork",
    "reseed_for_split": "fork",
    "structural_levels": "levels",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
