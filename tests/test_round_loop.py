"""Property: a campaign's shared rounds reproduce the single-point path.

Every campaign kind runs one round loop over its whole grid; each grid
point's estimate must equal what
:func:`~repro.core.experiment.estimate_protocol_lifetime` computes for
that point alone with the campaign's seed derivation — for any grid
size, fixed-count or precision mode, estimator, worker count and batch
size.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.campaign import run_campaign
from repro.core.experiment import (
    CensoredPrecisionError,
    _aggregate,
    estimate_protocol_lifetime,
)
from repro.core.specs import s1, s2
from repro.mc.executor import derive_point_seed
from repro.randomization.obfuscation import Scheme
from repro.rare.splitting import SplittingConfig

GRID = [
    s1(Scheme.SO, alpha=0.2, entropy_bits=6),
    s2(Scheme.PO, alpha=0.3, kappa=0.5, entropy_bits=6),
    s1(Scheme.PO, alpha=0.1, entropy_bits=6),
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(
    points=st.integers(1, 3),
    precision=st.sampled_from([None, 0.3]),
    workers=st.sampled_from([1, 2]),
    batch_size=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=6, deadline=None)
def test_campaign_points_equal_single_point_estimates(
    points, precision, workers, batch_size, seed
):
    specs = GRID[:points]
    kwargs = dict(
        trials=3,
        max_steps=8,
        batch_size=batch_size,
        precision=precision,
        min_trials=4,
        max_trials=40,
    )
    result = run_campaign(specs, seed=seed, workers=workers, **kwargs)
    assert len(result) == len(specs)
    for i, (spec, estimate) in enumerate(zip(specs, result.estimates)):
        try:
            single = estimate_protocol_lifetime(
                spec,
                seed_for=lambda j, i=i: derive_point_seed(seed, i, j),
                workers=1,
                **kwargs,
            )
        except CensoredPrecisionError as exc:
            # A campaign reports a refused point as its lower bound.
            single = _aggregate(spec, list(exc.outcomes), converged=False)
        assert estimate == single


#: A grid whose middle point censors heavily at ``max_steps=8``, so
#: ``"auto"`` campaigns mix Monte-Carlo and split points.
SPLIT_GRID = [
    s1(Scheme.SO, alpha=0.2, entropy_bits=6),
    s2(Scheme.PO, alpha=0.05, kappa=0.5, entropy_bits=8),
    s2(Scheme.PO, alpha=0.3, kappa=0.5, entropy_bits=6),
]
TINY_SPLITTING = SplittingConfig(pilot_runs=4, replications=2, trajectories=3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(
    points=st.integers(1, 3),
    estimator=st.sampled_from(["splitting", "auto"]),
    precision=st.sampled_from([None, 0.3]),
    workers=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=6, deadline=None)
def test_split_campaign_points_equal_single_point_estimates(
    points, estimator, precision, workers, seed
):
    """The shared pilot and replication passes leak no state across
    points: each campaign point, ``rare`` included, is its own estimate."""
    specs = SPLIT_GRID[:points]
    kwargs = dict(
        trials=3,
        max_steps=8,
        precision=precision,
        min_trials=4,
        max_trials=8,
        estimator=estimator,
        splitting=TINY_SPLITTING,
    )
    result = run_campaign(specs, seed=seed, workers=workers, **kwargs)
    assert len(result) == len(specs)
    for i, (spec, estimate) in enumerate(zip(specs, result.estimates)):
        single = estimate_protocol_lifetime(
            spec,
            seed_for=lambda j, i=i: derive_point_seed(seed, i, j),
            workers=1,
            **kwargs,
        )
        assert estimate == single
        assert estimate.rare == single.rare
