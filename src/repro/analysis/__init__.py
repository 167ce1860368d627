"""Analytic models: Markov chains, lifetimes, conversions, orderings."""

from .._exports import lazy_exports

_EXPORTS = {
    "alpha_from_omega": "conversion",
    "chi_from_entropy": "conversion",
    "omega_from_alpha": "conversion",
    "so_exhaustion_step": "conversion",
    "so_hazard": "conversion",
    "so_hazard_sequence": "conversion",
    "so_survival": "conversion",
    "el_from_per_step": "lifetimes",
    "el_s0_po": "lifetimes",
    "el_s0_so": "lifetimes",
    "el_s1_po": "lifetimes",
    "el_s1_so": "lifetimes",
    "el_s2_po": "lifetimes",
    "expected_lifetime": "lifetimes",
    "per_step_compromise": "lifetimes",
    "per_step_compromise_s0_po": "lifetimes",
    "per_step_compromise_s1_po": "lifetimes",
    "per_step_compromise_s2_po": "lifetimes",
    "per_step_compromise_s2_smr_po": "lifetimes",
    "el_s2_smr_po": "lifetimes",
    "survival_curve": "lifetimes",
    "AbsorbingMarkovChain": "markov",
    "AbsorptionResult": "markov",
    "geometric_chain": "markov",
    "DEFAULT_ALPHAS": "orderings",
    "TrendReport": "orderings",
    "kappa_crossover_s2_vs_s0": "orderings",
    "kappa_crossover_s2_vs_s1": "orderings",
    "lifetimes_at": "orderings",
    "summary_chain_holds": "orderings",
    "verify_paper_trends": "orderings",
    "ABSORB_PROXIES": "period",
    "ABSORB_SERVER": "period",
    "build_s2_po_period_chain": "period",
    "compromise_route_split": "period",
    "el_s2_po_with_period": "period",
    "el_s2_so_numeric": "s2so",
    "s2_so_survival": "s2so",
    "elasticity": "sensitivity",
    "indirect_route_share": "sensitivity",
    "s2_po_alpha_elasticity": "sensitivity",
    "s2_po_kappa_elasticity": "sensitivity",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
