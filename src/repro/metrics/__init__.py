"""Statistics helpers for simulation output."""

from .stats import (
    CensoredSummary,
    SummaryStats,
    Z_95,
    kaplan_meier,
    km_restricted_mean,
    summarize,
    summarize_censored,
)

__all__ = [
    "CensoredSummary",
    "SummaryStats",
    "Z_95",
    "kaplan_meier",
    "km_restricted_mean",
    "summarize",
    "summarize_censored",
]
