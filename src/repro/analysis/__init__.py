"""Dataflow analyses reproducing the paper's motivation study (Figs 1-3,
one def-use pass in :mod:`repro.analysis.consumers`) and the shadow-cell
demand study (Fig 9)."""

from repro.analysis.consumers import ConsumerAnalysis, analyze_stream
from repro.analysis.shadow_demand import ShadowDemand, measure_shadow_demand
from repro.analysis.lifetimes import (
    LifetimeAnalysis,
    ValueLifetime,
    analyze_lifetimes,
)

__all__ = [
    "ConsumerAnalysis",
    "analyze_stream",
    "ShadowDemand",
    "measure_shadow_demand",
    "LifetimeAnalysis",
    "ValueLifetime",
    "analyze_lifetimes",
]
