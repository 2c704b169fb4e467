"""Probabilistic reconciliation of count forecasts over temporal hierarchies.

Builds coherent joint forecasts from per-node base forecasts: exact or
MCMC conditioning of count pmfs on upper-level evidence, Gaussian minT
baselines, and proper scoring rules for evaluating the results.
"""

from .conditioning import (
    BaseForecastSet,
    CountJoint,
    MarginalSummary,
    bottom_up_exact,
    condition_on_upper,
    correlation,
    reconcile_exact,
    reconcile_mcmc,
    summarize,
)
from .distributions import (
    CountPmf,
    GaussianForecast,
    NegBinomial,
    Poisson,
    Tabulated,
    fit_gaussian,
    fit_negbinomial,
)
from .errors import ConvergenceWarning, TruncationWarning
from .hierarchy import Hierarchy, aggregate, build_temporal_hierarchy, is_coherent
from .mint import (
    GaussianReconciled,
    HierarchyVariance,
    StructuralScaling,
    build_w,
    mint_g,
    reconcile_gaussian,
    reconcile_truncated,
)
from .scoring import (
    ScoreReport,
    energy_score,
    mase,
    mis,
    rps_discrete,
    rps_gaussian_cc,
    skill_score,
)

__version__ = "0.1.0"

__all__ = [
    "BaseForecastSet",
    "CountJoint",
    "ConvergenceWarning",
    "CountPmf",
    "GaussianForecast",
    "GaussianReconciled",
    "Hierarchy",
    "HierarchyVariance",
    "MarginalSummary",
    "NegBinomial",
    "Poisson",
    "ScoreReport",
    "StructuralScaling",
    "Tabulated",
    "TruncationWarning",
    "aggregate",
    "bottom_up_exact",
    "build_temporal_hierarchy",
    "build_w",
    "condition_on_upper",
    "correlation",
    "energy_score",
    "fit_gaussian",
    "fit_negbinomial",
    "is_coherent",
    "mase",
    "mint_g",
    "mis",
    "reconcile_exact",
    "reconcile_gaussian",
    "reconcile_mcmc",
    "reconcile_truncated",
    "rps_discrete",
    "rps_gaussian_cc",
    "skill_score",
    "summarize",
]
