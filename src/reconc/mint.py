"""Trace-minimizing (minT) Gaussian reconciliation and diagonal W choices.

The reconciliation matrix is G = (S' W^-1 S)^-1 S' W^-1; the reconciled
mean is S G y_hat and its covariance S (S' W^-1 S)^-1 S'. Two diagonal W
variants are supported: per-node base-forecast variances ("hierarchy
variance") and structural scaling, where each node's weight is the number
of bottom series it aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .conditioning import CountJoint
from .distributions import GaussianForecast
from .errors import DimensionError, MissingForecast, NumericalError
from .hierarchy import Hierarchy

_MIN_SD = 1e-9


@dataclass(frozen=True)
class HierarchyVariance:
    """W = diag of per-node variances; None defers to the base forecasts."""

    variances: np.ndarray | None = None


@dataclass(frozen=True)
class StructuralScaling:
    """W = diag of bottom-series counts per node (bottom nodes weigh 1)."""


CovarianceSpec = HierarchyVariance | StructuralScaling


def build_w(h: Hierarchy, spec: CovarianceSpec) -> np.ndarray:
    """Diagonal error covariance W for the given hierarchy."""
    if isinstance(spec, StructuralScaling):
        return np.diag(h.s_matrix.sum(axis=1).astype(float))
    if spec.variances is None:
        raise MissingForecast("HierarchyVariance needs explicit or base-forecast variances")
    v = np.asarray(spec.variances, dtype=float)
    if v.shape != (h.n,):
        raise DimensionError(f"expected {h.n} variances, got shape {v.shape}")
    if (v <= 0).any():
        raise DimensionError("variances must be positive")
    return np.diag(v)


def _mint_solve(h: Hierarchy, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G and the gram matrix S' W^-1 S it was solved from."""
    s = h.s_matrix.astype(float)
    if w.shape != (h.n, h.n):
        raise DimensionError(f"W must be {h.n}x{h.n}, got {w.shape}")
    try:
        w_inv_s = np.linalg.solve(w, s)
        gram = s.T @ w_inv_s  # S' W^-1 S, (m, m)
        return np.linalg.solve(gram, w_inv_s.T), gram
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular system in minT solve: {exc}") from exc


def mint_g(h: Hierarchy, w: np.ndarray) -> np.ndarray:
    """G = (S' W^-1 S)^-1 S' W^-1, shape (m, n); satisfies G S = I."""
    return _mint_solve(h, w)[0]


@dataclass
class GaussianReconciled:
    """Reconciled Gaussian: coherent mean with minT covariance."""

    mean: np.ndarray  # (n,)
    covariance: np.ndarray  # (n, n)
    bottom_mean: np.ndarray  # (m,)
    bottom_cov: np.ndarray  # (m, m)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Real-valued bottom draws from the reconciled distribution."""
        return rng.multivariate_normal(self.bottom_mean, self.bottom_cov, size=n,
                                       method="eigh")


def _base_arrays(h: Hierarchy, base) -> tuple[np.ndarray, np.ndarray]:
    if len(base) != h.n:
        raise DimensionError(f"expected {h.n} base forecasts, got {len(base)}")
    missing = [h.node_labels[i] for i, f in enumerate(base) if f is None]
    if missing:
        raise MissingForecast(f"no base forecast for nodes {missing}")
    means = np.array([f.mean for f in base], dtype=float)
    variances = np.array([f.variance for f in base], dtype=float)
    return means, variances


def reconcile_gaussian(
    h: Hierarchy,
    base: list[GaussianForecast | None],
    spec: CovarianceSpec = HierarchyVariance(),
) -> GaussianReconciled:
    """minT reconciliation of per-node Gaussian base forecasts.

    `base` lists a GaussianForecast for every node in node order. With a
    HierarchyVariance spec carrying no explicit variances, W is the diagonal
    of the base-forecast variances.
    """
    y_hat, base_var = _base_arrays(h, base)
    if isinstance(spec, HierarchyVariance) and spec.variances is None:
        spec = HierarchyVariance(base_var)
    g, gram = _mint_solve(h, build_w(h, spec))
    s = h.s_matrix.astype(float)
    bottom_mean = g @ y_hat
    try:
        bottom_cov = np.linalg.inv(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular system in minT covariance: {exc}") from exc
    bottom_cov = (bottom_cov + bottom_cov.T) / 2
    return GaussianReconciled(
        mean=s @ bottom_mean,
        covariance=s @ bottom_cov @ s.T,
        bottom_mean=bottom_mean,
        bottom_cov=bottom_cov,
    )


def _std_normal_above(a: float, u: np.ndarray) -> np.ndarray:
    """Standard normal truncated to [a, inf), at uniform draws u, by inverse cdf.

    Works in log space from the nearer tail as scipy's truncnorm ppf does, so
    it keeps precision far out in either tail. For a < 0 the log cdf is the
    log-sum-exp of two terms, written out as scipy's logsumexp computes it
    (the larger term separated out, then log1p of the other's exp, plus
    log(1), plus the larger): the draws equal those of
    `special.logsumexp` on the stacked terms to the bit, without its
    array-API overhead. Where that log cdf rounds to 0 or above (a just
    below 0 and u within a few ulps of 1), the inverse would be inf or NaN;
    those draws come from the upper tail, as for a >= 0.
    """
    def from_upper_tail(u):  # Phi(-x) = (1 - u) Phi(-a)
        return -special.ndtri_exp(np.log1p(-u) + special.log_ndtr(-a))

    if a >= 0:
        return from_upper_tail(u)
    # Phi(x) = Phi(a) + u (1 - Phi(a))
    log_phi_a = special.log_ndtr(a)
    log_rest = np.log(u) + special.log1p(-special.ndtr(a))
    hi = np.maximum(log_phi_a, log_rest)
    log_cdf = np.log1p(np.exp(np.minimum(log_phi_a, log_rest) - hi)) + 0.0 + hi
    x = special.ndtri_exp(log_cdf)
    at_top = log_cdf >= 0
    x[at_top] = from_upper_tail(u[at_top])
    return x


def reconcile_truncated(
    h: Hierarchy,
    base: list[GaussianForecast | None],
    spec: CovarianceSpec = HierarchyVariance(),
    n_samples: int = 1000,
    seed: int | np.random.Generator = 0,
) -> CountJoint:
    """Non-negative count samples from the truncated Gaussian reconciliation.

    Runs reconcile_gaussian, then draws each bottom node independently from
    its reconciled marginal truncated at zero (renormalized) and rounds to
    the nearest integer. Upper values follow by summation, so every sample
    is coherent.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rec = reconcile_gaussian(h, base, spec)
    rng = np.random.default_rng(seed)
    draws = np.empty((n_samples, h.m), dtype=np.int64)
    for j in range(h.m):
        mu = rec.bottom_mean[j]
        sd = float(np.sqrt(max(rec.bottom_cov[j, j], 0.0)))
        if sd < _MIN_SD:
            draws[:, j] = max(int(np.rint(mu)), 0)
            continue
        x = _std_normal_above((0.0 - mu) / sd, rng.uniform(size=n_samples)) * sd + mu
        draws[:, j] = np.maximum(np.rint(x).astype(np.int64), 0)
    return CountJoint.from_draws(draws)
