"""Base-forecast distributions: count pmfs, Gaussians, and sample fitting.

Count forecasts are Poisson, negative binomial (r successes, success
probability p, mean r(1-p)/p) or tabulated pmfs over 0..support_max.
Fitting from forecast samples uses the method of moments throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import InsufficientSamples

#: cumulative mass treated as "all of it" when truncating infinite supports
DEFAULT_EPSILON = 1e-9

#: variance floor keeping fitted Gaussians (and hence W) invertible
VARIANCE_FLOOR = 1e-9


def _inside_unit(q: float) -> bool:
    """False for q <= 0 and True for 0 < q < 1; an unbounded pmf refuses q >= 1 or NaN."""
    if q <= 0:
        return False
    if not q < 1:
        raise ValueError(f"quantile level q={q} must be < 1 for a pmf with unbounded support")
    return True


class CountPmf:
    """Interface shared by all count distributions."""

    def pmf(self, k):
        raise NotImplementedError

    def cdf(self, k):
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def variance(self) -> float:
        raise NotImplementedError

    def quantile(self, q: float) -> int:
        """Smallest k with CDF(k) >= q (0 for q <= 0)."""
        raise NotImplementedError

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def quantile_truncate(self, epsilon: float = DEFAULT_EPSILON) -> int:
        """Smallest K whose cumulative mass reaches 1 - epsilon."""
        return self.quantile(1.0 - epsilon)

    def median(self) -> int:
        return self.quantile(0.5)

    def log_pmf_table(self, size: int) -> np.ndarray:
        """log pmf evaluated on 0..size-1 (-inf where the mass is zero)."""
        with np.errstate(divide="ignore"):
            return np.log(self.pmf(np.arange(size)))

    def to_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class Poisson(CountPmf):
    """Poisson pmf; rate 0 degenerates to a point mass at zero."""

    rate: float

    def __post_init__(self):
        if not 0 <= self.rate < np.inf:
            raise ValueError(f"Poisson rate must be finite and >= 0, got {self.rate}")

    def pmf(self, k):
        k = np.asarray(k)
        log_pmf = special.xlogy(k, self.rate) - special.gammaln(k + 1) - self.rate
        return np.where(k < 0, 0.0, np.exp(log_pmf))[()]

    def cdf(self, k):
        k = np.floor(k)
        return np.where(k < 0, 0.0, special.pdtr(k, self.rate))[()]

    def mean(self):
        return float(self.rate)

    def variance(self):
        return float(self.rate)

    def quantile(self, q):
        if self.rate == 0 or not _inside_unit(q):
            return 0
        # ceil of the continuous inverse, stepped back one where that already reaches q
        k = np.ceil(special.pdtrik(q, self.rate))
        below = max(k - 1, 0)
        return int(below if special.pdtr(below, self.rate) >= q else k)

    def sample(self, n, rng):
        return rng.poisson(self.rate, size=n)

    def to_dict(self):
        return {"dist": "poisson", "lambda": self.rate}


@dataclass(frozen=True)
class NegBinomial(CountPmf):
    """Negative binomial with pmf C(k+r-1, k) p^r (1-p)^k, mean r(1-p)/p."""

    r: float
    p: float

    def __post_init__(self):
        if not 0 < self.r < np.inf:
            raise ValueError(f"size r must be finite and positive, got {self.r}")
        if not 0 < self.p < 1:
            raise ValueError(f"success probability must be in (0, 1), got {self.p}")

    def pmf(self, k):
        k = np.asarray(k)
        log_pmf = (special.gammaln(self.r + k) - special.gammaln(k + 1) - special.gammaln(self.r)
                   + self.r * np.log(self.p) + special.xlog1py(k, -self.p))
        return np.where(k < 0, 0.0, np.exp(log_pmf))[()]

    def cdf(self, k):
        k = np.floor(k)
        return np.where(k < 0, 0.0, special.betainc(self.r, k + 1, self.p))[()]

    def mean(self):
        return self.r * (1 - self.p) / self.p

    def variance(self):
        return self.r * (1 - self.p) / self.p**2

    def quantile(self, q):
        if not _inside_unit(q):
            return 0
        hi = max(int(self.mean()), 1)
        while self.cdf(hi) < q:  # double until the quantile lies in 0..hi
            hi *= 2
        return int(np.searchsorted(self.cdf(np.arange(hi + 1)), q))

    def sample(self, n, rng):
        return rng.negative_binomial(self.r, self.p, size=n)

    def to_dict(self):
        return {"dist": "negbin", "r": self.r, "p": self.p}


@dataclass(frozen=True)
class Tabulated(CountPmf):
    """Explicit pmf over 0..support_max; zero beyond."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probabilities must be a non-empty 1-d array")
        if not (p >= 0).all():
            raise ValueError("probabilities must be non-negative (and not NaN)")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities must sum to 1 within 1e-12, got {p.sum()!r}")
        object.__setattr__(self, "probs", p)

    @classmethod
    def from_weights(cls, weights) -> "Tabulated":
        """Normalize non-negative weights into a pmf."""
        w = np.asarray(weights, dtype=float)
        total = w.sum()
        if total <= 0:
            raise ValueError("weights must have positive total mass")
        return cls(w / total)

    @property
    def support_max(self) -> int:
        return self.probs.size - 1

    def pmf(self, k):
        k = np.asarray(k)
        inside = (k >= 0) & (k <= self.support_max)
        out = np.where(inside, self.probs[np.clip(k, 0, self.support_max)], 0.0)
        return float(out) if out.ndim == 0 else out

    def cdf(self, k):
        k = np.asarray(k)
        c = np.cumsum(self.probs)
        out = np.where(k < 0, 0.0, c[np.clip(k, 0, self.support_max)])
        return float(out) if out.ndim == 0 else out

    def mean(self):
        return float(np.arange(self.probs.size) @ self.probs)

    def variance(self):
        ks = np.arange(self.probs.size)
        mu = self.mean()
        return float((ks - mu) ** 2 @ self.probs)

    def quantile(self, q):
        c = np.cumsum(self.probs)
        idx = int(np.searchsorted(c, q, side="left"))
        return min(idx, self.support_max)

    def sample(self, n, rng):
        return rng.choice(self.probs.size, size=n, p=self.probs / self.probs.sum())

    def to_dict(self):
        return {"dist": "tabulated", "probs": self.probs.tolist()}


@dataclass(frozen=True)
class GaussianForecast:
    """Mean/variance pair for the Gaussian reconciliation pipeline."""

    mean: float
    variance: float

    def __post_init__(self):
        if not np.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean}")
        if not 0 < self.variance < np.inf:
            raise ValueError(f"variance must be finite and positive, got {self.variance}")

    @property
    def sd(self) -> float:
        return float(np.sqrt(self.variance))

    def to_dict(self) -> dict:
        return {"dist": "gaussian", "mean": self.mean, "var": self.variance}


def fit_negbinomial(samples) -> CountPmf:
    """Moment-matched count distribution for forecast samples.

    Overdispersed samples give NegBinomial(r, p) with r = mu^2/(v - mu) and
    p = r/(r + mu); equi- or underdispersed samples fall back to
    Poisson(mu), and all-zero samples to a point mass at zero.
    """
    x = np.asarray(samples, dtype=float)
    if x.size < 1:
        raise InsufficientSamples("need at least one sample")
    if (x < 0).any():
        raise ValueError("count samples must be non-negative")
    mu = float(x.mean())
    if mu == 0:
        return Tabulated(np.array([1.0]))
    v = float(x.var(ddof=1)) if x.size > 1 else 0.0
    if v <= mu:
        return Poisson(mu)
    r = mu**2 / (v - mu)
    return NegBinomial(r, r / (r + mu))


def fit_gaussian(samples) -> GaussianForecast:
    """Sample mean and unbiased variance, floored to stay invertible."""
    x = np.asarray(samples, dtype=float)
    if x.size < 2:
        raise InsufficientSamples(f"need at least 2 samples, got {x.size}")
    return GaussianForecast(float(x.mean()), max(float(x.var(ddof=1)), VARIANCE_FLOOR))


def count_pmf_from_dict(d: dict) -> CountPmf:
    """Parse a forecast-file entry into a count pmf.

    Accepts {"dist": "poisson"|"negbin"|"tabulated", ...} or
    {"samples": [...]} (fitted with fit_negbinomial).
    """
    if "samples" in d:
        return fit_negbinomial(d["samples"])
    kind = d.get("dist")
    if kind == "poisson":
        return Poisson(float(d["lambda"]))
    if kind == "negbin":
        return NegBinomial(float(d["r"]), float(d["p"]))
    if kind == "tabulated":
        return Tabulated(np.asarray(d["probs"], dtype=float))
    raise ValueError(f"not a count forecast entry: {d!r}")


def gaussian_from_dict(d: dict) -> GaussianForecast:
    """Parse a forecast-file entry into a Gaussian (moment-converting counts)."""
    if "samples" in d:
        return fit_gaussian(d["samples"])
    kind = d.get("dist")
    if kind == "gaussian":
        return GaussianForecast(float(d["mean"]), float(d["var"]))
    if kind in ("poisson", "negbin", "tabulated"):
        pmf = count_pmf_from_dict(d)
        return GaussianForecast(pmf.mean(), max(pmf.variance(), VARIANCE_FLOOR))
    raise ValueError(f"not a forecast entry: {d!r}")
