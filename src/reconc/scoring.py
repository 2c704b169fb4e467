"""Forecast evaluation: MASE, RPS, MIS, energy score and skill scores."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import special

from .distributions import CountPmf, GaussianForecast, Tabulated
from .errors import (
    InsufficientSamples,
    InvalidInterval,
    UndefinedScale,
    UndefinedSkill,
)

#: cumulative mass beyond which RPS tails are dropped; each dropped term is
#: (1 - F(k))^2 <= 1e-24, so the truncation error is below float resolution
RPS_TAIL = 1e-12


def mase(actuals, point_forecasts, training_series) -> float:
    """Mean absolute error over the horizon, scaled by the naive in-sample MAE.

    The scale Q is the mean absolute first difference of the training
    series; a constant or single-value training series has no defined scale.
    """
    y = np.asarray(actuals, dtype=float)
    f = np.asarray(point_forecasts, dtype=float)
    train = np.asarray(training_series, dtype=float)
    if y.shape != f.shape or y.size < 1:
        raise ValueError("actuals and forecasts must be equal-length and non-empty")
    if train.size < 2:
        raise UndefinedScale("training series has fewer than 2 values: no first difference")
    q = np.abs(np.diff(train)).mean()
    if q == 0:
        raise UndefinedScale("constant training series: MASE scale Q is zero")
    return float(np.abs(y - f).mean() / q)


def rps_discrete(pmf: CountPmf, y: int) -> float:
    """Ranked probability score sum_k (F(k) - 1{y <= k})^2 for a count pmf."""
    k_max = max(pmf.quantile_truncate(RPS_TAIL), int(y))
    ks = np.arange(k_max + 1)
    cdf = np.minimum(np.asarray(pmf.cdf(ks), dtype=float), 1.0)
    indicator = (int(y) <= ks).astype(float)
    return float(np.sum((cdf - indicator) ** 2))


def discretize_gaussian(g: GaussianForecast, epsilon: float = RPS_TAIL) -> Tabulated:
    """Continuity-corrected count pmf of a Gaussian.

    Cell k>0 takes the density mass on (k-0.5, k+0.5]; cell 0 takes all the
    mass below 0.5, folding any mass on the negatives into it. Support stops
    at the 1-epsilon quantile and the cells are renormalized.
    """
    sd = g.sd
    k_max = max(int(np.ceil(special.ndtri(1 - epsilon) * sd + g.mean + 0.5)), 0)
    edges = np.arange(k_max + 1) + 0.5
    upper = special.ndtr((edges - g.mean) / sd)
    cells = np.diff(np.concatenate([[0.0], upper]))
    return Tabulated.from_weights(cells)


def rps_gaussian_cc(g: GaussianForecast, y: int) -> float:
    """RPS of a Gaussian forecast scored on a count via continuity correction."""
    return rps_discrete(discretize_gaussian(g), y)


def mis(l: float, u: float, y: float, alpha: float) -> float:
    """Interval score: width plus 2/alpha times any coverage miss."""
    if l > u:
        raise InvalidInterval(f"lower bound {l} exceeds upper bound {u}")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    score = u - l
    if y < l:
        score += (2 / alpha) * (l - y)
    elif y > u:
        score += (2 / alpha) * (y - u)
    return float(score)


def energy_score(samples_a, samples_b, y, alpha_exp: float = 2.0) -> float:
    """Monte Carlo energy score E||y - s||^a - 0.5 E||s - s*||^a.

    The first expectation averages over both batches; the second pairs the
    two independent batches row by row, keeping the estimate unbiased.
    """
    a = np.atleast_2d(np.asarray(samples_a, dtype=float))
    b = np.atleast_2d(np.asarray(samples_b, dtype=float))
    y = np.asarray(y, dtype=float)
    if a.shape[0] < 1 or b.shape[0] < 1:
        raise InsufficientSamples("each batch needs at least one sample")
    if not 0 < alpha_exp <= 2:
        raise ValueError(f"alpha_exp must be in (0, 2], got {alpha_exp}")
    both = np.vstack([a, b])
    term_obs = (np.linalg.norm(both - y, axis=1) ** alpha_exp).mean()
    n_pairs = min(len(a), len(b))
    term_spread = (np.linalg.norm(a[:n_pairs] - b[:n_pairs], axis=1) ** alpha_exp).mean()
    return float(term_obs - 0.5 * term_spread)


def skill_score(metric_baseline: float, metric_method: float) -> float:
    """Symmetric relative improvement, bounded in [-2, 2].

    (baseline - method) / ((baseline + method) / 2); positive values favor
    the method over the baseline.
    """
    if metric_baseline < 0 or metric_method < 0:
        raise ValueError("skill score takes non-negative metric values")
    denom = (metric_baseline + metric_method) / 2
    if denom == 0:
        raise UndefinedSkill("both metric values are zero")
    return float((metric_baseline - metric_method) / denom)


@dataclass
class ScoreReport:
    """Long-format score rows plus skill rows against a baseline method."""

    rows: list[dict] = field(default_factory=list)
    skill_rows: list[dict] = field(default_factory=list)

    _COLUMNS = ("series", "level", "horizon", "metric", "method", "value")
    _SKILL_COLUMNS = ("metric", "level", "method", "baseline", "skill")

    def add(self, series, level, horizon, metric, method, value):
        self.rows.append(dict(zip(self._COLUMNS,
                                  (series, level, horizon, metric, method, float(value)))))

    def add_skill(self, metric, level, method, baseline, skill):
        self.skill_rows.append(dict(zip(self._SKILL_COLUMNS,
                                        (metric, level, method, baseline, float(skill)))))

    def values(self, **filters) -> list[float]:
        out = []
        for row in self.rows:
            if all(row[k] == v for k, v in filters.items()):
                out.append(row["value"])
        return out

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=self._COLUMNS)
            writer.writeheader()
            writer.writerows(self.rows)

    def skill_to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=self._SKILL_COLUMNS)
            writer.writeheader()
            writer.writerows(self.skill_rows)

    def to_json(self, path):
        Path(path).write_text(
            json.dumps({"scores": self.rows, "skill": self.skill_rows}, indent=1)
        )
