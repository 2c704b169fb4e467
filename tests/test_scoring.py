"""Tests for MASE, RPS, MIS, energy score and skill scores."""

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from reconc.conditioning import BaseForecastSet, central_interval, reconcile_exact
from reconc.distributions import GaussianForecast, Poisson, Tabulated
from reconc.errors import (
    InsufficientSamples,
    InvalidInterval,
    UndefinedScale,
    UndefinedSkill,
)
from reconc.hierarchy import build_temporal_hierarchy
from reconc.scoring import (
    discretize_gaussian,
    energy_score,
    mase,
    mis,
    rps_discrete,
    rps_gaussian_cc,
    skill_score,
)


def test_mase_examples():
    assert mase([3, 5], [3, 5], [1, 4, 2, 6]) == 0.0
    assert mase([1], [0], [0, 1, 0, 1]) == pytest.approx(1.0)
    with pytest.raises(UndefinedScale):
        mase([1], [0], [3, 3, 3])
    with pytest.raises(UndefinedScale):
        mase([1], [0], [3])


def test_rps_discrete_examples():
    point_at_2 = Tabulated(np.array([0.0, 0.0, 1.0]))
    assert rps_discrete(point_at_2, 2) == 0.0
    point_at_0 = Tabulated(np.array([1.0]))
    assert rps_discrete(point_at_0, 2) == pytest.approx(2.0)
    assert rps_discrete(Tabulated(np.array([0.5, 0.5])), 0) == pytest.approx(0.25)


def test_rps_discrete_nonnegative_and_zero_iff_point():
    rng = np.random.default_rng(0)
    for _ in range(50):
        probs = rng.dirichlet(np.ones(rng.integers(2, 8)))
        pmf = Tabulated(probs)
        y = int(rng.integers(0, len(probs) + 2))
        score = rps_discrete(pmf, y)
        assert score >= 0
        if probs.max() < 1 - 1e-9:
            assert score > 0


def test_rps_discrete_handles_realization_beyond_support():
    # realization far beyond the forecast support accumulates (F - 0)^2 terms
    pmf = Tabulated(np.array([0.5, 0.5]))
    assert rps_discrete(pmf, 4) == pytest.approx(0.25 + 1 + 1 + 1)


def test_rps_gaussian_degenerate_limit():
    assert rps_gaussian_cc(GaussianForecast(0.0, 1e-12), 0) < 1e-9


def test_rps_gaussian_equals_discretized():
    g = GaussianForecast(5.0, 1.0)
    assert rps_gaussian_cc(g, 5) == rps_discrete(discretize_gaussian(g), 5)


def quadrature_rps(mean, sd, y):
    """Brute-force oracle: integrate the density per cell, then score."""
    k_max = int(np.ceil(stats.norm.ppf(1 - 1e-12, mean, sd) + 0.5))
    cells = []
    for k in range(k_max + 1):
        lo = mean - 14 * sd if k == 0 else k - 0.5
        val, _ = quad(lambda t: stats.norm.pdf(t, mean, sd), lo, k + 0.5)
        cells.append(val)
    cells = np.array(cells) / np.sum(cells)
    cdf = np.cumsum(cells)
    k_all = max(k_max, y)
    cdf_full = np.concatenate([cdf, np.ones(k_all - k_max)])
    indicator = (y <= np.arange(k_all + 1)).astype(float)
    return float(np.sum((cdf_full - indicator) ** 2))


def test_rps_gaussian_against_quadrature():
    g = GaussianForecast(2.0, 1.0)
    for y in (0, 2, 5):
        assert rps_gaussian_cc(g, y) == pytest.approx(quadrature_rps(2.0, 1.0, y), abs=1e-6)


def test_rps_gaussian_approximates_high_mean_poisson():
    pois = Poisson(50.0)
    support = np.arange(pois.quantile_truncate(1e-12) + 1)
    tab = Tabulated.from_weights(pois.pmf(support))
    g = GaussianForecast(50.0, 50.0)
    assert abs(rps_gaussian_cc(g, 50) - rps_discrete(tab, 50)) < 0.05


def test_mis_examples():
    assert mis(0, 4, 2, 0.1) == pytest.approx(4.0)
    assert mis(0, 4, 5, 0.1) == pytest.approx(24.0)
    assert mis(3, 3, 3, 0.1) == 0.0
    with pytest.raises(InvalidInterval):
        mis(4, 0, 2, 0.1)


def test_mis_minimized_at_central_quantiles():
    # expected MIS over integer intervals is minimized at the equal-tailed
    # endpoints used by central_interval
    alpha = 0.2
    pois = Poisson(3.0)
    support = np.arange(pois.quantile_truncate(1e-12) + 1)
    tab = Tabulated.from_weights(pois.pmf(support))
    k = tab.support_max
    best, best_pair = np.inf, None
    for lo in range(k + 1):
        for hi in range(lo, k + 1):
            expected = sum(tab.probs[y] * mis(lo, hi, y, alpha) for y in range(k + 1))
            if expected < best - 1e-12:
                best, best_pair = expected, (lo, hi)
    assert best_pair == central_interval(tab, alpha)


def test_energy_score_closed_forms():
    y = np.array([1.0, 2.0, 3.0])
    same = np.tile(y, (10, 1))
    assert energy_score(same, same, y) == 0.0
    s0 = np.array([2.0, 2.0, 2.0])
    batch = np.tile(s0, (10, 1))
    assert energy_score(batch, batch, y, alpha_exp=2.0) == pytest.approx(
        float(np.sum((y - s0) ** 2)))
    with pytest.raises(InsufficientSamples):
        energy_score(np.empty((0, 3)), batch, y)


def test_energy_score_gaussian_closed_form():
    # with exponent 2 the spread terms cancel: ES = ||y - mu||^2
    rng = np.random.default_rng(42)
    mu = np.array([1.0, -2.0, 0.5])
    sd = np.array([1.0, 0.5, 2.0])
    y = np.array([0.0, 0.0, 0.0])
    n = 20_000
    a = rng.normal(mu, sd, size=(n, 3))
    b = rng.normal(mu, sd, size=(n, 3))
    est = energy_score(a, b, y, alpha_exp=2.0)
    # per-pair estimator variance for the 3-sigma band
    z = 0.5 * (((a - y) ** 2).sum(axis=1) + ((b - y) ** 2).sum(axis=1)) \
        - 0.5 * ((a - b) ** 2).sum(axis=1)
    closed = float(np.sum((y - mu) ** 2))
    assert abs(est - closed) < 3 * z.std(ddof=1) / np.sqrt(n)


def test_energy_score_exact_joint_enumeration_vs_monte_carlo():
    h = build_temporal_hierarchy(2, [2])
    base = BaseForecastSet([Poisson(2.0), Poisson(4.0)], [Poisson(9.0)])
    joint = reconcile_exact(h, base)
    full = joint.bottom_support @ h.s_matrix.T.astype(float)
    y = np.array([7.0, 3.0, 4.0])
    p = joint.probabilities
    term_obs = p @ (((full - y) ** 2).sum(axis=1))
    diff = full[:, None, :] - full[None, :, :]
    term_spread = np.einsum("i,j,ijk->", p, p, diff**2)
    enumerated = float(term_obs - 0.5 * term_spread)

    rng = np.random.default_rng(9)
    n = 20_000
    a = joint.sample(n, rng) @ h.s_matrix.T.astype(float)
    b = joint.sample(n, rng) @ h.s_matrix.T.astype(float)
    est = energy_score(a, b, y, alpha_exp=2.0)
    z = 0.5 * (((a - y) ** 2).sum(axis=1) + ((b - y) ** 2).sum(axis=1)) \
        - 0.5 * ((a - b) ** 2).sum(axis=1)
    assert abs(est - enumerated) < 3 * z.std(ddof=1) / np.sqrt(n)


def test_skill_score_examples():
    assert skill_score(0.3, 0.3) == 0.0
    assert skill_score(0.5, 0.0) == pytest.approx(2.0)
    assert skill_score(0.5, 0.4) == pytest.approx(0.1 / 0.45)  # ~0.2222
    with pytest.raises(UndefinedSkill):
        skill_score(0.0, 0.0)


def test_skill_score_antisymmetric_and_bounded():
    rng = np.random.default_rng(1)
    for _ in range(10_000):
        a, b = rng.uniform(0, 100, size=2)
        s = skill_score(a, b)
        assert -2 <= s <= 2
        assert s == pytest.approx(-skill_score(b, a), abs=1e-12)
