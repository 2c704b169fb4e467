"""The library's scipy.special closed forms, pinned against scipy.stats.

The library evaluates its pmfs, cdfs, quantiles and truncated-normal draws
with the scipy.special functions that scipy.stats itself calls; these tests
use scipy.stats as the oracle for them.
"""

import numpy as np
import pytest
from scipy import special, stats

from reconc import harness
from reconc.distributions import GaussianForecast, NegBinomial, Poisson, Tabulated
from reconc.hierarchy import build_temporal_hierarchy
from reconc.mint import _std_normal_above, reconcile_gaussian, reconcile_truncated
from reconc.scoring import discretize_gaussian

KS = np.arange(201)
QUANTILE_LEVELS = (0.05, 0.5, 1 - 1e-9, 1 - 1e-15)
NB_GRID = [(r, p) for r in (0.1, 0.5, 1.0, 2.5, 7.0, 20.0, 40.0)
           for p in (0.05, 0.2, 0.5, 0.8, 0.95)]


@pytest.mark.parametrize("rate", np.linspace(0, 40, 81))
def test_poisson_matches_scipy_stats(rate):
    d = Poisson(float(rate))
    assert np.array_equal(d.pmf(KS), stats.poisson.pmf(KS, rate))
    assert np.array_equal(d.cdf(KS), stats.poisson.cdf(KS, rate))
    for q in QUANTILE_LEVELS:
        expected = 0 if rate == 0 else int(stats.poisson.ppf(q, rate))
        assert d.quantile(q) == expected


@pytest.mark.parametrize("r, p", NB_GRID)
def test_negbinomial_matches_scipy_stats(r, p):
    d = NegBinomial(r, p)
    assert np.array_equal(d.cdf(KS), stats.nbinom.cdf(KS, r, p))
    np.testing.assert_allclose(d.pmf(KS), stats.nbinom.pmf(KS, r, p), rtol=1e-12, atol=0)
    assert d.variance() == pytest.approx(stats.nbinom.var(r, p), rel=1e-12, abs=0)
    for q in QUANTILE_LEVELS:
        k = d.quantile(q)
        assert d.cdf(k) >= q and (k == 0 or d.cdf(k - 1) < q)
        if q != 1 - 1e-15:  # there scipy may return k + 1 although cdf(k) already equals q
            assert k == int(stats.nbinom.ppf(q, r, p))


def test_gaussian_discretization_and_interval_match_scipy_stats():
    for mean, var in [(0.0, 1.0), (3.7, 0.4), (-2.0, 9.0), (40.0, 55.5)]:
        sd = np.sqrt(var)
        k_max = max(int(np.ceil(stats.norm.ppf(1 - 1e-9, mean, sd) + 0.5)), 0)
        cells = np.diff(np.concatenate(
            [[0.0], stats.norm.cdf(np.arange(k_max + 1) + 0.5, mean, sd)]))
        got = discretize_gaussian(GaussianForecast(mean, var), 1e-9)
        assert np.array_equal(got.probs, Tabulated.from_weights(cells).probs)
        for alpha in (0.05, 0.1, 0.5):
            z = stats.norm.ppf(1 - alpha / 2)
            lo, hi = harness._gaussian_node_summary(mean, var, alpha)["interval"]
            assert (lo, hi) == (float(mean - z * sd), float(mean + z * sd))


def test_truncated_normal_inverse_cdf_matches_scipy_truncnorm():
    for a in np.linspace(-4, 4, 81):
        u = np.random.default_rng(3).uniform(size=1000)
        reference = stats.truncnorm.rvs(a, np.inf, size=1000, random_state=np.random.default_rng(3))
        assert np.array_equal(_std_normal_above(a, u), reference)


def test_truncated_normal_left_branch_equals_scipy_logsumexp():
    # the two-term log-sum-exp of the a < 0 branch, against the scipy call it
    # replaced, far into the left tail and at the ends of the uniform draws
    u = np.concatenate([[0.0, 2.0**-53, 1 - 2.0**-53],
                        np.random.default_rng(5).uniform(size=1000)])
    grid = np.linspace(-4, 4, 81)
    for a in [-38.0, -12.0, -1e-12] + grid[grid < 0].tolist():
        log_mass = special.log1p(-special.ndtr(a))
        with np.errstate(divide="ignore"):  # log(0) at u = 0
            log_cdf = special.logsumexp([np.full_like(u, special.log_ndtr(a)),
                                         np.log(u) + log_mass], axis=0)
            got = _std_normal_above(a, u)
        # at a = -1e-12 and u = 1 - 2**-53 the log cdf rounds above 0, where scipy's
        # inverse is NaN; test_truncated_normal_left_branch_near_u_one checks those draws
        defined = log_cdf < 0
        assert np.array_equal(got[defined], special.ndtri_exp(log_cdf[defined])), a
        assert defined.all() or a == -1e-12
        assert np.isfinite(got).all(), a


def test_truncated_normal_left_branch_near_u_one():
    # at a = -1e-12 the two-term log cdf rounds to 0 for u = 1 - 2**-52 (inverse inf) and
    # above 0 for u = 1 - 2**-53 (NaN); both draws belong in the far right tail
    u = 1 - np.array([2.0**-53, 2.0**-52])
    got = _std_normal_above(-1e-12, u)
    assert np.array_equal(np.round(got, 2), [8.29, 8.21])
    assert np.allclose(got, -special.ndtri((1 - u) * special.ndtr(1e-12)), rtol=1e-12, atol=0)
    assert (got >= _std_normal_above(-1e-9, u)).all()  # a higher truncation point


class UniformNearOne(np.random.Generator):
    """A generator whose uniform draws are 1 - 2**-53 and 1 - 2**-52 in turn."""

    def uniform(self, size=None):
        return np.resize(1 - np.array([2.0**-53, 2.0**-52]), size)


def test_truncated_draws_near_u_one_are_far_out():
    # bottom means 1e-12 with sd 0.866: a = -1.15e-12, and x = 8.29 and 8.21 scale to 7.2 and 7.1
    h = build_temporal_hierarchy(2, [2])
    base = [GaussianForecast(2e-12, 2.0), GaussianForecast(1e-12, 1.0),
            GaussianForecast(1e-12, 1.0)]
    joint = reconcile_truncated(h, base, n_samples=2, seed=UniformNearOne(np.random.PCG64(0)))
    assert (joint.draws == 7).all()


@pytest.mark.parametrize("bottom_mean", [2.5, 0.0, -1.5])  # truncation point a < 0, = 0, > 0
def test_truncated_draws_match_scipy_truncnorm(bottom_mean):
    h = build_temporal_hierarchy(2, [2])
    base = [GaussianForecast(2 * bottom_mean, 3.0), GaussianForecast(bottom_mean, 1.0),
            GaussianForecast(bottom_mean, 2.0)]
    rec = reconcile_gaussian(h, base)
    rng = np.random.default_rng(9)
    expected = np.empty((4000, h.m), dtype=np.int64)
    for j in range(h.m):
        mu, sd = rec.bottom_mean[j], float(np.sqrt(rec.bottom_cov[j, j]))
        a = -mu / sd
        assert np.sign(a) == -np.sign(bottom_mean)
        x = stats.truncnorm.rvs(a, np.inf, loc=mu, scale=sd, size=4000, random_state=rng)
        expected[:, j] = np.maximum(np.rint(x).astype(np.int64), 0)
    joint = reconcile_truncated(h, base, n_samples=4000, seed=9)
    assert np.array_equal(joint.draws, expected)
