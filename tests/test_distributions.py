"""Tests for count pmfs, Gaussians and moment fitting."""

import math

import numpy as np
import pytest

from reconc.distributions import (
    GaussianForecast,
    NegBinomial,
    Poisson,
    Tabulated,
    count_pmf_from_dict,
    fit_gaussian,
    fit_negbinomial,
    gaussian_from_dict,
)
from reconc.errors import InsufficientSamples


def test_pmf_closed_forms():
    assert math.isclose(Poisson(2.0).pmf(0), math.exp(-2), rel_tol=1e-12)
    assert Tabulated(np.array([0.5, 0.2, 0.3])).pmf(1) == 0.2
    # C(2,1) * 0.5^2 * 0.5^1 = 0.25
    assert math.isclose(NegBinomial(2, 0.5).pmf(1), 0.25, rel_tol=1e-12)


def test_tabulated_out_of_support():
    d = Tabulated(np.array([0.5, 0.2, 0.3]))
    assert d.pmf(3) == 0.0
    assert d.pmf(100) == 0.0
    assert d.cdf(5) == pytest.approx(1.0)


def test_quantile_truncate_examples():
    assert Tabulated(np.array([0.5, 0.2, 0.3])).quantile_truncate(1e-9) == 2
    assert Poisson(0.0).quantile_truncate(1e-9) == 0


def test_quantile_truncate_poisson_vs_cumsum_oracle():
    for rate, eps in [(9.0, 1e-9), (2.0, 1e-12), (4.0, 1e-9)]:
        d = Poisson(rate)
        k, cum = 0, d.pmf(0)
        while cum < 1 - eps:
            k += 1
            cum += d.pmf(k)
        assert d.quantile_truncate(eps) == k


def test_truncated_support_holds_almost_all_mass():
    for d in (Poisson(2.0), Poisson(9.0), NegBinomial(2, 0.5), NegBinomial(0.7, 0.1),
              Tabulated(np.array([0.5, 0.2, 0.3]))):
        k = d.quantile_truncate(1e-12)
        total = float(np.sum(d.pmf(np.arange(k + 1))))
        assert 1 - 1e-9 <= total <= 1 + 1e-12


def test_fit_negbinomial_moment_examples():
    # mean 2, unbiased variance 2: equidispersed boundary falls back to Poisson
    d = fit_negbinomial([0, 2, 2, 2, 4])
    assert isinstance(d, Poisson) and d.rate == pytest.approx(2.0)
    # mean 2, unbiased variance 4: r = 4/2 = 2, p = 2/4 = 0.5
    d = fit_negbinomial([0, 2, 4])
    assert isinstance(d, NegBinomial)
    assert d.r == pytest.approx(2.0) and d.p == pytest.approx(0.5)


def test_fit_negbinomial_all_zero():
    d = fit_negbinomial([0, 0, 0, 0])
    assert isinstance(d, Tabulated)
    assert d.probs.tolist() == [1.0]


def test_fit_negbinomial_recovers_sampled_mean():
    true = NegBinomial(3.0, 0.4)
    rng = np.random.default_rng(7)
    draws = true.sample(100_000, rng)
    fitted = fit_negbinomial(draws)
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(fitted.mean() - true.mean()) < 3 * se + 1e-9


def test_fit_gaussian():
    g = fit_gaussian([1, 1, 1, 1])
    assert g.mean == 1.0 and g.variance == pytest.approx(1e-9)
    g = fit_gaussian([0, 2])
    assert g.mean == 1.0 and g.variance == pytest.approx(2.0)
    with pytest.raises(InsufficientSamples):
        fit_gaussian([3])


def test_fit_gaussian_poisson_samples():
    rng = np.random.default_rng(11)
    draws = Poisson(9.0).sample(50_000, rng)
    g = fit_gaussian(draws)
    assert abs(g.mean - 9.0) < 0.2
    assert abs(g.variance - 9.0) < 1.0


def test_sampling_moments_and_determinism():
    rng = np.random.default_rng(1)
    assert Tabulated(np.array([1.0])).sample(5, rng).tolist() == [0, 0, 0, 0, 0]

    draws = Poisson(2.0).sample(100_000, np.random.default_rng(1))
    assert abs(draws.mean() - 2.0) < 0.03  # 3 sigma/sqrt(n) bound

    draws = NegBinomial(2, 0.5).sample(100_000, np.random.default_rng(2))
    assert abs(draws.mean() - 2.0) < 0.05

    a = NegBinomial(2, 0.5).sample(100, np.random.default_rng(5))
    b = NegBinomial(2, 0.5).sample(100, np.random.default_rng(5))
    assert np.array_equal(a, b)


def test_pmf_eval_is_pure():
    d = NegBinomial(1.5, 0.3)
    assert d.pmf(4) == d.pmf(4)
    assert d.cdf(4) == d.cdf(4)


def test_validation():
    with pytest.raises(ValueError):
        Poisson(-1.0)
    with pytest.raises(ValueError):
        NegBinomial(0.0, 0.5)
    with pytest.raises(ValueError):
        NegBinomial(1.0, 1.0)
    with pytest.raises(ValueError):
        Tabulated(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        GaussianForecast(0.0, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_parameters_refused(bad):
    with pytest.raises(ValueError, match="Poisson rate must be finite"):
        Poisson(bad)
    with pytest.raises(ValueError, match="size r must be finite"):
        NegBinomial(bad, 0.5)
    with pytest.raises(ValueError, match="mean must be finite"):
        GaussianForecast(bad, 1.0)
    with pytest.raises(ValueError, match="variance must be finite"):
        GaussianForecast(0.0, bad)
    with pytest.raises(ValueError):
        Tabulated(np.array([0.5, bad, 0.5]))
    with pytest.raises(ValueError, match="must be finite"):
        count_pmf_from_dict({"dist": "poisson", "lambda": bad})


def test_quantile_at_the_ends_of_the_domain():
    for d in (Poisson(2.0), NegBinomial(1.5, 0.3)):
        assert d.quantile(0.0) == 0
        assert d.quantile(-0.5) == 0
        for q in (1.0, math.nan):
            with pytest.raises(ValueError, match=f"q={q} must be < 1"):
                d.quantile(q)
    assert Poisson(0.0).quantile(1.0) == 0
    tab = Tabulated(np.array([0.2, 0.3, 0.5]))
    assert (tab.quantile(0.0), tab.quantile(1.0)) == (0, 2)


def test_forecast_entry_parsing():
    assert isinstance(count_pmf_from_dict({"dist": "poisson", "lambda": 2}), Poisson)
    assert isinstance(count_pmf_from_dict({"dist": "negbin", "r": 2, "p": 0.5}), NegBinomial)
    assert isinstance(count_pmf_from_dict({"dist": "tabulated", "probs": [1.0]}), Tabulated)
    assert isinstance(count_pmf_from_dict({"samples": [0, 2, 4]}), NegBinomial)
    with pytest.raises(ValueError):
        count_pmf_from_dict({"dist": "gaussian", "mean": 0, "var": 1})

    g = gaussian_from_dict({"dist": "poisson", "lambda": 3})
    assert g.mean == 3.0 and g.variance == 3.0
    g = gaussian_from_dict({"dist": "gaussian", "mean": 1.5, "var": 0.5})
    assert g.variance == 0.5
    g = gaussian_from_dict({"samples": [0, 2]})
    assert g.mean == 1.0
