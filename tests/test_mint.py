"""Tests for minT Gaussian reconciliation and the truncated variant."""

import numpy as np
import pytest

from helpers import MINIMAL
from reconc.distributions import GaussianForecast
from reconc.errors import DimensionError, MissingForecast
from reconc.hierarchy import aggregate, build_temporal_hierarchy, is_coherent
from reconc.mint import (
    HierarchyVariance,
    StructuralScaling,
    build_w,
    mint_g,
    reconcile_gaussian,
    reconcile_truncated,
)


def random_hierarchy(rng):
    choices = [(2, [2]), (4, [2, 4]), (6, [2, 3, 6]), (8, [2, 4, 8]),
               (12, [2, 3, 4, 6, 12]), (9, [3, 9]), (10, [2, 5, 10])]
    m, factors = choices[rng.integers(len(choices))]
    return build_temporal_hierarchy(m, factors)


def test_build_w_structural():
    assert np.array_equal(build_w(MINIMAL, StructuralScaling()), np.diag([2.0, 1, 1]))
    h = build_temporal_hierarchy(4, [2, 4])
    assert np.array_equal(build_w(h, StructuralScaling()),
                          np.diag([4.0, 2, 2, 1, 1, 1, 1]))


def test_build_w_hierarchy_variance():
    w = build_w(MINIMAL, HierarchyVariance(np.ones(3)))
    assert np.array_equal(w, np.eye(3))
    with pytest.raises(DimensionError):
        build_w(MINIMAL, HierarchyVariance(np.ones(2)))
    with pytest.raises(DimensionError):
        build_w(MINIMAL, HierarchyVariance(np.array([1.0, -1.0, 1.0])))


def test_identity_w_projection():
    for h in (MINIMAL, build_temporal_hierarchy(4, [2, 4])):
        g = mint_g(h, np.eye(h.n))
        assert np.allclose(g @ h.s_matrix, np.eye(h.m), atol=1e-10)


def test_gs_identity_and_idempotence_randomized():
    rng = np.random.default_rng(42)
    for _ in range(100):
        h = random_hierarchy(rng)
        w = np.diag(rng.uniform(0.1, 10.0, size=h.n))
        g = mint_g(h, w)
        s = h.s_matrix.astype(float)
        assert np.allclose(g @ s, np.eye(h.m), atol=1e-8)
        sg = s @ g
        assert np.allclose(sg @ sg, sg, atol=1e-8)


def test_coherent_input_is_fixed_point():
    rng = np.random.default_rng(3)
    h = build_temporal_hierarchy(4, [2, 4])
    for _ in range(10):
        b = rng.uniform(0, 10, size=h.m)
        y = h.s_matrix @ b
        w = np.diag(rng.uniform(0.5, 5.0, size=h.n))
        assert np.allclose(mint_g(h, w) @ y, b, atol=1e-9)


def _solve_2x2(w_diag, y_hat):
    """Independent oracle: explicit normal equations on the minimal hierarchy."""
    s = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    w_inv = np.diag(1.0 / np.asarray(w_diag, dtype=float))
    gram = s.T @ w_inv @ s
    rhs = s.T @ w_inv @ np.asarray(y_hat, dtype=float)
    det = gram[0, 0] * gram[1, 1] - gram[0, 1] * gram[1, 0]
    inv = np.array([[gram[1, 1], -gram[0, 1]], [-gram[1, 0], gram[0, 0]]]) / det
    return inv @ rhs


def test_minimal_example_matches_hand_solve():
    base = [GaussianForecast(9, 6), GaussianForecast(2, 2), GaussianForecast(4, 4)]
    rec = reconcile_gaussian(MINIMAL, base)
    oracle = _solve_2x2([6, 2, 4], [9, 2, 4])
    assert np.allclose(rec.bottom_mean, oracle, atol=1e-10)
    assert np.allclose(rec.bottom_mean, [2.5, 5.0], atol=1e-10)
    assert np.allclose(rec.mean, [7.5, 2.5, 5.0], atol=1e-10)


def test_minimal_example_base_variances():
    # hierarchy-variance W built from the base forecasts themselves
    base = [GaussianForecast(9, 9), GaussianForecast(2, 2), GaussianForecast(4, 4)]
    rec = reconcile_gaussian(MINIMAL, base)
    assert np.allclose(rec.bottom_mean, _solve_2x2([9, 2, 4], [9, 2, 4]), atol=1e-10)
    assert np.allclose(rec.bottom_mean, [2.4, 4.8], atol=1e-10)


def test_mean_invariant_under_w_scaling():
    rng = np.random.default_rng(9)
    h = build_temporal_hierarchy(4, [2, 4])
    y = rng.uniform(0, 10, size=h.n)
    v = rng.uniform(0.2, 4.0, size=h.n)
    base = [GaussianForecast(mu, var) for mu, var in zip(y, v)]
    rec1 = reconcile_gaussian(h, base, HierarchyVariance(v))
    rec2 = reconcile_gaussian(h, base, HierarchyVariance(7.3 * v))
    assert np.allclose(rec1.mean, rec2.mean, atol=1e-10)


def test_covariance_forms_agree():
    # S (S'W^-1 S)^-1 S' must equal S G W G' S'
    rng = np.random.default_rng(17)
    for _ in range(20):
        h = random_hierarchy(rng)
        w = np.diag(rng.uniform(0.1, 10.0, size=h.n))
        g = mint_g(h, w)
        s = h.s_matrix.astype(float)
        direct = s @ np.linalg.inv(s.T @ np.linalg.solve(w, s)) @ s.T
        via_g = s @ g @ w @ g.T @ s.T
        assert np.allclose(direct, via_g, atol=1e-10)


def test_reconciled_properties():
    base = [GaussianForecast(9, 9), GaussianForecast(2, 2), GaussianForecast(4, 4)]
    rec = reconcile_gaussian(MINIMAL, base)
    # coherent mean and symmetric PSD covariance
    assert np.allclose(rec.mean, MINIMAL.s_matrix @ rec.bottom_mean, atol=1e-8)
    assert np.allclose(rec.covariance, rec.covariance.T)
    assert np.linalg.eigvalsh(rec.covariance).min() > -1e-8
    # the bottom block of the full covariance is the bottom covariance
    assert np.allclose(rec.covariance[1:, 1:], rec.bottom_cov, atol=1e-12)


def test_sample_bottom_recovers_moments():
    base = [GaussianForecast(9, 9), GaussianForecast(2, 2), GaussianForecast(4, 4)]
    rec = reconcile_gaussian(MINIMAL, base)
    draws = rec.sample(200_000, np.random.default_rng(0))
    assert np.allclose(draws.mean(axis=0), rec.bottom_mean, atol=0.02)
    assert np.allclose(np.cov(draws.T), rec.bottom_cov, atol=0.05)


def test_covariance_matches_monte_carlo():
    base = [GaussianForecast(9, 9), GaussianForecast(2, 2), GaussianForecast(4, 4)]
    rec = reconcile_gaussian(MINIMAL, base)
    w_diag = np.array([9.0, 2.0, 4.0])
    g = mint_g(MINIMAL, np.diag(w_diag))
    rng = np.random.default_rng(123)
    n = 200_000
    y_draws = rng.normal(loc=[9, 2, 4], scale=np.sqrt(w_diag), size=(n, 3))
    rec_draws = y_draws @ (MINIMAL.s_matrix.astype(float) @ g).T
    sample_cov = np.cov(rec_draws.T)
    se = np.sqrt((np.outer(np.diag(rec.covariance), np.diag(rec.covariance))
                  + rec.covariance**2) / (n - 1))
    assert (np.abs(sample_cov - rec.covariance) < 3 * se + 1e-6).all()


def test_missing_forecast():
    base = [GaussianForecast(9, 9), None, GaussianForecast(4, 4)]
    with pytest.raises(MissingForecast):
        reconcile_gaussian(MINIMAL, base)


def test_truncated_samples_are_coherent_counts():
    base = [GaussianForecast(9, 9), GaussianForecast(2, 2), GaussianForecast(4, 4)]
    joint = reconcile_truncated(MINIMAL, base, n_samples=500, seed=4)
    assert joint.draws.shape == (500, 2)
    assert (joint.draws >= 0).all()
    for row in joint.draws[:50]:
        assert is_coherent(MINIMAL, aggregate(MINIMAL, row))


def test_truncated_degenerate_at_zero():
    base = [GaussianForecast(0, 1e-12), GaussianForecast(0, 1e-12),
            GaussianForecast(0, 1e-12)]
    joint = reconcile_truncated(MINIMAL, base, n_samples=100, seed=0)
    assert (joint.draws == 0).all()


def test_truncation_raises_bottom_means():
    base = [GaussianForecast(9, 9), GaussianForecast(2, 2), GaussianForecast(4, 4)]
    rec = reconcile_gaussian(MINIMAL, base)
    joint = reconcile_truncated(MINIMAL, base, n_samples=40_000, seed=11)
    sample_means = joint.draws.mean(axis=0)
    # left truncation at zero can only lift the means (2.4, 4.8)
    assert (sample_means >= rec.bottom_mean).all()


def test_truncated_deterministic():
    base = [GaussianForecast(9, 9), GaussianForecast(2, 2), GaussianForecast(4, 4)]
    a = reconcile_truncated(MINIMAL, base, n_samples=200, seed=21)
    b = reconcile_truncated(MINIMAL, base, n_samples=200, seed=21)
    assert np.array_equal(a.draws, b.draws)
