"""Tests for the Metropolis-Hastings sampler over bottom count vectors."""

import numpy as np
import pytest

from reconc.conditioning import (
    BaseForecastSet,
    _split_rhat,
    reconcile_exact,
    reconcile_mcmc,
    summarize,
)
from reconc.distributions import NegBinomial, Poisson, Tabulated
from reconc.errors import ConvergenceWarning, SamplerStuck
from reconc.hierarchy import Hierarchy, build_temporal_hierarchy
from reference_mcmc import reference_mcmc

MINIMAL = build_temporal_hierarchy(2, [2])


def poisson_249():
    return BaseForecastSet([Poisson(2.0), Poisson(4.0)], [Poisson(9.0)])


def empirical_pair_distribution(draws, shape):
    freq = np.zeros(shape)
    inside = (draws[:, 0] < shape[0]) & (draws[:, 1] < shape[1])
    np.add.at(freq, (draws[inside, 0], draws[inside, 1]), 1.0)
    return freq / len(draws)


def test_means_match_exact_oracle():
    base = poisson_249()
    exact = summarize(reconcile_exact(MINIMAL, base), MINIMAL)
    joint = reconcile_mcmc(MINIMAL, base, n_chains=4, n_samples=10_000, seed=0)
    sampled = summarize(joint, MINIMAL)
    for label in MINIMAL.node_labels:
        assert abs(sampled[label].mean - exact[label].mean) <= 0.1


def test_total_variation_against_exact():
    base = poisson_249()
    exact = reconcile_exact(MINIMAL, base)
    k1 = exact.bottom_support[:, 0].max() + 1
    k2 = exact.bottom_support[:, 1].max() + 1
    exact_grid = np.zeros((k1, k2))
    exact_grid[exact.bottom_support[:, 0], exact.bottom_support[:, 1]] = exact.probabilities

    joint = reconcile_mcmc(MINIMAL, base, n_chains=4, n_samples=10_000, seed=0)
    assert len(joint.draws) == 40_000
    emp = empirical_pair_distribution(joint.draws, (k1, k2))
    tv = 0.5 * np.abs(emp - exact_grid).sum()
    assert tv <= 0.02


def test_point_mass_target():
    base = BaseForecastSet(
        [Tabulated(np.array([0.0, 0.0, 1.0])), Tabulated(np.array([0.0, 1.0]))],
        [Tabulated(np.array([0.0, 0.0, 0.0, 1.0]))],
    )
    joint = reconcile_mcmc(MINIMAL, base, n_chains=2, n_samples=200, seed=1)
    assert (joint.draws == [2, 1]).all()
    assert (joint.diagnostics.acceptance_rates == 0).all()


def test_published_cell_frequencies():
    base = BaseForecastSet(
        [Tabulated(np.array([0.5, 0.5])), Tabulated(np.array([0.5, 0.5]))],
        [Tabulated(np.array([0.5, 0.2, 0.3]))],
    )
    joint = reconcile_mcmc(MINIMAL, base, n_chains=4, n_samples=10_000, seed=2)
    emp = empirical_pair_distribution(joint.draws, (2, 2))
    expected = np.array([[5 / 12, 1 / 6], [1 / 6, 1 / 4]])
    assert np.abs(emp - expected).max() <= 0.02


def test_deterministic_for_fixed_seed():
    base = poisson_249()
    a = reconcile_mcmc(MINIMAL, base, n_chains=2, n_samples=500, seed=7)
    b = reconcile_mcmc(MINIMAL, base, n_chains=2, n_samples=500, seed=7)
    c = reconcile_mcmc(MINIMAL, base, n_chains=2, n_samples=500, seed=8)
    assert np.array_equal(a.draws, b.draws)
    assert not np.array_equal(a.draws, c.draws)


def test_diagnostics_populated():
    joint = reconcile_mcmc(MINIMAL, poisson_249(), n_chains=4, n_samples=5000, seed=3)
    d = joint.diagnostics
    assert d.n_chains == 4 and d.n_kept == 20_000
    assert ((d.acceptance_rates > 0) & (d.acceptance_rates < 1)).all()
    assert (d.rhat < 1.05).all()


def test_sampler_stuck_on_empty_target():
    # bottoms pinned at zero but evidence demands a total of five
    base = BaseForecastSet(
        [Tabulated(np.array([1.0])), Tabulated(np.array([1.0]))],
        [Tabulated(np.array([0.0] * 5 + [1.0]))],
    )
    with pytest.raises(SamplerStuck):
        reconcile_mcmc(MINIMAL, base, n_chains=2, n_samples=100, seed=0)


@pytest.mark.parametrize("name, value", [("n_chains", 0), ("burn_in", -1), ("n_samples", 0),
                                         ("thin", 0)])
def test_refuses_settings_without_draws(name, value):
    with pytest.raises(ValueError, match=name):
        reconcile_mcmc(MINIMAL, poisson_249(), **{"n_samples": 10, "seed": 0, name: value})


def test_split_rhat_detects_disagreeing_chains():
    rng = np.random.default_rng(0)
    mixed = rng.normal(size=(4, 1000, 1))
    assert _split_rhat(mixed)[0] < 1.05
    shifted = mixed.copy()
    shifted[0] += 10.0  # one chain stuck in a different region
    assert _split_rhat(shifted)[0] > 1.1
    constant = np.ones((4, 1000, 1))
    assert _split_rhat(constant)[0] == 1.0


def test_convergence_warning_on_multimodal_target():
    # two modes joined by a thin bridge: short chains disagree
    bridge = Tabulated(np.array([0.4995, 0.001, 0.4995]))
    base = BaseForecastSet([bridge, bridge], [None])
    with pytest.warns(ConvergenceWarning):
        joint = reconcile_mcmc(MINIMAL, base, n_chains=4, n_samples=60, seed=5, thin=1)
    assert (joint.diagnostics.rhat > 1.1).any()


def test_short_runs_do_not_crash():
    joint = reconcile_mcmc(MINIMAL, poisson_249(), n_chains=2, n_samples=1, seed=0)
    assert joint.draws.shape == (2, 2)
    assert np.isnan(joint.diagnostics.rhat).all()


ORACLE_CASES = {
    "poisson_249": (MINIMAL, poisson_249()),
    "table2": (MINIMAL, BaseForecastSet(
        [Tabulated(np.array([0.5, 0.5])), Tabulated(np.array([0.5, 0.5]))],
        [Tabulated(np.array([0.5, 0.2, 0.3]))])),
    "point_mass": (MINIMAL, BaseForecastSet(
        [Tabulated(np.array([0.0, 0.0, 1.0])), Tabulated(np.array([0.0, 1.0]))],
        [Tabulated(np.array([0.0, 0.0, 0.0, 1.0]))])),
    "h421_one_absent": (build_temporal_hierarchy(4, [2, 4]), BaseForecastSet(
        [Poisson(1.0), Poisson(2.0), Poisson(0.5), Poisson(3.0)],
        [Poisson(8.0), None, Poisson(3.0)])),
    "non_temporal_json": (Hierarchy.from_json('{"A": [[1, 1, 0], [0, 1, 1], [1, 1, 1]]}'),
                          BaseForecastSet(
        [Poisson(1.5), NegBinomial(2.0, 0.4), Poisson(0.8)],
        [Poisson(5.0), Poisson(3.5), Poisson(6.0)])),
    # bottom medians (1, 1) sum to 2, where the evidence has no mass
    "unreached_start": (MINIMAL, BaseForecastSet(
        [Tabulated(np.array([0.1, 0.8, 0.1])), Tabulated(np.array([0.1, 0.8, 0.1]))],
        [Tabulated(np.array([0.0, 0.0, 0.0, 0.6, 0.4]))])),
}


@pytest.mark.filterwarnings("ignore::reconc.errors.ConvergenceWarning")  # short chains
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_draws_equal_lockstep_reference(case):
    h, base = ORACLE_CASES[case]
    settings = dict(n_chains=3, n_samples=200, burn_in=150, seed=11, thin=2)
    joint = reconcile_mcmc(h, base, **settings)
    draws, acceptance, rhat, reached = reference_mcmc(h, base, **settings)
    assert reached.all()
    assert np.array_equal(joint.draws, draws)
    assert np.array_equal(joint.diagnostics.acceptance_rates, acceptance)
    assert np.array_equal(joint.diagnostics.rhat, rhat, equal_nan=True)


def test_unreached_start_finds_the_target():
    # medians (1, 1) sum to 2; the evidence puts all its mass on 3
    base = BaseForecastSet(
        [Tabulated(np.array([0.1, 0.8, 0.1])), Tabulated(np.array([0.3, 0.7]))],
        [Tabulated(np.array([0.0, 0.0, 0.0, 1.0]))],
    )
    joint = reconcile_mcmc(MINIMAL, base, n_chains=4, n_samples=500, seed=0)
    assert (joint.draws.sum(axis=1) == 3).all()
