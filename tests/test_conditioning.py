"""Tests for exact count reconciliation by virtual-evidence conditioning."""

import itertools

import numpy as np
import pytest

from reconc.conditioning import (
    BaseForecastSet,
    CountJoint,
    bottom_up_exact,
    condition_on_upper,
    correlation,
    reconcile_exact,
    summarize,
)
from reconc.distributions import Poisson, Tabulated
from reconc.errors import (
    IncompatibleEvidence,
    SupportTooLarge,
    UndefinedCorrelation,
)
from reconc.hierarchy import aggregate, build_temporal_hierarchy, is_coherent

MINIMAL = build_temporal_hierarchy(2, [2])
H421 = build_temporal_hierarchy(4, [2, 4])

# ground-truth moments for Poisson bottoms (2, 4) conditioned on an
# aggregate Poisson(9) evidence, from 50-digit enumeration over 0..80^2
EXACT_MEANS = {"b1": 2.3646303986, "b2": 4.7292607972, "agg2_1": 7.0938911958}
EXACT_VARS = {"b1": 1.9849433438, "b2": 3.2105125780, "agg2_1": 3.6767077026}
EXACT_CORR = -0.3008115729


def uniform_pair():
    half = Tabulated(np.array([0.5, 0.5]))
    return BaseForecastSet([half, half], [None])


def poisson_249():
    return BaseForecastSet([Poisson(2.0), Poisson(4.0)], [Poisson(9.0)])


def test_bottom_up_uniform_cells():
    joint = bottom_up_exact(MINIMAL, uniform_pair())
    cells = {tuple(a): p for a, p in zip(joint.bottom_support, joint.probabilities)}
    assert cells == {(0, 0): 0.25, (0, 1): 0.25, (1, 0): 0.25, (1, 1): 0.25}


def test_bottom_up_point_mass():
    base = BaseForecastSet(
        [Tabulated(np.array([0.0, 1.0])), Tabulated(np.array([0.0, 0.0, 1.0]))],
        [None],
    )
    joint = bottom_up_exact(MINIMAL, base)
    idx = np.argmax(joint.probabilities)
    assert joint.probabilities[idx] == pytest.approx(1.0)
    assert joint.bottom_support[idx].tolist() == [1, 2]
    assert aggregate(MINIMAL, joint.bottom_support[idx]).tolist() == [3, 1, 2]


def test_bottom_up_poisson_sum_is_poisson():
    base = BaseForecastSet([Poisson(2.0), Poisson(4.0)], [None])
    joint = bottom_up_exact(MINIMAL, base, epsilon=1e-9)
    top = summarize(joint, MINIMAL)["agg2_1"].pmf
    expected = Poisson(6.0)
    ks = np.arange(top.support_max + 1)
    assert np.abs(top.probs - expected.pmf(ks)).max() < 1e-8


def test_cell_cap():
    base = BaseForecastSet([Poisson(50.0), Poisson(50.0)], [None])
    with pytest.raises(SupportTooLarge):
        bottom_up_exact(MINIMAL, base, cell_cap=100)


def test_conditioning_reproduces_published_cells():
    joint = bottom_up_exact(MINIMAL, uniform_pair())
    updated = condition_on_upper(joint, MINIMAL, 0, Tabulated(np.array([0.5, 0.2, 0.3])))
    cells = {tuple(a): p for a, p in zip(updated.bottom_support, updated.probabilities)}
    assert cells[(0, 0)] == pytest.approx(5 / 12, abs=1e-12)
    assert cells[(0, 1)] == pytest.approx(1 / 6, abs=1e-12)
    assert cells[(1, 0)] == pytest.approx(1 / 6, abs=1e-12)
    assert cells[(1, 1)] == pytest.approx(1 / 4, abs=1e-12)


def test_uniform_evidence_changes_nothing():
    joint = bottom_up_exact(MINIMAL, poisson_249())
    max_sum = int(joint.bottom_support.sum(axis=1).max())
    flat = Tabulated(np.full(max_sum + 1, 1.0 / (max_sum + 1)))
    updated = condition_on_upper(joint, MINIMAL, 0, flat)
    assert np.allclose(updated.probabilities, joint.probabilities, atol=1e-14)


def test_point_evidence_equals_bayes_conditioning():
    joint = bottom_up_exact(MINIMAL, uniform_pair())
    point = Tabulated(np.array([0.0, 1.0, 0.0]))  # certain observation: total = 1
    updated = condition_on_upper(joint, MINIMAL, 0, point)
    # direct Bayes: restrict to atoms with sum 1 and renormalize
    sums = joint.bottom_support.sum(axis=1)
    expected = np.where(sums == 1, joint.probabilities, 0.0)
    expected /= expected.sum()
    assert np.allclose(updated.probabilities, expected, atol=1e-15)


def test_incompatible_evidence():
    joint = bottom_up_exact(MINIMAL, uniform_pair())
    unreachable = Tabulated(np.array([0.0] * 7 + [1.0]))  # mass only at 7 > max sum 2
    with pytest.raises(IncompatibleEvidence):
        condition_on_upper(joint, MINIMAL, 0, unreachable)


def test_zero_probability_atoms_stay_zero():
    base = BaseForecastSet(
        [Tabulated(np.array([0.5, 0.0, 0.5])), Tabulated(np.array([0.5, 0.5]))],
        [Poisson(2.0)],
    )
    joint = reconcile_exact(MINIMAL, base)
    zero_before = joint.bottom_support[:, 0] == 1
    assert (joint.probabilities[zero_before] == 0).all()


def test_reconcile_exact_matches_enumeration_ground_truth():
    summaries = summarize(reconcile_exact(MINIMAL, poisson_249()), MINIMAL)
    for label in EXACT_MEANS:
        assert summaries[label].mean == pytest.approx(EXACT_MEANS[label], abs=1e-6)
        assert summaries[label].variance == pytest.approx(EXACT_VARS[label], abs=1e-6)


def test_no_evidence_equals_bottom_up():
    base = BaseForecastSet([Poisson(2.0), Poisson(4.0)], [None])
    a = bottom_up_exact(MINIMAL, base)
    b = reconcile_exact(MINIMAL, base)
    assert np.array_equal(a.bottom_support, b.bottom_support)
    assert np.allclose(a.probabilities, b.probabilities)


def _full_update_oracle(h, base, support):
    """Single-pass posterior: product of all factors, one normalization."""
    weights = np.ones(len(support))
    for j, pmf in enumerate(base.bottom):
        weights *= pmf.pmf(support[:, j])
    for i, ev in enumerate(base.upper):
        if ev is not None:
            weights *= ev.pmf(support @ h.a_matrix[i])
    return weights / weights.sum()


def h421_poisson_case():
    return BaseForecastSet(
        [Poisson(1.0), Poisson(2.0), Poisson(3.0), Poisson(4.0)],
        [Poisson(12.0), Poisson(4.0), Poisson(6.0)],
    )


def test_sequential_equals_full_update():
    base = h421_poisson_case()
    joint = reconcile_exact(H421, base)
    oracle = _full_update_oracle(H421, base, joint.bottom_support)
    assert np.abs(joint.probabilities - oracle).max() < 1e-12


def test_evidence_order_is_immaterial():
    base = h421_poisson_case()
    results = []
    for order in itertools.permutations(range(3)):
        joint = bottom_up_exact(H421, base)
        for i in order:
            joint = condition_on_upper(joint, H421, i, base.upper[i])
        results.append(joint.probabilities)
    for probs in results[1:]:
        assert np.abs(probs - results[0]).max() < 1e-12


def test_skipped_evidence():
    # absent middle evidence: only the remaining factors apply
    base = BaseForecastSet(
        [Poisson(1.0), Poisson(2.0), Poisson(3.0), Poisson(4.0)],
        [Poisson(12.0), None, Poisson(6.0)],
    )
    joint = reconcile_exact(H421, base)
    oracle = _full_update_oracle(H421, base, joint.bottom_support)
    assert np.abs(joint.probabilities - oracle).max() < 1e-12


def test_relative_probability_update_law():
    base = poisson_249()
    bu = bottom_up_exact(MINIMAL, base)
    rec = condition_on_upper(bu, MINIMAL, 0, base.upper[0])
    ev = base.upper[0]
    atoms = {tuple(a): i for i, a in enumerate(bu.bottom_support)}
    i1, i2 = atoms[(1, 2)], atoms[(3, 4)]
    lhs = rec.probabilities[i2] / rec.probabilities[i1]
    rhs = (bu.probabilities[i2] / bu.probabilities[i1]) * (ev.pmf(7) / ev.pmf(3))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_normalization_after_each_step():
    base = h421_poisson_case()
    joint = bottom_up_exact(H421, base)
    assert joint.probabilities.sum() == pytest.approx(1.0, abs=1e-10)
    for i in range(3):
        joint = condition_on_upper(joint, H421, i, base.upper[i])
        assert joint.probabilities.sum() == pytest.approx(1.0, abs=1e-10)


def test_atoms_are_coherent():
    joint = reconcile_exact(MINIMAL, poisson_249())
    for atom in joint.bottom_support[::7]:
        assert is_coherent(MINIMAL, aggregate(MINIMAL, atom))


def test_summary_published_top_marginal():
    joint = bottom_up_exact(MINIMAL, uniform_pair())
    joint = condition_on_upper(joint, MINIMAL, 0, Tabulated(np.array([0.5, 0.2, 0.3])))
    top = summarize(joint, MINIMAL)["agg2_1"].pmf
    assert float(top.pmf(0)) == pytest.approx(5 / 12, abs=1e-12)
    assert float(top.pmf(1)) == pytest.approx(1 / 3, abs=1e-12)
    assert float(top.pmf(2)) == pytest.approx(1 / 4, abs=1e-12)


def test_summary_point_mass():
    base = BaseForecastSet(
        [Tabulated(np.array([0.0, 1.0])), Tabulated(np.array([0.0, 0.0, 1.0]))],
        [None],
    )
    summaries = summarize(bottom_up_exact(MINIMAL, base), MINIMAL)
    expected = {"agg2_1": 3, "b1": 1, "b2": 2}
    for label, value in expected.items():
        s = summaries[label]
        assert s.mean == pytest.approx(value)
        assert s.median == value
        assert s.variance == pytest.approx(0.0)
        assert s.interval == (value, value)


def test_variance_shrinks_at_the_top():
    base = poisson_249()
    bu_var = summarize(bottom_up_exact(MINIMAL, base), MINIMAL)["agg2_1"].variance
    rec_var = summarize(reconcile_exact(MINIMAL, base), MINIMAL)["agg2_1"].variance
    assert bu_var == pytest.approx(6.0, abs=1e-6)
    assert rec_var == pytest.approx(3.6767077026, abs=1e-6)
    assert rec_var < bu_var


def test_correlation():
    base = poisson_249()
    bu = bottom_up_exact(MINIMAL, base)
    assert correlation(bu, MINIMAL, 1, 2) == pytest.approx(0.0, abs=1e-10)
    rec = reconcile_exact(MINIMAL, base)
    assert correlation(rec, MINIMAL, 1, 2) == pytest.approx(EXACT_CORR, abs=1e-6)
    assert correlation(rec, MINIMAL, 1, 2) < 0
    assert correlation(rec, MINIMAL, 1, 1) == pytest.approx(1.0)


def test_correlation_undefined_for_point_mass():
    base = BaseForecastSet(
        [Tabulated(np.array([1.0])), Tabulated(np.array([1.0]))], [None]
    )
    joint = bottom_up_exact(MINIMAL, base)
    with pytest.raises(UndefinedCorrelation):
        correlation(joint, MINIMAL, 1, 2)


def test_interval_coverage_property():
    from reconc.conditioning import central_interval

    rng = np.random.default_rng(13)
    for alpha in (0.1, 0.2, 0.5):
        for _ in range(50):
            pmf = Tabulated(rng.dirichlet(np.ones(rng.integers(2, 12))))
            lo, hi = central_interval(pmf, alpha)
            assert 0 <= lo <= hi <= pmf.support_max
            covered = float(np.sum(pmf.probs[lo:hi + 1]))
            assert covered >= 1 - alpha - 1e-12


def test_summaries_of_sampled_joint():
    draws = np.array([[0, 1], [1, 1], [1, 2], [0, 1]])
    summaries = summarize(CountJoint.from_draws(draws), MINIMAL)
    assert summaries["b1"].mean == pytest.approx(0.5)
    assert summaries["agg2_1"].mean == pytest.approx(np.mean([1, 2, 3, 1]))
    for s in summaries.values():
        assert float(np.sum(s.pmf.probs)) == pytest.approx(1.0, abs=1e-12)


def test_exact_joint_dict_round_trip():
    joint = reconcile_exact(MINIMAL, poisson_249())
    back = CountJoint.from_dict(joint.to_dict(MINIMAL.bottom_labels))
    assert back.bottom_support.dtype == np.int64
    assert np.array_equal(back.bottom_support, joint.bottom_support)
    assert np.array_equal(back.probabilities, joint.probabilities)
    assert back.diagnostics is None


def test_sampler_joint_dict_round_trip():
    from reconc.conditioning import reconcile_mcmc

    joint = reconcile_mcmc(MINIMAL, poisson_249(), n_chains=2, n_samples=50, seed=3)
    back = CountJoint.from_dict(joint.to_dict())
    assert np.array_equal(back.bottom_support, joint.bottom_support)
    assert np.array_equal(back.probabilities, joint.probabilities)
    d, e = joint.diagnostics, back.diagnostics
    assert np.array_equal(e.acceptance_rates, d.acceptance_rates)
    assert np.array_equal(e.rhat, d.rhat, equal_nan=True)
    assert (e.n_chains, e.n_kept, e.burn_in, e.thin) == (d.n_chains, d.n_kept, d.burn_in, d.thin)


def test_draws_are_equal_weight_atoms_in_order():
    draws = np.array([[0, 1], [1, 1], [0, 1]])
    joint = CountJoint.from_draws(draws)
    assert np.array_equal(joint.probabilities, np.full(3, 1 / 3))
    assert np.array_equal(joint.draws, draws)
    assert np.shares_memory(joint.draws, joint.bottom_support)
    assert not joint.draws.flags.writeable
