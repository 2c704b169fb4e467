"""Tests for exact count reconciliation by virtual-evidence conditioning."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from reconc import harness
from reconc.conditioning import (
    BaseForecastSet,
    CountJoint,
    bottom_up_exact,
    condition_on_upper,
    correlation,
    reconcile_exact,
    summarize,
    trim_joint,
)
from reconc.distributions import Poisson, Tabulated
from reconc.errors import (
    IncompatibleEvidence,
    SupportTooLarge,
    TruncationWarning,
    UndefinedCorrelation,
)
from reconc.hierarchy import aggregate, build_temporal_hierarchy, is_coherent
from test_agreement import SEEDS, random_case

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


def test_bottom_up_grid_rows_follow_product_order():
    h = build_temporal_hierarchy(3, [3])
    marginals = [np.array([0.5, 0.5]), np.array([0.25, 0.25, 0.5]),
                 np.array([0.125, 0.125, 0.25, 0.5])]
    joint = bottom_up_exact(h, BaseForecastSet([Tabulated(p) for p in marginals], [None]))
    assert joint.bottom_support.dtype == np.int64
    cells = list(itertools.product(range(2), range(3), range(4)))
    assert joint.bottom_support.tolist() == [list(c) for c in cells]
    expected = [marginals[0][i] * marginals[1][j] * marginals[2][k] for i, j, k in cells]
    assert np.allclose(joint.probabilities, expected, rtol=1e-15, atol=0)


def _per_atom_update(joint, h, upper_index, evidence):
    """Evidence looked up atom by atom, then one normalization."""
    lik = [evidence.pmf(int(atom @ h.a_matrix[upper_index])) for atom in joint.bottom_support]
    weights = joint.probabilities * np.array(lik)
    return weights / weights.sum()


def test_evidence_shorter_than_the_reachable_sums():
    joint = bottom_up_exact(MINIMAL, uniform_pair())
    evidence = Tabulated(np.array([0.5, 0.5]))  # no mass at the reachable sum 2
    updated = condition_on_upper(joint, MINIMAL, 0, evidence)
    sums = updated.bottom_support.sum(axis=1)
    assert (updated.probabilities[sums == 2] == 0).all()
    assert np.array_equal(updated.probabilities, _per_atom_update(joint, MINIMAL, 0, evidence))


def test_evidence_on_bottoms_pinned_at_zero():
    zero = Tabulated(np.array([1.0]))
    joint = bottom_up_exact(MINIMAL, BaseForecastSet([zero, zero], [None]))
    for evidence in (Poisson(1.0), Tabulated(np.array([0.5, 0.5]))):
        updated = condition_on_upper(joint, MINIMAL, 0, evidence)
        assert updated.bottom_support.tolist() == [[0, 0]]
        assert np.array_equal(updated.probabilities, [1.0])
        assert np.array_equal(updated.probabilities,
                              _per_atom_update(joint, MINIMAL, 0, evidence))


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


def test_reconcile_exact_refuses_zero_epsilon():
    with pytest.raises(ValueError, match="q=1.0 must be < 1"):
        reconcile_exact(MINIMAL, poisson_249(), epsilon=0)


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


def test_draws_are_equal_weight_atoms_in_order():
    draws = np.array([[0, 1], [1, 1], [0, 1]])
    joint = CountJoint.from_draws(draws)
    assert np.array_equal(joint.probabilities, np.full(3, 1 / 3))
    assert np.array_equal(joint.draws, draws)
    assert np.shares_memory(joint.draws, joint.bottom_support)
    assert not joint.draws.flags.writeable


def m6_poisson_case():
    """Six sparse Poisson bottoms (a 10^6-cell grid) with level-mean evidences."""
    h = build_temporal_hierarchy(6, [2, 3, 6])
    upper_rates = {"agg6": 4.2, "agg3": 1.7, "agg2": 1.1}
    upper = [Poisson(upper_rates[label.split("_")[0]]) for label in h.upper_labels]
    return h, BaseForecastSet([Poisson(0.6)] * 6, upper)


def _kept_grid_cells(full: CountJoint, trimmed: CountJoint) -> np.ndarray:
    """Boolean mask over the full grid's atoms of those the trimmed joint kept."""
    dims = full.bottom_support.max(axis=0) + 1
    mask = np.zeros(len(full.probabilities), dtype=bool)
    mask[np.ravel_multi_index(trimmed.bottom_support.T, dims)] = True
    return mask


@pytest.mark.parametrize("case", ["poisson_249", "h421"])
def test_trim_drops_only_the_lightest_atoms_within_tol(case):
    h, base = (MINIMAL, poisson_249()) if case == "poisson_249" else (H421, h421_poisson_case())
    full = reconcile_exact(h, base)
    trimmed = trim_joint(full, base.bottom)
    kept = _kept_grid_cells(full, trimmed)
    dropped = full.probabilities[~kept]
    assert dropped.size and dropped.sum() <= 1e-12
    assert dropped.sum() == pytest.approx(trimmed.diagnostics.dropped_mass, rel=1e-9)
    assert dropped.max() < full.probabilities[kept].min()
    # kept atoms in grid order, renormalized
    assert np.array_equal(trimmed.bottom_support, full.bottom_support[kept])
    np.testing.assert_allclose(trimmed.probabilities, full.probabilities[kept]
                               / full.probabilities[kept].sum(), rtol=1e-15, atol=0)


def test_trim_removes_zero_mass_atoms():
    base = BaseForecastSet(uniform_pair().bottom, [Tabulated(np.array([0.5, 0.5, 0.0]))])
    trimmed = trim_joint(reconcile_exact(MINIMAL, base), base.bottom)
    assert trimmed.bottom_support.tolist() == [[0, 0], [0, 1], [1, 0]]
    assert trimmed.probabilities.min() > 0
    assert trimmed.diagnostics.to_dict() == {"dropped_mass": 0.0, "edge_mass": 0.0}


def test_trim_keeps_a_uniform_grid_unchanged():
    full = bottom_up_exact(MINIMAL, uniform_pair())
    trimmed = trim_joint(full, uniform_pair().bottom)
    assert np.array_equal(trimmed.bottom_support, full.bottom_support)
    assert np.array_equal(trimmed.probabilities, full.probabilities)
    assert trimmed.diagnostics.dropped_mass == 0.0
    # tabulated bottoms end inside the grid: nothing was cut, so no edge mass
    assert trimmed.diagnostics.edge_mass == 0.0


@pytest.mark.parametrize("case", ["h421", "m6"])
def test_trimmed_summaries_match_the_full_grid(case):
    h, base = (H421, h421_poisson_case()) if case == "h421" else m6_poisson_case()
    full = reconcile_exact(h, base)
    trimmed = trim_joint(full, base.bottom)
    assert len(trimmed.probabilities) < len(full.probabilities)
    expected, got = summarize(full, h), summarize(trimmed, h)
    for label in h.node_labels:
        assert got[label].mean == pytest.approx(expected[label].mean, abs=1e-10)
        # relative: 1e-12 of mass far out in the tail moves a variance of 3.5 by 2e-10
        assert got[label].variance == pytest.approx(expected[label].variance, rel=1e-10)
        assert got[label].median == expected[label].median
        assert got[label].interval == expected[label].interval


def test_edge_mass_warns_only_when_the_grid_cuts_posterior_mass():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        quiet = trim_joint(reconcile_exact(MINIMAL, poisson_249()), poisson_249().bottom)
        h421 = trim_joint(reconcile_exact(H421, h421_poisson_case()), h421_poisson_case().bottom)
    assert 0 < quiet.diagnostics.edge_mass < 1e-9
    assert 0 < h421.diagnostics.edge_mass < 1e-9

    far = BaseForecastSet([Poisson(2.0), Poisson(4.0)], [Poisson(40.0)])
    with pytest.warns(TruncationWarning, match="top cell of a truncated bottom grid"):
        loud = trim_joint(reconcile_exact(MINIMAL, far), far.bottom)
    assert loud.diagnostics.edge_mass > 1e-6


def test_edge_mass_ignores_bottoms_the_grid_does_not_cut():
    # a Poisson(0) bottom is a one-cell grid whose pmf ends there
    base = BaseForecastSet([Poisson(0.0), Poisson(2.0)], [Poisson(2.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trimmed = trim_joint(reconcile_exact(MINIMAL, base), base.bottom)
    assert trimmed.diagnostics.edge_mass < 1e-9


# every random_case of the agreement suite, and the small temporal cases
EXACT_CASES = [f"random_{seed}" for seed in SEEDS] + ["minimal", "minimal_uniform", "h421"]


def exact_case(name):
    if name.startswith("random_"):
        return random_case(int(name.removeprefix("random_")))
    if name == "m6":
        return m6_poisson_case()
    return {
        "minimal": (MINIMAL, poisson_249()),
        "minimal_uniform": (MINIMAL, BaseForecastSet(uniform_pair().bottom,
                                                     [Tabulated(np.array([0.5, 0.2, 0.3]))])),
        "h421": (H421, h421_poisson_case()),
    }[name]


@pytest.mark.parametrize("case", EXACT_CASES)
def test_reconcile_exact_equals_the_per_atom_chain_to_the_bit(case):
    h, base = exact_case(case)
    chain = bottom_up_exact(h, base)
    for i, evidence in enumerate(base.upper):
        if evidence is not None:
            chain = condition_on_upper(chain, h, i, evidence)
    grid = reconcile_exact(h, base)
    assert np.array_equal(grid.bottom_support, chain.bottom_support)
    assert grid.bottom_support.strides == chain.bottom_support.strides
    assert np.array_equal(grid.probabilities, chain.probabilities)


def _pipeline_exact(h, base, entries=None):
    """The probCount_exact joint that harness.reconcile_series stores."""
    if entries is None:
        entries = {label: pmf.to_dict() for label, pmf in
                   zip(h.node_labels, base.upper + base.bottom) if pmf is not None}
    _, joint = harness.reconcile_series(h, "probCount_exact", entries,
                                        harness.SamplerSettings(), 0.1, 0)
    return joint


@pytest.mark.parametrize("case", EXACT_CASES + ["m6"])
def test_pipeline_trims_like_trim_joint_of_the_full_grid(case):
    h, base = exact_case(case)
    with warnings.catch_warnings(record=True) as reference_warnings:
        warnings.simplefilter("always")
        expected = trim_joint(reconcile_exact(h, base), base.bottom)
    with warnings.catch_warnings(record=True) as pipeline_warnings:
        warnings.simplefilter("always")
        got = _pipeline_exact(h, base)
    assert [str(w.message) for w in pipeline_warnings] == [
        str(w.message) for w in reference_warnings]
    assert got.bottom_support.dtype == expected.bottom_support.dtype
    assert got.bottom_support.flags.c_contiguous and expected.bottom_support.flags.c_contiguous
    assert np.array_equal(got.bottom_support, expected.bottom_support)
    assert np.array_equal(got.probabilities, expected.probabilities)
    assert got.diagnostics.to_dict() == expected.diagnostics.to_dict()


def test_pipeline_refuses_an_oversized_grid_before_allocating_it():
    # each bottom grid has about 2e5 cells, so the product has about 4e10
    h, base = MINIMAL, BaseForecastSet([Poisson(2e5)] * 2, [Poisson(4e5)])
    tracemalloc.start()
    try:
        with pytest.raises(SupportTooLarge, match="cap 10000000"):
            _pipeline_exact(h, base)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_pipeline_refuses_evidence_without_mass_on_reachable_sums():
    entries = {"b1": {"dist": "tabulated", "probs": [0.5, 0.5]},
               "b2": {"dist": "tabulated", "probs": [0.5, 0.5]},
               "agg2_1": {"dist": "tabulated", "probs": [0.0] * 7 + [1.0]}}
    with pytest.raises(IncompatibleEvidence, match="upper node 0"):
        _pipeline_exact(MINIMAL, None, entries)


def test_pipeline_warns_where_the_grid_cuts_posterior_mass():
    far = BaseForecastSet([Poisson(2.0), Poisson(4.0)], [Poisson(40.0)])
    with pytest.warns(TruncationWarning, match="top cell of a truncated bottom grid") as caught:
        joint = _pipeline_exact(MINIMAL, far)
    assert caught[0].filename.endswith("harness.py")  # points at the caller
    assert joint.diagnostics.edge_mass == pytest.approx(1.4e-4, rel=0.05)
