"""Tests for exact count reconciliation by virtual-evidence conditioning."""

import itertools
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest

from helpers import GROUND_TRUTH, H421, MINIMAL, monthly_case, poisson_249
from reconc import conditioning, harness
from reconc.conditioning import (
    EDGE_MASS_WARN,
    PRUNE_BUDGET,
    PRUNE_ETA,
    BaseForecastSet,
    CountJoint,
    MarginalSummary,
    bottom_up_exact,
    condition_on_upper,
    correlation,
    exact_marginals,
    reconcile_exact,
    reconcile_mcmc,
    summarize,
)
from reconc.distributions import NegBinomial, Poisson, Tabulated
from reconc.errors import (
    DimensionError,
    IncompatibleEvidence,
    SupportTooLarge,
    TruncationWarning,
    UndefinedCorrelation,
)
from reconc.hierarchy import (
    Hierarchy,
    aggregate,
    build_temporal_hierarchy,
    default_labels,
    is_coherent,
)
from reference_exact import per_atom_chain
from test_agreement import SEEDS, random_case, total_variation
from test_mcmc import MONTHLY_H, ORACLE_CASES, monthly_mixed

# reconciled correlation of the poisson_249 bottoms, from the enumeration of GROUND_TRUTH
EXACT_CORR = -0.3008115729


def uniform_pair():
    half = Tabulated(np.array([0.5, 0.5]))
    return BaseForecastSet([half, half], [None])


@pytest.mark.parametrize("bottom, upper, message", [
    ([Poisson(2.0)], [None], "expected 2 bottom forecasts, got 1"),
    ([Poisson(2.0), None], [None], "bottom forecasts must all be present"),
    ([Poisson(2.0), Poisson(4.0)], [], "expected 1 upper slots, got 0"),
])
def test_base_forecasts_of_the_wrong_shape_are_refused(bottom, upper, message):
    with pytest.raises(DimensionError, match=f"^{message}$"):
        reconcile_exact(MINIMAL, BaseForecastSet(bottom, upper))


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
        bottom_up_exact(MINIMAL, base, array_cap=100)


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
    for label, mean in GROUND_TRUTH["means"].items():
        assert summaries[label].mean == pytest.approx(mean, abs=1e-6)
        assert summaries[label].variance == pytest.approx(GROUND_TRUTH["vars"][label], abs=1e-6)


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


@pytest.mark.parametrize("nodes", [(3, 1), (1, 3), (-1, 2)])
def test_correlation_refuses_a_node_index_out_of_range(nodes):
    joint = reconcile_exact(MINIMAL, poisson_249())
    bad = next(i for i in nodes if not 0 <= i < MINIMAL.n)
    with pytest.raises(DimensionError, match=rf"^node index {bad} out of range for n=3$"):
        correlation(joint, MINIMAL, *nodes)


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


def test_edge_mass_warns_only_when_the_grid_cuts_posterior_mass():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, quiet = exact_marginals(MINIMAL, poisson_249())
        _, h421 = exact_marginals(H421, h421_poisson_case())
    assert 0 < quiet.edge_mass < 1e-9
    assert 0 < h421.edge_mass < 1e-9

    far = BaseForecastSet([Poisson(2.0), Poisson(4.0)], [Poisson(40.0)])
    with pytest.warns(TruncationWarning, match="top cell of a truncated bottom grid"):
        _, loud = exact_marginals(MINIMAL, far)
    assert loud.edge_mass > 1e-6


def test_edge_mass_ignores_bottoms_the_grid_does_not_cut():
    # a Poisson(0) bottom is a one-cell grid whose pmf ends there
    base = BaseForecastSet([Poisson(0.0), Poisson(2.0)], [Poisson(2.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, diagnostics = exact_marginals(MINIMAL, base)
    assert diagnostics.edge_mass < 1e-9
    # a uniform grid ends where its tabulated bottoms do: nothing is cut
    assert exact_marginals(MINIMAL, uniform_pair())[1].edge_mass == 0.0


# single A rows over four bottoms whose grids have unequal sizes (9, 18, 35 and 13 cells)
ROW_CASES = {
    "row_non_adjacent": [1, 0, 1, 0],
    "row_single_bottom": [0, 1, 0, 0],
    "row_every_bottom": [1, 1, 1, 1],
}


def row_case(row):
    a = np.array([row])
    bottom = [Poisson(0.4), Poisson(2.5), NegBinomial(2.0, 0.5), Poisson(1.2)]
    rate = 1.2 * sum(pmf.mean() for pmf, on in zip(bottom, row) if on)
    return Hierarchy(a, tuple(default_labels(a))), BaseForecastSet(bottom, [Poisson(rate)])


def wide_rows_case():
    """Three rows end at the last bottom; their partial sums span more vectors than the prefix."""
    a = np.array([[1, 1, 1], [0, 1, 1], [1, 0, 1]])
    bottom = [Poisson(3.0), Poisson(2.0), NegBinomial(2.0, 0.6)]
    rates = 1.2 * a @ [pmf.mean() for pmf in bottom]
    return (Hierarchy(a, tuple(default_labels(a))),
            BaseForecastSet(bottom, [Poisson(rate) for rate in rates]))


# every random_case of the agreement suite, the small temporal cases, the single rows and
# rows whose partial sums span more vectors than the prefix has cells
EXACT_CASES = ([f"random_{seed}" for seed in SEEDS] + ["minimal", "minimal_uniform", "h421"]
               + sorted(ROW_CASES) + ["wide_rows"])


def exact_case(name):
    if name.startswith("random_"):
        return random_case(int(name.removeprefix("random_")))
    if name in ROW_CASES:
        return row_case(ROW_CASES[name])
    if name == "m6":
        return m6_poisson_case()
    if name == "wide_rows":
        return wide_rows_case()
    return {
        "minimal": (MINIMAL, poisson_249()),
        "minimal_uniform": (MINIMAL, BaseForecastSet(uniform_pair().bottom,
                                                     [Tabulated(np.array([0.5, 0.2, 0.3]))])),
        "h421": (H421, h421_poisson_case()),
    }[name]


@pytest.mark.parametrize("case", EXACT_CASES)
def test_reconcile_exact_is_within_its_normalizer_of_the_per_atom_chain(case):
    # the per-atom chain multiplies each atom's factors in the pass's order and sums the
    # same atoms for its normalizer in another order: the two quotients differ by a few ulps
    h, base = exact_case(case)
    support, probabilities = per_atom_chain(h, base)
    joint = reconcile_exact(h, base)
    assert np.array_equal(joint.bottom_support, support)
    assert np.array_equal(joint.probabilities == 0, probabilities == 0)
    np.testing.assert_allclose(joint.probabilities, probabilities,
                               rtol=4 * np.finfo(float).eps, atol=0)


@pytest.mark.parametrize("case", EXACT_CASES + ["m6"])
def test_reconcile_exact_is_within_rounding_of_the_sequential_updates(case):
    h, base = exact_case(case)
    chain = bottom_up_exact(h, base)
    for i, evidence in enumerate(base.upper):
        if evidence is not None:
            chain = condition_on_upper(chain, h, i, evidence)
    grid = reconcile_exact(h, base)
    assert np.array_equal(grid.bottom_support, chain.bottom_support)
    assert grid.bottom_support.strides == chain.bottom_support.strides
    assert np.array_equal(grid.probabilities == 0, chain.probabilities == 0)
    # a cell is a product of m + n_upper factors, normalized: a few roundings per factor
    rtol = 4 * (h.m + h.n_upper) * np.finfo(float).eps
    np.testing.assert_allclose(grid.probabilities, chain.probabilities, rtol=rtol, atol=0)


def test_incompatible_evidence_names_the_first_evidence_applied_without_mass():
    # each evidence is compatible alone: b1 = 1 by agg_b1, but b1 + b2 = 0 by agg_b1_b2
    a = np.array([[1, 1], [1, 0]])
    h = Hierarchy(a, ("agg_b1_b2", "agg_b1", "b1", "b2"))
    half = Tabulated(np.array([0.5, 0.5]))
    base = BaseForecastSet([half, half], [Tabulated(np.array([1.0])),
                                          Tabulated(np.array([0.0, 1.0]))])
    # _forward applies row 1 where it closes, at b1, then row 0 where it closes, at b2
    with pytest.raises(IncompatibleEvidence, match="upper node 0 "):
        reconcile_exact(h, base)
    with pytest.raises(IncompatibleEvidence, match="upper node 1 "):
        condition_on_upper(condition_on_upper(bottom_up_exact(h, base), h, 0, base.upper[0]),
                           h, 1, base.upper[1])


def seeded_m6_case(seed):
    """Six Poisson bottoms, rates ~ U(0.4, 0.8), under factors 2, 3 and 6, with each
    evidence at 0.9-1.3 times its bottom-up mean."""
    rng = np.random.default_rng(seed)
    h = build_temporal_hierarchy(6, [2, 3, 6])
    rates = rng.uniform(0.4, 0.8, size=h.m)
    upper = [Poisson(row @ rates * rng.uniform(0.9, 1.3)) for row in h.a_matrix]
    return h, BaseForecastSet([Poisson(rate) for rate in rates], upper)


def m6_absent_case():
    """m6_poisson_case without the forecast of its second upper node, a row of 3 bottoms."""
    h, base = m6_poisson_case()
    return h, BaseForecastSet(base.bottom, [None if i == 1 else pmf
                                            for i, pmf in enumerate(base.upper)])


def marginal_case(name):
    if name.startswith("seeded_m6_"):
        return seeded_m6_case(int(name.removeprefix("seeded_m6_")))
    return m6_absent_case() if name == "m6_absent" else exact_case(name)


#: entry-wise bound between exact_marginals and summarize(reconcile_exact): both sum the
#: same products of up to m + n_upper rounded factors, in other orders (seen: 4.4e-15)
MARGINAL_ATOL = 1e-13

MARGINAL_CASES = EXACT_CASES + [f"seeded_m6_{seed}" for seed in range(4)] + ["m6_absent"]


@pytest.mark.parametrize("case", MARGINAL_CASES)
def test_exact_marginals_match_the_summaries_of_the_full_grid(case):
    # a pruned pmf ends at the last sum a kept state reaches, so it may be the shorter; an
    # entry differs by at most the TV distance, which the pruned mass bound bounds
    h, base = marginal_case(case)
    marginals, diagnostics = exact_marginals(h, base)
    expected = summarize(reconcile_exact(h, base), h)
    assert list(marginals) == list(h.node_labels)
    for label in h.node_labels:
        got, want = marginals[label].probs, expected[label].pmf.probs
        assert len(got) <= len(want), label
        np.testing.assert_allclose(np.pad(got, (0, len(want) - len(got))), want, rtol=0,
                                   atol=diagnostics.pruned_mass_bound + MARGINAL_ATOL,
                                   err_msg=label)


def tv_rounding(h):
    """Allowance on a node TV distance for rounding: the pruned and unpruned passes sum
    products of up to m + n_upper rounded factors in other orders (seen: 5.9e-17 past the
    bound, over the gate's cases)."""
    return (h.m + h.n_upper) * np.finfo(float).eps


def max_node_tv(p, q, h):
    return max(total_variation(p[label].probs, q[label].probs) for label in h.node_labels)


@pytest.mark.parametrize("eta", [1e-12, 1e-8, 1e-4])
@pytest.mark.parametrize("case", MARGINAL_CASES)
def test_pruned_marginals_stay_within_the_certified_bound(case, eta):
    h, base = marginal_case(case)
    full, unpruned = conditioning._marginals(h, base, 0.0)
    pruned, diagnostics = conditioning._marginals(h, base, eta)
    assert unpruned.pruned_mass_bound == 0.0
    assert diagnostics.peak_states <= unpruned.peak_states
    if "m6" in case:  # these grids hold states below every tested threshold
        assert diagnostics.pruned_mass_bound > 0
    assert max_node_tv(pruned, full, h) <= diagnostics.pruned_mass_bound + tv_rounding(h)


def test_pruned_monthly_marginals_stay_within_the_bounds_of_two_thresholds():
    # the unpruned monthly pass would hold about 1e6 states, so two pruned passes are held
    # to each other: TV(p, q) <= TV(p, unpruned) + TV(unpruned, q) <= the sum of the bounds
    h, base = monthly_case("sparse_a")
    loose, loose_diagnostics = conditioning._marginals(h, base, 1e-6)
    marginals, diagnostics = exact_marginals(h, base)
    assert 0 < diagnostics.pruned_mass_bound <= PRUNE_BUDGET  # no fallback
    bounds = loose_diagnostics.pruned_mass_bound + diagnostics.pruned_mass_bound
    assert max_node_tv(loose, marginals, h) <= bounds + 2 * tv_rounding(h)


#: node means of the unpruned pass on the monthly hierarchy at Poisson(0.4) bottoms, each
#: evidence Poisson at 0.4 times its row's size; at Poisson(0.5) bottoms a step's tables
#: would pass DEFAULT_ARRAY_CAP
MONTHLY_04_MEANS = {
    "agg12_1": 3.3454350382798212, "agg6_1": 1.6727175191399106,
    "agg6_2": 1.6727175191399102, "agg4_1": 1.1114024227244164,
    "agg4_2": 1.1226301928309899, "agg4_3": 1.111402422724416,
    "agg3_1": 0.8510821014475172, "agg3_2": 0.8216354176923937,
    "agg3_3": 0.8216354176923938, "agg3_4": 0.8510821014475165,
    "agg2_1": 0.5737547612215145, "agg2_2": 0.5376476615029017,
    "agg2_3": 0.5613150964154944, "agg2_4": 0.5613150964154945,
    "agg2_5": 0.5376476615029014, "agg2_6": 0.573754761221514,
    "b1": 0.2868773806107572, "b2": 0.28687738061075724, "b3": 0.27732734022600264,
    "b4": 0.260320321276899, "b5": 0.2806575482077473, "b6": 0.28065754820774713,
    "b7": 0.2806575482077474, "b8": 0.2806575482077473, "b9": 0.2603203212768991,
    "b10": 0.27732734022600286, "b11": 0.2868773806107574, "b12": 0.286877380610758,
}


@pytest.mark.slow
def test_monthly_exact_means_stay_pinned_with_and_without_pruning():
    # the unpruned pass holds 607257 states after its widest bottom (about 1 s, 0.55 GB)
    h = MONTHLY_H
    base = BaseForecastSet([Poisson(0.4)] * h.m,
                           [Poisson(0.4 * row.sum()) for row in h.a_matrix])
    full, unpruned = conditioning._marginals(h, base, 0.0)
    pruned, diagnostics = exact_marginals(h, base)
    assert unpruned.peak_states == 607257
    assert 0 < diagnostics.pruned_mass_bound <= PRUNE_BUDGET  # no fallback
    assert list(MONTHLY_04_MEANS) == list(h.node_labels)
    for label, mean in MONTHLY_04_MEANS.items():
        assert full[label].mean() == pytest.approx(mean, rel=1e-13), label
        # pmfs on 0..K whose TV distance is d have means at most K * d apart
        allowance = full[label].support_max * (diagnostics.pruned_mass_bound + tv_rounding(h))
        assert pruned[label].mean() == pytest.approx(mean, rel=1e-13, abs=allowance), label


@pytest.mark.parametrize("case", EXACT_CASES + ["m6"])
def test_exact_marginals_are_normalized_node_by_node_and_coherent(case):
    h, base = exact_case(case)
    marginals, _ = exact_marginals(h, base)
    eps = np.finfo(float).eps
    for pmf in marginals.values():
        assert np.sum(pmf.probs) == pytest.approx(1.0, rel=0, abs=len(pmf.probs) * eps)
    means = np.array([marginals[label].mean() for label in h.node_labels])
    np.testing.assert_allclose(means[: h.n_upper], h.a_matrix @ means[h.n_upper:],
                               rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("case", EXACT_CASES)
def test_peak_states_counts_the_distinct_open_row_sums(case):
    # every row is tracked; after bottom k, the state is the sums over b_1..b_k of the rows
    # that begin at or before k and end after it, and every grid prefix reaches its state
    # unpruned; pruning keeps some of them
    h, base = exact_case(case)
    support = reconcile_exact(h, base).bottom_support
    first, last = np.argmax(h.a_matrix, axis=1), h.m - 1 - np.argmax(h.a_matrix[:, ::-1], axis=1)
    counts = [1]
    for k in range(h.m - 1):
        open_rows = h.a_matrix[(first <= k) & (last > k), : k + 1]
        counts.append(len(np.unique(support[:, : k + 1] @ open_rows.T, axis=0)))
    assert conditioning._marginals(h, base, 0.0)[1].peak_states == max(counts)
    assert exact_marginals(h, base)[1].peak_states <= max(counts)


def test_exact_marginals_without_evidence_are_the_cut_bottom_pmfs():
    base = BaseForecastSet([Poisson(2.0), Poisson(4.0)], [None])
    marginals, _ = exact_marginals(MINIMAL, base)
    for label, pmf in zip(MINIMAL.bottom_labels, base.bottom):
        cut = pmf.pmf(np.arange(len(marginals[label].probs)))
        np.testing.assert_allclose(marginals[label].probs, cut / cut.sum(), rtol=1e-14)
    top = marginals["agg2_1"]
    assert np.abs(top.probs - Poisson(6.0).pmf(np.arange(top.support_max + 1))).max() < 1e-8


def test_exact_marginals_refuse_like_reconcile_exact():
    # the expansion would hold the 4e10 cells of the grid; the pass, a table of the 6388
    # states kept after b1 (from 8.3 sd below 2e5 to the grid's top) by b2's 202689 values
    base = BaseForecastSet([Poisson(2e5)] * 2, [Poisson(4e5)])
    with pytest.raises(SupportTooLarge, match=r"^the expanded grid would hold 4\.\d+e\+10 "
                       r"elements \(cap 10000000\); use reconcile_mcmc instead$"):
        reconcile_exact(MINIMAL, base)
    with pytest.raises(SupportTooLarge, match=r"^the table at bottom 'b2' would hold 1\.29e\+09 "
                       r"elements \(cap 10000000\); use reconcile_mcmc instead$"):
        exact_marginals(MINIMAL, base)
    a = np.array([[1, 1], [1, 0]])
    h = Hierarchy(a, ("agg_b1_b2", "agg_b1", "b1", "b2"))
    half = Tabulated(np.array([0.5, 0.5]))
    base = BaseForecastSet([half, half], [Tabulated(np.array([1.0])),
                                          Tabulated(np.array([0.0, 1.0]))])
    with pytest.raises(IncompatibleEvidence, match="upper node 0 "):
        exact_marginals(h, base)


def light_path_case(name):
    """m6_poisson_case with agg6_1's evidence on a total of 30, which only prefixes far
    lighter than PRUNE_ETA times their step's total reach: alone ("no_mass"), or with 1e-20
    on each total below 10 ("over_budget")."""
    h, base = m6_poisson_case()
    probs = np.zeros(31)
    if name == "over_budget":
        probs[:10] = 1e-20
    probs[30] = 1 - probs.sum()
    return h, BaseForecastSet(base.bottom, [Tabulated(probs)] + base.upper[1:])


@pytest.mark.parametrize("case", ["no_mass", "over_budget"])
def test_exact_marginals_rerun_unpruned_where_pruning_cuts_the_evidence(case):
    h, base = light_path_case(case)
    if case == "no_mass":
        with pytest.raises(IncompatibleEvidence, match="upper node 0 "):
            conditioning._marginals(h, base, PRUNE_ETA)
    else:
        assert conditioning._marginals(h, base, PRUNE_ETA)[1].pruned_mass_bound > PRUNE_BUDGET
    full, unpruned = conditioning._marginals(h, base, 0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        marginals, diagnostics = exact_marginals(h, base)
    assert diagnostics == unpruned and diagnostics.pruned_mass_bound == 0.0
    # the edge mass warned on is the rerun's (0.12 where all the evidence is on 30)
    assert len(caught) == (unpruned.edge_mass > EDGE_MASS_WARN) == (case == "no_mass")
    for label in h.node_labels:
        assert np.array_equal(marginals[label].probs, full[label].probs), label


def incompatible_case(name):
    """Evidences without mass on reachable sums: the two-row case of
    test_exact_marginals_refuse_like_reconcile_exact, and m6 with agg2_2 beyond its grid."""
    if name == "two_rows":
        a = np.array([[1, 1], [1, 0]])
        half = Tabulated(np.array([0.5, 0.5]))
        return (Hierarchy(a, ("agg_b1_b2", "agg_b1", "b1", "b2")),
                BaseForecastSet([half, half], [Tabulated(np.array([1.0])),
                                               Tabulated(np.array([0.0, 1.0]))]))
    h, base = m6_poisson_case()
    beyond = Tabulated(np.eye(100)[99])
    return h, BaseForecastSet(base.bottom, [beyond if label == "agg2_2" else pmf
                                            for label, pmf in zip(h.upper_labels, base.upper)])


@pytest.mark.parametrize("eta", [PRUNE_ETA, 1e-4])
@pytest.mark.parametrize("case", ["two_rows", "m6_agg2_2"])
def test_pruned_pass_names_the_evidence_the_unpruned_pass_names(case, eta):
    h, base = incompatible_case(case)
    with pytest.raises(IncompatibleEvidence) as unpruned:
        conditioning._marginals(h, base, 0.0)
    for run in (partial(conditioning._marginals, eta=eta), exact_marginals):
        with pytest.raises(IncompatibleEvidence) as pruned:
            run(h, base)
        assert str(pruned.value) == str(unpruned.value)
    node = h.upper_labels.index("agg2_2") if case == "m6_agg2_2" else 0
    assert str(unpruned.value).startswith(f"evidence for upper node {node} ")


def _pipeline_exact(h, base, entries=None):
    """The probCount_exact node summaries and artifact of harness.reconcile_series."""
    if entries is None:
        entries = {label: pmf.to_dict() for label, pmf in
                   zip(h.node_labels, base.upper + base.bottom) if pmf is not None}
    return harness.reconcile_series(h, "probCount_exact", entries,
                                    harness.SamplerSettings(), 0.1, 0)


@pytest.mark.parametrize("case", EXACT_CASES + ["m6"])
def test_pipeline_summarizes_exact_marginals(case):
    h, base = exact_case(case)
    with warnings.catch_warnings(record=True) as reference_warnings:
        warnings.simplefilter("always")
        marginals, diagnostics = exact_marginals(h, base)
    with warnings.catch_warnings(record=True) as pipeline_warnings:
        warnings.simplefilter("always")
        summaries, artifact = _pipeline_exact(h, base)
    assert [str(w.message) for w in pipeline_warnings] == [
        str(w.message) for w in reference_warnings]
    assert summaries == {label: MarginalSummary.of(label, pmf, 0.1).to_dict()
                         for label, pmf in marginals.items()}
    assert artifact == diagnostics.to_dict()


def test_pipeline_refuses_an_oversized_grid_before_allocating_it():
    # b1 keeps at most its 16 cells as states and b2's grid has about 2e7 cells, so the
    # step at b2 would allocate tables of 3.2e8 elements, 2.6 GB for each float one
    h, base = MINIMAL, BaseForecastSet([Poisson(2.0), Poisson(2e7)], [Poisson(2e7)])
    tracemalloc.start()
    try:
        with pytest.raises(SupportTooLarge, match=r"^the table at bottom 'b2' would hold "
                           r"3\.2e\+08 elements \(cap 10000000\)"):
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


def test_pipeline_names_the_first_evidence_applied_without_mass():
    # the twin of the reconcile_exact test: in _forward row 0 closes at the last bottom,
    # after row 1 closed at b1
    a = np.array([[1, 1], [1, 0]])
    h = Hierarchy(a, ("agg_b1_b2", "agg_b1", "b1", "b2"))
    half = Tabulated(np.array([0.5, 0.5]))
    base = BaseForecastSet([half, half], [Tabulated(np.array([1.0])),
                                          Tabulated(np.array([0.0, 1.0]))])
    with pytest.raises(IncompatibleEvidence, match="upper node 0 "):
        _pipeline_exact(h, base)


def test_pipeline_peaks_below_one_float_array_over_the_full_grid():
    h, base = m6_poisson_case()
    tracemalloc.start()
    try:
        _pipeline_exact(h, base)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6 * np.dtype(float).itemsize  # the grid has 10^6 cells


def test_states_keyed_past_int64_are_renumbered():
    # after b2, the partial sums of 70 open rows take 2**70 key values: unrenumbered, the
    # first row's sum would be shifted out of an int64 key and b2's states merged
    a = np.array([[0, 1, 1]] + [[1, 0, 1]] * 69)
    h = Hierarchy(a, tuple(default_labels(a)))
    bottom = [Tabulated(np.array(p)) for p in ([0.6, 0.4], [0.3, 0.7], [0.8, 0.2])]
    base = BaseForecastSet(bottom, [Poisson(1.0 + i / 70) for i in range(70)])
    joint = reconcile_exact(h, base)
    support, probabilities = per_atom_chain(h, base)
    assert np.array_equal(joint.bottom_support, support)
    np.testing.assert_allclose(joint.probabilities, probabilities,
                               rtol=4 * np.finfo(float).eps, atol=0)


def test_pipeline_warns_where_the_grid_cuts_posterior_mass():
    far = BaseForecastSet([Poisson(2.0), Poisson(4.0)], [Poisson(40.0)])
    with pytest.warns(TruncationWarning, match="top cell of a truncated bottom grid") as caught:
        _, artifact = _pipeline_exact(MINIMAL, far)
    assert caught[0].filename.endswith("harness.py")  # points at the caller
    assert artifact["edge_mass"] == pytest.approx(1.4e-4, rel=0.05)


def summarize_per_node(joint, h, alpha=0.1):
    """summarize with each node's values as `bottom_support @ S[node]`: the per-node reference."""
    out = {}
    for idx, label in enumerate(h.node_labels):
        values = joint.bottom_support @ h.s_matrix[idx]
        out[label] = MarginalSummary.of(
            label, Tabulated.from_weights(np.bincount(values, weights=joint.probabilities)),
            alpha)
    return out


def summary_case(name):
    """(hierarchy, joint) for the summarize cases."""
    if name == "mcmc_monthly":
        return MONTHLY_H, reconcile_mcmc(MONTHLY_H, monthly_mixed(), n_chains=4,
                                         n_samples=10_000, seed=0)
    if name == "grid_m6":
        h, base = m6_poisson_case()
    else:
        h, base = (H421, h421_poisson_case()) if name == "grid_h421" else ORACLE_CASES[name]
    return h, reconcile_exact(h, base)


@pytest.mark.parametrize("case", ["mcmc_monthly", "grid_m6", "grid_h421",
                                  "non_temporal_json"])
def test_summarize_equals_the_per_node_reference(case):
    h, joint = summary_case(case)
    got, expected = summarize(joint, h, alpha=0.2), summarize_per_node(joint, h, alpha=0.2)
    assert list(got) == list(expected)
    for label in h.node_labels:
        assert got[label].to_dict() == expected[label].to_dict()


def test_summarize_holds_no_array_of_nodes_by_atoms():
    # one transposed copy of the support plus one node buffer: below 2x the support
    draws = np.random.default_rng(0).poisson(0.7, size=(40_000, 12)).astype(np.int64)
    joint = CountJoint.from_draws(draws)
    tracemalloc.start()
    try:
        summarize(joint, MONTHLY_H)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * joint.bottom_support.nbytes
