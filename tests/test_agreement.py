"""Cross-method agreement on seeded random small hierarchies and on the monthly hierarchy.

Each random case draws a 0/1 aggregation matrix with arbitrary (mostly
non-temporal) rows, Poisson or negative binomial bottoms, and Poisson
evidences near the bottom-up sums, some of them absent. The monthly cases
are the synthetic series of the pipeline tests, forecast by the builtin
forecaster.
"""

import numpy as np
import pytest

from helpers import monthly_case
from reconc.conditioning import (
    PRUNE_BUDGET,
    BaseForecastSet,
    bottom_up_exact,
    condition_on_upper,
    exact_marginals,
    reconcile_exact,
    reconcile_mcmc,
    summarize,
)
from reconc.distributions import NegBinomial, Poisson
from reconc.hierarchy import Hierarchy, default_labels

SEEDS = range(6)


def random_case(seed: int) -> tuple[Hierarchy, BaseForecastSet]:
    rng = np.random.default_rng(seed)
    m, n_upper = int(rng.integers(2, 5)), int(rng.integers(1, 4))
    a = rng.integers(0, 2, size=(n_upper, m))
    a[np.arange(n_upper), rng.integers(0, m, size=n_upper)] = 1  # no empty row
    means = rng.uniform(0.5, 2.5, size=m)
    bottom = [Poisson(mu) if rng.random() < 0.7 else NegBinomial(2.0, 2.0 / (2.0 + mu))
              for mu in means]
    upper = [Poisson(row @ means * rng.uniform(0.8, 1.4)) if rng.random() < 0.75 else None
             for row in a]
    return Hierarchy(a, tuple(default_labels(a))), BaseForecastSet(bottom, upper)


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    k = max(len(p), len(q))
    return 0.5 * float(np.abs(np.pad(p, (0, k - len(p))) - np.pad(q, (0, k - len(q)))).sum())


@pytest.mark.parametrize("seed", SEEDS)
def test_exact_and_mcmc_marginals_agree(seed):
    h, base = random_case(seed)
    exact = summarize(reconcile_exact(h, base), h)
    sampled = summarize(reconcile_mcmc(h, base, n_chains=4, n_samples=10_000, seed=seed), h)
    for label in h.node_labels:
        tv = total_variation(exact[label].pmf.probs, sampled[label].pmf.probs)
        assert tv <= 0.02, (label, tv)


#: (synthetic kind, factor on every upper rate): one case per kind, and one whose evidence
#: sits at 1.5 times the bottom-up sums, where the posterior moves away from the prior
MONTHLY_CASES = {"sparse_a": ("sparse_a", 1.0), "sparse_b": ("sparse_b", 1.0),
                 "bursty": ("bursty", 1.0), "sparse_a_high": ("sparse_a", 1.5)}


@pytest.mark.parametrize("case", sorted(MONTHLY_CASES))
def test_mcmc_agrees_with_the_pruned_exact_marginals_on_the_monthly_hierarchy(case):
    # MH at the paper's settings; seen worst node TVs: 0.0169 (sparse_a), 0.0160
    # (sparse_b), 0.0102 (bursty), 0.0095 (sparse_a_high), and at most 0.0172 over
    # series seeds 0-2; the exact error, the pruned mass bound, is at most 1.8e-14
    kind, scale = MONTHLY_CASES[case]
    h, base = monthly_case(kind, evidence_scale=scale)
    exact, diagnostics = exact_marginals(h, base)
    assert diagnostics.pruned_mass_bound <= PRUNE_BUDGET
    sampled = summarize(reconcile_mcmc(h, base, n_chains=4, n_samples=10_000, seed=0), h)
    for label in h.node_labels:
        tv = total_variation(exact[label].probs, sampled[label].pmf.probs)
        assert tv <= 0.02, (label, tv)


@pytest.mark.parametrize("seed", SEEDS)
def test_reversed_evidence_order_gives_the_same_joint(seed):
    h, base = random_case(seed)
    forward = reconcile_exact(h, base)
    joint = bottom_up_exact(h, base)
    for i in reversed(range(h.n_upper)):
        if base.upper[i] is not None:
            joint = condition_on_upper(joint, h, i, base.upper[i])
    assert np.array_equal(joint.bottom_support, forward.bottom_support)
    assert np.abs(joint.probabilities - forward.probabilities).max() <= 1e-12
