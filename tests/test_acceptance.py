"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.

Criterion 2 carries a known, documented defect: the published table values
were produced by a sampler and two of them sit farther than the stated 0.1
tolerance from the exact ground truth (var 3.2105 vs 3.0, mean 7.0939 vs
7.2; verified by 50-digit enumeration). That sub-check is asserted exactly
as stated and fails honestly; the exact values themselves are pinned by a
tight regression in criterion 2c.
"""

import filecmp
import itertools
import time

import numpy as np
import pytest

from helpers import GROUND_TRUTH, H421, MINIMAL, poisson_249, run_benchmark
from reconc import harness
from reconc.conditioning import (
    BaseForecastSet,
    bottom_up_exact,
    condition_on_upper,
    correlation,
    reconcile_exact,
    reconcile_mcmc,
    summarize,
)
from reconc.distributions import GaussianForecast, Poisson, Tabulated
from reconc.errors import UndefinedSkill
from reconc.harness import TABLE2_CELLS, TABLE3_PUBLISHED
from reconc.hierarchy import build_temporal_hierarchy
from reconc.mint import mint_g, reconcile_gaussian, HierarchyVariance
from reconc.scoring import energy_score, mis, rps_discrete, skill_score

def announce(criterion, passed, detail):
    print(f"\ncriterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


def test_criterion_1_minimal_cells_exact():
    start = time.monotonic()
    base = BaseForecastSet(
        [Tabulated(np.array([0.5, 0.5])), Tabulated(np.array([0.5, 0.5]))],
        [Tabulated(np.array([0.5, 0.2, 0.3]))],
    )
    joint = reconcile_exact(MINIMAL, base)
    elapsed = time.monotonic() - start
    cells = {tuple(a): p for a, p in zip(joint.bottom_support, joint.probabilities)}
    worst = max(abs(cells[c] - v) for c, v in TABLE2_CELLS.items())
    announce(1, worst < 1e-10 and elapsed < 1.0,
             f"cell probabilities within {worst:.2e} of (5/12, 1/6, 1/6, 1/4); "
             f"runtime {elapsed:.3f}s")
    assert worst < 1e-10
    assert elapsed < 1.0


def test_criterion_2a_exact_vs_published_table():
    summaries = summarize(reconcile_exact(MINIMAL, poisson_249(), epsilon=1e-9), MINIMAL)
    deltas = {}
    for label in ("b1", "b2", "agg2_1"):
        deltas[f"mean {label}"] = abs(summaries[label].mean
                                      - TABLE3_PUBLISHED["means"][label])
        deltas[f"var {label}"] = abs(summaries[label].variance
                                     - TABLE3_PUBLISHED["vars"][label])
    passed = all(d <= 0.1 for d in deltas.values())
    offenders = {k: round(v, 4) for k, v in deltas.items() if v > 0.1}
    announce("2a (exact vs published, known spec defect)", passed,
             f"deviations beyond 0.1: {offenders or 'none'}")
    assert passed, (
        "exact ground truth differs from the published (sampler-estimated) table "
        f"by more than 0.1 on: {offenders}; see notes/decisions ledger"
    )


def test_criterion_2b_mcmc_matches_exact():
    start = time.monotonic()
    base = poisson_249()
    exact = summarize(reconcile_exact(MINIMAL, base, epsilon=1e-9), MINIMAL)
    joint = reconcile_mcmc(MINIMAL, base, n_chains=4, n_samples=10_000, seed=0)
    assert len(joint.draws) == 40_000
    sampled = summarize(joint, MINIMAL)
    elapsed = time.monotonic() - start
    worst = max(
        max(abs(sampled[k].mean - exact[k].mean) for k in exact),
        max(abs(sampled[k].variance - exact[k].variance) for k in exact),
    )
    announce("2b (mcmc vs exact)", worst <= 0.1 and elapsed < 30,
             f"40k kept draws within {worst:.4f} of exact moments; runtime {elapsed:.1f}s")
    assert worst <= 0.1
    assert elapsed < 30


def test_criterion_2c_exact_ground_truth_regression():
    summaries = summarize(reconcile_exact(MINIMAL, poisson_249(), epsilon=1e-9), MINIMAL)
    worst = max(
        max(abs(summaries[k].mean - GROUND_TRUTH["means"][k]) for k in GROUND_TRUTH["means"]),
        max(abs(summaries[k].variance - GROUND_TRUTH["vars"][k]) for k in GROUND_TRUTH["vars"]),
    )
    announce("2c (exact vs high-precision enumeration)", worst < 1e-6,
             f"max deviation {worst:.2e} (tol 1e-6)")
    assert worst < 1e-6


def test_criterion_3_sequential_equals_full_update():
    start = time.monotonic()
    base = BaseForecastSet(
        [Poisson(1.0), Poisson(2.0), Poisson(3.0), Poisson(4.0)],
        [Poisson(12.0), Poisson(4.0), Poisson(6.0)],
    )
    joint = reconcile_exact(H421, base)
    weights = np.ones(len(joint.bottom_support))
    for j in range(H421.m):
        weights *= base.bottom[j].pmf(joint.bottom_support[:, j])
    for i in range(H421.n_upper):
        weights *= base.upper[i].pmf(joint.bottom_support @ H421.a_matrix[i])
    oracle = weights / weights.sum()
    worst_full = np.abs(joint.probabilities - oracle).max()

    worst_perm = 0.0
    for order in itertools.permutations(range(3)):
        j = bottom_up_exact(H421, base)
        for i in order:
            j = condition_on_upper(j, H421, i, base.upper[i])
        worst_perm = max(worst_perm, np.abs(j.probabilities - joint.probabilities).max())
    elapsed = time.monotonic() - start
    ok = worst_full < 1e-12 and worst_perm < 1e-12 and elapsed < 10
    announce(3, ok, f"sequential vs full-update {worst_full:.2e}, permutations "
                    f"{worst_perm:.2e} (tol 1e-12); runtime {elapsed:.1f}s")
    assert worst_full < 1e-12
    assert worst_perm < 1e-12
    assert elapsed < 10


def test_criterion_4_mint_algebra():
    rng = np.random.default_rng(2024)
    choices = [(2, [2]), (4, [2, 4]), (6, [2, 3, 6]), (8, [2, 4, 8]),
               (12, [2, 3, 4, 6, 12]), (9, [3, 9]), (10, [2, 5, 10])]
    worst_gs, worst_idem, worst_cov = 0.0, 0.0, 0.0
    for _ in range(100):
        m, factors = choices[rng.integers(len(choices))]
        h = build_temporal_hierarchy(m, factors)
        w = np.diag(rng.uniform(0.1, 10.0, size=h.n))
        g = mint_g(h, w)
        s = h.s_matrix.astype(float)
        worst_gs = max(worst_gs, np.abs(g @ s - np.eye(h.m)).max())
        sg = s @ g
        worst_idem = max(worst_idem, np.abs(sg @ sg - sg).max())
        direct = s @ np.linalg.inv(s.T @ np.linalg.solve(w, s)) @ s.T
        worst_cov = max(worst_cov, np.abs(direct - s @ g @ w @ g.T @ s.T).max())

    h = build_temporal_hierarchy(4, [2, 4])
    y = rng.uniform(0, 10, size=h.n)
    v = rng.uniform(0.2, 4.0, size=h.n)
    base = [GaussianForecast(mu, var) for mu, var in zip(y, v)]
    m1 = reconcile_gaussian(h, base, HierarchyVariance(v)).mean
    m2 = reconcile_gaussian(h, base, HierarchyVariance(5.5 * v)).mean
    scale_dev = np.abs(m1 - m2).max()

    ok = worst_gs < 1e-8 and worst_idem < 1e-8 and worst_cov < 1e-10 and scale_dev < 1e-10
    announce(4, ok, f"GS-I {worst_gs:.2e}, idempotence {worst_idem:.2e} (tol 1e-8); "
                    f"covariance forms {worst_cov:.2e} (tol 1e-10); "
                    f"W-scaling mean shift {scale_dev:.2e}")
    assert worst_gs < 1e-8 and worst_idem < 1e-8
    assert worst_cov < 1e-10
    assert scale_dev < 1e-10


def test_criterion_5_gaussian_equals_mint_moments():
    # independent oracle: explicit 2x2 normal equations solved by adjugate
    def solve_2x2(w_diag, y_hat):
        s = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        w_inv = np.diag(1.0 / np.asarray(w_diag, dtype=float))
        gram = s.T @ w_inv @ s
        rhs = s.T @ w_inv @ np.asarray(y_hat, dtype=float)
        det = gram[0, 0] * gram[1, 1] - gram[0, 1] * gram[1, 0]
        adj = np.array([[gram[1, 1], -gram[0, 1]], [-gram[1, 0], gram[0, 0]]])
        return adj @ rhs / det

    stated = reconcile_gaussian(MINIMAL, [GaussianForecast(9, 6), GaussianForecast(2, 2),
                                          GaussianForecast(4, 4)])
    dev_stated = np.abs(stated.bottom_mean - solve_2x2([6, 2, 4], [9, 2, 4])).max()
    direction_ok = (stated.bottom_mean[0] > 2 and stated.bottom_mean[1] > 4
                    and stated.mean[0] < 9)

    matched = reconcile_gaussian(MINIMAL, [GaussianForecast(9, 9), GaussianForecast(2, 2),
                                           GaussianForecast(4, 4)])
    dev_published = np.abs(matched.bottom_mean - np.array([2.4, 4.8])).max()

    ok = dev_stated < 1e-8 and dev_published < 1e-8 and direction_ok
    announce(5, ok, f"hand-solve deviation {dev_stated:.2e} (tol 1e-8); base-variance W "
                    f"reproduces (2.4, 4.8) within {dev_published:.2e}; "
                    f"direction matches the published reconciliation")
    assert dev_stated < 1e-8
    assert dev_published < 1e-8
    assert direction_ok


def test_criterion_6_scoring_closed_forms():
    rps_zero = rps_discrete(Tabulated(np.array([0.0, 0.0, 1.0])), 2)
    inside = mis(1, 5, 3, 0.1)
    y = np.array([1.0, 2.0, 3.0])
    s0 = np.tile([2.0, 4.0, 0.0], (8, 1))
    es_point = energy_score(s0, s0, y, alpha_exp=2.0)
    es_expected = float(np.sum((y - s0[0]) ** 2))

    rng = np.random.default_rng(6)
    worst_sym, out_of_bounds = 0.0, 0
    for _ in range(10_000):
        a, b = rng.uniform(0, 50, size=2)
        s = skill_score(a, b)
        worst_sym = max(worst_sym, abs(s + skill_score(b, a)))
        if not -2 <= s <= 2:
            out_of_bounds += 1
    with pytest.raises(UndefinedSkill):
        skill_score(0.0, 0.0)

    ok = (rps_zero == 0.0 and inside == 4.0 and es_point == pytest.approx(es_expected)
          and worst_sym < 1e-12 and out_of_bounds == 0)
    announce(6, ok, f"RPS(point,y)=0, MIS inside=width, ES(point)=||y-s0||^2; "
                    f"skill antisymmetry within {worst_sym:.1e}, all 10k pairs in [-2,2]")
    assert rps_zero == 0.0
    assert inside == 4.0
    assert es_point == pytest.approx(es_expected)
    assert worst_sym < 1e-12 and out_of_bounds == 0


def test_criterion_7_mcmc_total_variation():
    base = poisson_249()
    exact = reconcile_exact(MINIMAL, base)
    k1 = exact.bottom_support[:, 0].max() + 1
    k2 = exact.bottom_support[:, 1].max() + 1
    grid = np.zeros((k1, k2))
    grid[exact.bottom_support[:, 0], exact.bottom_support[:, 1]] = exact.probabilities
    joint = reconcile_mcmc(MINIMAL, base, n_chains=4, n_samples=10_000, seed=0)
    emp = np.zeros_like(grid)
    inside = (joint.draws[:, 0] < k1) & (joint.draws[:, 1] < k2)
    np.add.at(emp, (joint.draws[inside, 0], joint.draws[inside, 1]), 1.0 / len(joint.draws))
    tv = 0.5 * (np.abs(emp - grid).sum() + (1 - inside.mean()))
    announce(7, tv <= 0.02, f"bottom-pair total variation {tv:.4f} (tol 0.02) "
                            f"at 40k kept draws, seed 0")
    assert tv <= 0.02


def test_criterion_8_qualitative_reconciliation_effects():
    base = poisson_249()
    bu = summarize(bottom_up_exact(MINIMAL, base), MINIMAL)
    joint = reconcile_exact(MINIMAL, base)
    rec = summarize(joint, MINIMAL)
    means_up = rec["b1"].mean > bu["b1"].mean and rec["b2"].mean > bu["b2"].mean
    vars_down = all(rec[k].variance < bu[k].variance for k in ("b1", "b2", "agg2_1"))
    corr = correlation(joint, MINIMAL, 1, 2)
    ok = means_up and vars_down and corr < 0
    announce(8, ok, f"bottom means rise, all variances fall, corr(b1,b2)={corr:.3f}<0 "
                    f"under aggregate evidence above the bottom-up total")
    assert means_up and vars_down and corr < 0


def test_criterion_9_synthetic_benchmark(tmp_path):
    report_a = run_benchmark(tmp_path / "a")
    report_b = run_benchmark(tmp_path / "b")
    finite = all(np.isfinite([row["value"] for row in report_a.rows]))
    rps_skill = [r["skill"] for r in report_a.skill_rows
                 if r["metric"] == "rps" and r["method"] == "probCount_mcmc"]
    deterministic = (
        (tmp_path / "a" / "out_scores" / "scores.csv").read_bytes()
        == (tmp_path / "b" / "out_scores" / "scores.csv").read_bytes()
        and (tmp_path / "a" / "out_scores" / "skill.csv").read_bytes()
        == (tmp_path / "b" / "out_scores" / "skill.csv").read_bytes()
    )
    ok = finite and deterministic and rps_skill and all(np.isfinite(rps_skill))
    announce(9, ok, f"synthetic intermittent benchmark: all scores finite, pipeline "
                    f"deterministic, probCount RPS skill vs normal averages "
                    f"{np.mean(rps_skill):+.3f} (no numeric target)")
    assert finite
    assert deterministic
    assert rps_skill and all(np.isfinite(rps_skill))


def test_criterion_10_demo_determinism(tmp_path):
    harness.demo("poisson_table3", out_dir=tmp_path / "run1", seed=7, quiet=True)
    harness.demo("poisson_table3", out_dir=tmp_path / "run2", seed=7, quiet=True)
    files1 = sorted(p.name for p in (tmp_path / "run1").iterdir())
    files2 = sorted(p.name for p in (tmp_path / "run2").iterdir())
    match, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "run1", tmp_path / "run2", files1, shallow=False)
    ok = files1 == files2 and not mismatch and not errors
    announce(10, ok, f"demo outputs byte-identical across runs: {files1}")
    assert ok
