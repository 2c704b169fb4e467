"""Tests for the Metropolis-Hastings sampler over bottom count vectors."""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import MINIMAL, poisson_249, write_synthetic_observations
from reconc import conditioning, harness
from reconc.conditioning import (
    BaseForecastSet,
    _split_rhat,
    reconcile_exact,
    reconcile_mcmc,
    summarize,
)
from reconc.distributions import NegBinomial, Poisson, Tabulated
from reconc.errors import ConvergenceWarning, SamplerStuck, TruncationWarning
from reconc.hierarchy import Hierarchy, build_temporal_hierarchy
from reference_mcmc import reference_mcmc

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


MONTHLY_H = build_temporal_hierarchy(12, [2, 3, 4, 6, 12])


def monthly_mixed():
    """Poisson and NB bottoms, each upper Poisson at 1.2 x its bottom-up mean."""
    bottom = [Poisson(0.6) if j % 2 else NegBinomial(0.8, 0.35) for j in range(12)]
    means = np.array([pmf.mean() for pmf in bottom])
    upper = [Poisson(1.2 * float(row @ means)) for row in MONTHLY_H.a_matrix]
    return BaseForecastSet(bottom, upper)


SEVEN_UPPERS = Hierarchy.from_json(
    '{"A": [[1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1], [1, 1, 1, 0], [1, 1, 0, 1], '
    '[1, 0, 1, 1], [1, 1, 1, 1]]}')

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
    # bottom medians (1, 1) sum to 2, where the evidence has no mass: chains start at (2, 1)
    "unreached_start": (MINIMAL, BaseForecastSet(
        [Tabulated(np.array([0.1, 0.8, 0.1])), Tabulated(np.array([0.1, 0.8, 0.1]))],
        [Tabulated(np.array([0.0, 0.0, 0.0, 0.6, 0.4]))])),
    "monthly_poisson_nb": (MONTHLY_H, monthly_mixed()),
    # zero cells inside a bottom's and an evidence's support: -inf deltas next to them
    "interior_zeros": (MINIMAL, BaseForecastSet(
        [Tabulated(np.array([0.2, 0.3, 0.0, 0.3, 0.2])), Poisson(1.5)],
        [Tabulated(np.array([0.1, 0.2, 0.0, 0.3, 0.2, 0.2]))])),
    # evidence far above the bottom-up sum pins the bottoms at their caps
    "pinned_at_caps": (MINIMAL, BaseForecastSet([Poisson(0.5), Poisson(0.5)], [Poisson(700.0)])),
    # b3 is in no upper row: its moves are all padding past the bottom's own term
    "bottom_in_no_upper": (Hierarchy.from_json('{"A": [[1, 1, 0]]}'), BaseForecastSet(
        [Poisson(1.0), Poisson(2.0), Poisson(0.5)], [Poisson(4.0)])),
    # b1 is in all 7 rows, the widest column of any case; one evidence is absent
    "column_of_7_uppers": (SEVEN_UPPERS, BaseForecastSet(
        [Poisson(1.0), NegBinomial(1.5, 0.6), Poisson(0.7), Poisson(1.5)],
        [Poisson(1.1 * rate) for rate in SEVEN_UPPERS.a_matrix[:-1] @ [1.0, 1.0, 0.7, 1.5]]
        + [None])),
}


@pytest.mark.filterwarnings("ignore::reconc.errors.ConvergenceWarning")  # short chains
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_draws_equal_lockstep_reference(case):
    h, base = ORACLE_CASES[case]
    settings = dict(n_chains=3, n_samples=200, burn_in=150, seed=11, thin=2)
    if case == "pinned_at_caps":
        with pytest.warns(TruncationWarning, match="kept draws hold some bottom at its table cap"):
            joint = reconcile_mcmc(h, base, **settings)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            joint = reconcile_mcmc(h, base, **settings)
    draws, acceptance, rhat = reference_mcmc(h, base, **settings)
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


@pytest.mark.filterwarnings("ignore::reconc.errors.ConvergenceWarning")  # short chains
@pytest.mark.filterwarnings("ignore::reconc.errors.TruncationWarning")  # pinned_at_caps
@pytest.mark.parametrize("burn_in, thin", [(0, 2), (150, 1)], ids=["burn_in_0", "thin_1"])
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_draws_equal_lockstep_reference_at_block_edges(case, burn_in, thin):
    # no burn-in block, and keep blocks of a single move
    h, base = ORACLE_CASES[case]
    settings = dict(n_chains=3, n_samples=200, burn_in=burn_in, seed=11, thin=thin)
    joint = reconcile_mcmc(h, base, **settings)
    draws, acceptance, rhat = reference_mcmc(h, base, **settings)
    assert np.array_equal(joint.draws, draws)
    assert np.array_equal(joint.diagnostics.acceptance_rates, acceptance)
    assert np.array_equal(joint.diagnostics.rhat, rhat, equal_nan=True)


def count_forks(monkeypatch) -> list:
    """A list that gains one entry per os.fork this process makes from now on."""
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def run_both_paths(monkeypatch, h, base, **settings):
    """reconcile_mcmc on a new worker pool, then in this process, with the fork count.

    The pool is kept after each run: its workers are this process's only
    children.
    """
    conditioning._drop_pool()
    forks = count_forks(monkeypatch)
    runs = []
    for cpus in (settings["n_chains"], 1):
        monkeypatch.setattr(conditioning, "_usable_cpus", lambda cpus=cpus: cpus)
        runs.append(reconcile_mcmc(h, base, **settings))
        assert len(multiprocessing.active_children()) == settings["n_chains"]
    return runs, len(forks)


@pytest.mark.filterwarnings("ignore::reconc.errors.ConvergenceWarning")  # short chains
@pytest.mark.filterwarnings("ignore::reconc.errors.TruncationWarning")  # pinned_at_caps
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_worker_processes_give_the_in_process_draws(monkeypatch, case):
    h, base = ORACLE_CASES[case]
    (workers, in_process), forks = run_both_paths(monkeypatch, h, base, n_chains=3,
                                                 n_samples=200, burn_in=150, seed=11, thin=2)
    assert forks == 3
    assert np.array_equal(workers.draws, in_process.draws)
    for name in ("acceptance_rates", "rhat"):
        assert np.array_equal(getattr(workers.diagnostics, name),
                              getattr(in_process.diagnostics, name), equal_nan=True)
    assert workers.diagnostics.cap_share == in_process.diagnostics.cap_share


@pytest.mark.filterwarnings("ignore::reconc.errors.ConvergenceWarning")  # short chains
@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("case", ["unreached_start", "interior_zeros"])
def test_every_draw_has_positive_target_mass(case, seed):
    # no burn-in and a draw after every move: a chain's first state is a draw
    h, base = ORACLE_CASES[case]
    joint = reconcile_mcmc(h, base, n_chains=4, n_samples=200, burn_in=0, thin=1, seed=seed)
    draws = joint.draws
    factors = [pmf.pmf(draws[:, j]) for j, pmf in enumerate(base.bottom)]
    factors += [pmf.pmf(draws @ row) for row, pmf in zip(h.a_matrix, base.upper)
                if pmf is not None]
    with np.errstate(divide="ignore"):
        log_target = np.log(factors).sum(axis=0)
    assert np.isfinite(log_target).all()


@pytest.mark.parametrize("base", [
    # bottoms pinned at zero but evidence demands a total of five
    BaseForecastSet([Tabulated(np.array([1.0])), Tabulated(np.array([1.0]))],
                    [Tabulated(np.array([0.0] * 5 + [1.0]))]),
    # b1 + b2 = 30 only: neither the medians (0, 0) nor a neighbour gets there
    BaseForecastSet([Poisson(1.0), Poisson(1.0)], [Tabulated(np.eye(31)[30])]),
], ids=["pinned_bottoms", "far_evidence"])
def test_sampler_stuck_on_empty_target_before_any_worker_starts(monkeypatch, base):
    conditioning._drop_pool()
    forks = count_forks(monkeypatch)
    monkeypatch.setattr(conditioning, "_usable_cpus", lambda: 2)
    with pytest.raises(SamplerStuck, match="no chain can start"):
        reconcile_mcmc(MINIMAL, base, n_chains=2, n_samples=100, seed=0)
    assert forks == [] and multiprocessing.active_children() == []


def worker_pids() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


def test_later_calls_reuse_the_pool_until_they_need_more_workers(monkeypatch):
    settings = dict(n_samples=100, seed=4)
    conditioning._drop_pool()
    forks = count_forks(monkeypatch)
    monkeypatch.setattr(conditioning, "_usable_cpus", lambda: 3)
    first = reconcile_mcmc(MINIMAL, poisson_249(), n_chains=2, **settings)
    workers = worker_pids()
    assert len(forks) == len(workers) == 2
    again = reconcile_mcmc(MINIMAL, poisson_249(), n_chains=2, **settings)
    assert len(forks) == 2 and worker_pids() == workers
    assert np.array_equal(again.draws, first.draws)
    wider = reconcile_mcmc(MINIMAL, poisson_249(), n_chains=3, **settings)
    assert len(forks) == 5 and len(worker_pids()) == 3 and not worker_pids() & workers
    narrower = reconcile_mcmc(MINIMAL, poisson_249(), n_chains=2, **settings)
    assert len(forks) == 5
    assert np.array_equal(narrower.draws, first.draws)
    assert np.array_equal(wider.draws[:200], first.draws)  # the same first two chains


def draws_in_a_child(writer):
    joint = reconcile_mcmc(MINIMAL, poisson_249(), n_chains=2, n_samples=100, seed=6)
    writer.send((joint.draws.copy(), conditioning._pool[1] == os.getpid()))
    writer.close()


def test_a_forked_child_makes_its_own_pool_and_exits(monkeypatch):
    monkeypatch.setattr(conditioning, "_usable_cpus", lambda: 2)
    parent = reconcile_mcmc(MINIMAL, poisson_249(), n_chains=2, n_samples=100, seed=6)
    pool, workers = conditioning._pool, worker_pids()
    context = multiprocessing.get_context("fork")
    reader, writer = context.Pipe(duplex=False)
    child = context.Process(target=draws_in_a_child, args=(writer,))
    assert not child.daemon
    child.start()
    writer.close()
    try:
        assert reader.poll(60)
        draws, own_pool = reader.recv()
        child.join(60)
        assert not child.is_alive() and child.exitcode == 0  # its own pool did not hold it up
    finally:
        if child.is_alive():
            child.kill()
            child.join()
    assert own_pool
    assert np.array_equal(draws, parent.draws)
    forks = count_forks(monkeypatch)
    again = reconcile_mcmc(MINIMAL, poisson_249(), n_chains=2, n_samples=100, seed=6)
    assert conditioning._pool is pool and worker_pids() == workers and not forks
    assert np.array_equal(again.draws, parent.draws)


WORKER_PIDS_SCRIPT = """
import multiprocessing
from reconc import conditioning
from reconc.conditioning import BaseForecastSet, reconcile_mcmc
from reconc.distributions import Poisson
from reconc.hierarchy import Hierarchy

conditioning._usable_cpus = lambda: 2
h = Hierarchy.from_json('{"A": [[1, 1]]}')
base = BaseForecastSet([Poisson(2.0), Poisson(4.0)], [Poisson(9.0)])
for seed in (0, 1):
    reconcile_mcmc(h, base, n_chains=2, n_samples=100, seed=seed)
print(*[p.pid for p in multiprocessing.active_children()])
"""


def test_no_worker_outlives_its_process():
    env = {**os.environ, "PYTHONPATH": str(Path(conditioning.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", WORKER_PIDS_SCRIPT], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    pids = [int(pid) for pid in proc.stdout.split()]
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


KILLED_MAKER_SCRIPT = """
import multiprocessing
import time
from reconc import conditioning

conditioning._kept_pool(2).submit(int).result()  # a fork pool starts its workers here
print(*[p.pid for p in multiprocessing.active_children()], flush=True)
time.sleep(120)
"""


def _gone(pid: int) -> bool:
    """Whether process `pid` has exited; a zombie that no one reaped yet counts as gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    except OSError:  # no /proc: ask the kernel
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        return False
    return stat.rpartition(")")[2].split()[0] in ("Z", "X")


@pytest.mark.skipif(conditioning._usable_cpus() < 2
                    or "fork" not in multiprocessing.get_all_start_methods(),
                    reason="the kept pool needs 2 usable CPUs and the fork start method")
def test_workers_end_when_their_maker_is_killed():
    env = {**os.environ, "PYTHONPATH": str(Path(conditioning.__file__).parents[1])}
    proc = subprocess.Popen([sys.executable, "-c", KILLED_MAKER_SCRIPT], stdout=subprocess.PIPE,
                            text=True, env=env)
    try:
        pids = [int(pid) for pid in proc.stdout.readline().split()]
    finally:
        proc.kill()
        proc.wait(60)
        proc.stdout.close()
    assert len(pids) == 2
    deadline = time.monotonic() + 5
    try:
        while not all(_gone(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert all(_gone(pid) for pid in pids)
    finally:
        for pid in pids:
            if not _gone(pid):  # a worker that outlived its maker would wait for good
                os.kill(pid, signal.SIGKILL)


def test_a_pool_that_lost_a_worker_is_dropped(monkeypatch):
    settings = dict(n_chains=2, n_samples=100, burn_in=50, seed=8, thin=2)
    monkeypatch.setattr(conditioning, "_usable_cpus", lambda: 2)
    conditioning._drop_pool()
    reconcile_mcmc(MINIMAL, poisson_249(), **settings)
    workers = [p.pid for p in multiprocessing.active_children()]
    os.kill(workers[0], signal.SIGKILL)
    # the pool's manager thread marks the pool broken and only then ends the other worker, so
    # wait for both pids; it may also reap the victim first, which is_alive() would miss
    deadline = time.monotonic() + 60
    while not all(_gone(pid) for pid in workers) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert len(workers) == 2 and all(_gone(pid) for pid in workers)
    after = reconcile_mcmc(MINIMAL, poisson_249(), **settings)
    assert conditioning._pool is None
    monkeypatch.setattr(conditioning, "_usable_cpus", lambda: 1)
    in_process = reconcile_mcmc(MINIMAL, poisson_249(), **settings)
    assert np.array_equal(after.draws, in_process.draws)
    assert np.array_equal(after.diagnostics.acceptance_rates,
                          in_process.diagnostics.acceptance_rates)
    monkeypatch.setattr(conditioning, "_usable_cpus", lambda: 2)
    forks = count_forks(monkeypatch)
    reconcile_mcmc(MINIMAL, poisson_249(), **settings)
    assert len(forks) == 2  # the next call starts a new pool


def test_cap_share_warns_when_draws_sit_at_the_caps():
    # Poisson(0.5) bottoms are capped at 13; Poisson(700) evidence pulls them there
    base = BaseForecastSet([Poisson(0.5), Poisson(0.5)], [Poisson(700.0)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        joint = reconcile_mcmc(MINIMAL, base, n_chains=4, n_samples=2000, seed=0)
    assert [w.category for w in caught] == [TruncationWarning]
    at_cap = (joint.draws == 13).any(axis=1).mean()
    assert joint.diagnostics.cap_share == at_cap > 0.1


def test_cap_share_ignores_bottoms_the_cap_does_not_cut():
    # the point-mass bottoms end at their caps, so sitting there cuts nothing
    joint = reconcile_mcmc(MINIMAL, ORACLE_CASES["point_mass"][1], n_chains=2, n_samples=200,
                           seed=1)
    assert joint.diagnostics.cap_share == 0.0


def silent_run(h, base) -> float:
    """Cap share of a paper-settings run that must raise no TruncationWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        joint = reconcile_mcmc(h, base, n_chains=4, n_samples=10_000, seed=0, thin=10)
    return joint.diagnostics.cap_share


def test_cap_share_silent_below_the_caps():
    # evidence at 60 pulls the Poisson(0.5) bottoms to about 3.7, far below their caps of 13
    base = BaseForecastSet([Poisson(0.5), Poisson(0.5)], [Poisson(60.0)])
    assert silent_run(MINIMAL, base) == 0.0


def test_cap_share_silent_on_the_h421_demo(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        assert harness.demo("hierarchy421", out_dir=tmp_path, seed=0, quiet=True)


def test_cap_share_silent_on_a_monthly_series(tmp_path):
    write_synthetic_observations(tmp_path / "obs.csv")
    values = harness.read_observations(tmp_path / "obs.csv")["bursty"]
    entries = harness.empirical_poisson_forecasts(values[:-12], MONTHLY_H)
    assert silent_run(MONTHLY_H, harness._count_forecast_set(MONTHLY_H, entries)) == 0.0
