"""Lock-step numpy Metropolis-Hastings sampler, kept as a test oracle.

This is the loop `reconcile_mcmc` ran before it moved to per-chain scalar
walks scored by local log-target deltas. All chains advance together; every
iteration evaluates the full log target of every chain's proposal. It draws
from the same per-chain streams, so its draws, acceptance rates and split
R-hat must equal those of `reconcile_mcmc`.
"""

import numpy as np

from reconc.conditioning import _mcmc_tables, _split_rhat
from reconc.errors import SamplerStuck


def reference_mcmc(h, base, n_chains=4, n_samples=10_000, burn_in=None, seed=0, thin=10):
    """Returns (draws, acceptance rates, split R-hat).

    Every chain starts at the capped bottom medians if their target mass is
    positive, else at the first of their neighbours b -+ e_j, taken for
    j = 1, 2, ... with -1 before +1, that lies within 0 and the caps and has
    positive mass; SamplerStuck is raised where none has.
    """
    if burn_in is None:
        burn_in = (n_samples * thin) // 2
    caps, bottom_tables, upper_tables = _mcmc_tables(h, base)
    coord_idx = np.arange(h.m)
    upper_idx = np.arange(h.n_upper)

    def log_target(states):
        lp = bottom_tables[coord_idx[None, :], states].sum(axis=1)
        u = states @ h.a_matrix.T
        return lp + upper_tables[upper_idx[None, :], u].sum(axis=1)

    total_iters = burn_in + n_samples * thin
    medians = np.array([min(pmf.median(), cap) for pmf, cap in zip(base.bottom, caps)],
                       dtype=np.int64)
    for start in [medians] + [medians + s * np.eye(h.m, dtype=np.int64)[j]
                              for j in range(h.m) for s in (-1, 1)]:
        if (start >= 0).all() and (start <= caps).all() and np.isfinite(log_target(start[None])):
            break
    else:
        raise SamplerStuck("no start of positive target mass")
    state = np.tile(start, (n_chains, 1))
    lp = log_target(state)

    children = np.random.SeedSequence(seed).spawn(n_chains)
    coords = np.empty((n_chains, total_iters), dtype=np.int64)
    steps = np.empty((n_chains, total_iters), dtype=np.int64)
    log_u = np.empty((n_chains, total_iters))
    for c, child in enumerate(children):
        rng = np.random.default_rng(child)
        coords[c] = rng.integers(0, h.m, size=total_iters)
        steps[c] = rng.integers(0, 2, size=total_iters) * 2 - 1
        log_u[c] = np.log(rng.random(total_iters))

    kept = np.empty((n_chains, n_samples, h.m), dtype=np.int64)
    accepted = np.zeros(n_chains, dtype=np.int64)
    chain_rows = np.arange(n_chains)
    kept_count = 0
    for it in range(total_iters):
        j = coords[:, it]
        old = state[chain_rows, j]
        new = old + steps[:, it]
        inside = (new >= 0) & (new <= caps[j])
        prop = state.copy()
        prop[chain_rows, j] = np.where(inside, new, old)
        lp_new = np.where(inside, log_target(prop), -np.inf)
        accept = log_u[:, it] < lp_new - lp
        state[accept] = prop[accept]
        lp[accept] = lp_new[accept]
        accepted += accept
        if it >= burn_in and (it - burn_in) % thin == thin - 1:
            kept[:, kept_count] = state
            kept_count += 1
    return kept.reshape(-1, h.m), accepted / total_iters, _split_rhat(kept)
