"""Reconciliation of count forecasts by conditioning on upper base forecasts.

The joint over the hierarchy starts as the probabilistic bottom-up
distribution (independent bottom pmfs, uppers determined by summation).
Each upper base forecast is then folded in as uncertain (virtual) evidence:
atom b is reweighted by the likelihood p_hat(u_i = A[i] @ b) and the joint
renormalized. The posterior is available exactly (enumeration over a
truncated product support) or by Metropolis-Hastings sampling over bottom
count vectors.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import asdict, dataclass
from functools import partial, reduce
from itertools import islice

import numpy as np

from .distributions import CountPmf, Tabulated, DEFAULT_EPSILON
from .errors import (
    ConvergenceWarning,
    DimensionError,
    IncompatibleEvidence,
    SamplerStuck,
    SupportTooLarge,
    TruncationWarning,
    UndefinedCorrelation,
)
from .hierarchy import Hierarchy

#: largest number of enumerated cells before exact reconciliation refuses
DEFAULT_CELL_CAP = 10**7

#: per-bottom tail mass ignored by the MCMC lookup tables
_MCMC_TAIL = 1e-15

#: total probability that trim_joint may drop from an exact joint
ATOM_TOL = 1e-12

#: edge mass above which trim_joint warns that the grid cuts posterior mass
EDGE_MASS_WARN = 1e-6


@dataclass
class BaseForecastSet:
    """Per-node base forecasts: bottom pmfs plus optional upper evidences.

    Bottom forecasts are treated as independent. A None entry in `upper`
    means that evidence is unavailable and its update is skipped.
    """

    bottom: list[CountPmf]
    upper: list[CountPmf | None]

    def validate(self, h: Hierarchy):
        if len(self.bottom) != h.m:
            raise DimensionError(f"expected {h.m} bottom forecasts, got {len(self.bottom)}")
        if any(pmf is None for pmf in self.bottom):
            raise DimensionError("bottom forecasts must all be present")
        if len(self.upper) != h.n_upper:
            raise DimensionError(f"expected {h.n_upper} upper slots, got {len(self.upper)}")


@dataclass
class SamplerDiagnostics:
    acceptance_rates: np.ndarray  # per chain
    rhat: np.ndarray  # split R-hat per bottom coordinate
    n_chains: int
    n_kept: int
    burn_in: int
    thin: int
    cap_share: float  # share of kept draws with some bottom at a cap that cuts its pmf

    def to_dict(self) -> dict:
        return {"acceptance_rates": self.acceptance_rates.tolist(), "rhat": self.rhat.tolist(),
                "n_kept": self.n_kept, "burn_in": self.burn_in, "thin": self.thin,
                "cap_share": self.cap_share}

    @classmethod
    def from_dict(cls, d: dict) -> "SamplerDiagnostics":
        """Inverse of to_dict; the chain count is that of the acceptance rates.

        A record written before the cap share was kept reads back with NaN.
        """
        rates = np.asarray(d["acceptance_rates"], dtype=float)
        return cls(rates, np.asarray(d["rhat"], dtype=float), n_chains=len(rates),
                   n_kept=d["n_kept"], burn_in=d["burn_in"], thin=d["thin"],
                   cap_share=d.get("cap_share", math.nan))


@dataclass
class TrimDiagnostics:
    """Probability mass that trim_joint dropped, and mass at the grid's edge."""

    dropped_mass: float
    edge_mass: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class CountJoint:
    """Coherent joint pmf over bottom count vectors, held as weighted atoms.

    Exact enumeration stores distinct atoms with their probabilities (the
    full grid, or after trim_joint only the atoms that carry mass); a
    sampler stores its draws in draw order (chains concatenated), each an
    atom of weight 1/N. Upper values are implied by A @ b.
    """

    bottom_support: np.ndarray  # (n_atoms, m) non-negative ints
    probabilities: np.ndarray  # (n_atoms,) summing to 1
    diagnostics: SamplerDiagnostics | TrimDiagnostics | None = None

    @classmethod
    def from_draws(cls, draws: np.ndarray,
                   diagnostics: SamplerDiagnostics | None = None) -> "CountJoint":
        """Equal-weight joint over sampled bottom vectors, kept in draw order."""
        return cls(draws, np.full(len(draws), 1.0 / len(draws)), diagnostics)

    @property
    def draws(self) -> np.ndarray:
        """Read-only view of the atoms; for sampled joints, the draws in order."""
        view = self.bottom_support.view()
        view.flags.writeable = False
        return view

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n bottom vectors from the joint."""
        p = self.probabilities / self.probabilities.sum()
        idx = rng.choice(len(p), size=n, p=p)
        return self.bottom_support[idx]


def _exact_grid(h: Hierarchy, base: BaseForecastSet, epsilon: float, cell_cap: int,
                upper: list[CountPmf | None]) -> np.ndarray:
    """Bottom-up probabilities conditioned on `upper`, one axis per bottom (C order).

    Each present evidence multiplies in as a table over the axes of its A
    row, broadcast over the others, and the grid is renormalized after each:
    cell by cell the arithmetic of bottom_up_exact and condition_on_upper,
    so the values are equal to the bit. SupportTooLarge is raised before any
    grid is allocated.
    """
    base.validate(h)
    sizes = [pmf.quantile_truncate(epsilon) + 1 for pmf in base.bottom]
    n_cells = math.prod(sizes)
    if n_cells > cell_cap:
        raise SupportTooLarge(
            f"product support has {n_cells:.3g} cells (cap {cell_cap}); "
            "use reconcile_mcmc instead"
        )
    marginals = [pmf.pmf(np.arange(s)) for pmf, s in zip(base.bottom, sizes)]
    grid = reduce(np.multiply.outer, marginals).reshape(-1)
    grid /= grid.sum()
    grid = grid.reshape(sizes)
    for i, evidence in enumerate(upper):
        if evidence is None:
            continue
        in_row = h.a_matrix[i] == 1
        sums = reduce(np.add.outer, [np.arange(s) for s, on in zip(sizes, in_row) if on])
        table = evidence.pmf(np.arange(sums.max() + 1))[sums]
        grid *= table.reshape(tuple(np.where(in_row, sizes, 1)))
        total = grid.sum()
        if total <= 0:
            raise IncompatibleEvidence(
                f"evidence for upper node {i} has no mass on reachable sums"
            )
        grid /= total
    return grid


def _grid_joint(grid: np.ndarray) -> CountJoint:
    """The joint with one atom per cell of a probability grid, in C order."""
    # column-major view of the C-order index grid; a full grid written by
    # np.savez_compressed (the demos) then deflates column by column, which is fast
    support = np.indices(grid.shape, dtype=np.int64).reshape(grid.ndim, -1).T
    return CountJoint(support, grid.reshape(-1))


def bottom_up_exact(
    h: Hierarchy,
    base: BaseForecastSet,
    epsilon: float = DEFAULT_EPSILON,
    cell_cap: int = DEFAULT_CELL_CAP,
) -> CountJoint:
    """Tabulate the probabilistic bottom-up joint over a truncated support.

    Each bottom pmf is truncated at its 1-epsilon quantile; the product
    measure over the resulting grid is renormalized. Upper values need no
    storage: they are implied by A @ b, which makes the joint coherent by
    construction.

    Raises:
        SupportTooLarge: the grid would exceed cell_cap cells.
    """
    return _grid_joint(_exact_grid(h, base, epsilon, cell_cap, upper=[]))


def condition_on_upper(
    joint: CountJoint, h: Hierarchy, upper_index: int, evidence: CountPmf
) -> CountJoint:
    """Update an exact joint with the virtual evidence for one upper node.

    Atom b is reweighted by the evidence mass at its aggregate value
    A[upper_index] @ b, then the joint is renormalized. Atoms with zero
    probability keep it: conditioning never revives them. This is the
    per-atom reference for the grid updates of reconcile_exact.

    Raises:
        IncompatibleEvidence: the evidence puts zero mass on every aggregate
            value reachable from the current support.
    """
    if not 0 <= upper_index < h.n_upper:
        raise DimensionError(f"upper index {upper_index} out of range for {h.n_upper} uppers")
    u_values = joint.bottom_support @ h.a_matrix[upper_index]
    weights = joint.probabilities * evidence.pmf(np.arange(u_values.max() + 1))[u_values]
    total = weights.sum()
    if total <= 0:
        raise IncompatibleEvidence(
            f"evidence for upper node {upper_index} has no mass on reachable sums"
        )
    return CountJoint(joint.bottom_support, weights / total)


def reconcile_exact(
    h: Hierarchy,
    base: BaseForecastSet,
    epsilon: float = DEFAULT_EPSILON,
    cell_cap: int = DEFAULT_CELL_CAP,
) -> CountJoint:
    """Bottom-up joint conditioned sequentially on every present evidence.

    Updates are applied in A-row order; the order does not matter because
    virtual-evidence updates commute. Absent upper forecasts are skipped.
    Every cell of the bottom_up_exact grid stays an atom, so this is the
    oracle the samplers are tested against. The updates run on the grid, one
    broadcast evidence table each, and give to the bit the probabilities of
    condition_on_upper applied in the same order.
    """
    return _grid_joint(_exact_grid(h, base, epsilon, cell_cap, base.upper))


def _trim(p: np.ndarray, at_edge: np.ndarray) -> tuple[np.ndarray, np.ndarray, TrimDiagnostics]:
    """trim_joint's rule on atom probabilities and their edge mask.

    Returns the mask of the kept atoms, their renormalized probabilities and
    the diagnostics.
    """
    edge_mass = float(p[at_edge].sum())
    if edge_mass > EDGE_MASS_WARN:
        warnings.warn(
            f"exact joint holds {edge_mass:.3g} of its mass at the top cell of a truncated "
            f"bottom grid (warning above {EDGE_MASS_WARN:g}); the grid cuts posterior mass",
            TruncationWarning,
            stacklevel=3,
        )
    ascending = np.sort(p)
    cumulative = np.cumsum(ascending)
    # the lightest atom whose running total passes ATOM_TOL is the lightest one kept
    keep = p >= ascending[np.searchsorted(cumulative, ATOM_TOL, side="right")]
    n_dropped = len(p) - np.count_nonzero(keep)
    dropped_mass = float(cumulative[n_dropped - 1]) if n_dropped else 0.0
    kept = p[keep]
    return keep, kept / kept.sum(), TrimDiagnostics(dropped_mass, edge_mass)


def trim_joint(joint: CountJoint, bottom: list[CountPmf]) -> CountJoint:
    """Keep the atoms of a full exact grid that carry mass.

    The lightest atoms are dropped while their total mass stays within
    ATOM_TOL, so zero-mass atoms always go and every dropped atom is lighter
    than every kept one. The kept atoms stay in grid order and are
    renormalized. The diagnostics record the dropped mass and the edge
    mass: the mass, before trimming, on atoms where some bottom j sits at
    the grid's top cell while its pmf `bottom[j]` has mass beyond it. A
    large edge mass means the truncated grid cut posterior mass. This is
    the per-atom reference for _reconcile_exact_trimmed.

    Warns:
        TruncationWarning: edge mass above EDGE_MASS_WARN.
    """
    support, p = joint.bottom_support, joint.probabilities
    tops = support.max(axis=0)
    at_edge = np.zeros(len(p), dtype=bool)
    for j, pmf in enumerate(bottom):
        if pmf.pmf(tops[j] + 1) > 0:
            at_edge |= support[:, j] == tops[j]
    keep, kept, diagnostics = _trim(p, at_edge)
    return CountJoint(support[keep], kept, diagnostics)


def _reconcile_exact_trimmed(h: Hierarchy, base: BaseForecastSet) -> CountJoint:
    """trim_joint(reconcile_exact(h, base), base.bottom), equal to the bit.

    The edge mask is set along the grid's axes and support rows are built
    for the kept atoms only, so the full support is never allocated.
    """
    grid = _exact_grid(h, base, DEFAULT_EPSILON, DEFAULT_CELL_CAP, base.upper)
    at_edge = np.zeros(grid.shape, dtype=bool)
    for j, pmf in enumerate(base.bottom):
        if pmf.pmf(grid.shape[j]) > 0:
            np.moveaxis(at_edge, j, 0)[-1] = True
    keep, kept, diagnostics = _trim(grid.reshape(-1), at_edge.reshape(-1))
    support = np.stack(np.unravel_index(np.flatnonzero(keep), grid.shape), axis=1)
    return CountJoint(support, kept, diagnostics)


def _mcmc_tables(h: Hierarchy, base: BaseForecastSet):
    """Log-pmf lookup tables for the unnormalized target.

    Bottom tables are capped at the 1-1e-15 quantile of each pmf; states
    beyond a cap are treated as zero-probability (the walk cannot jump the
    cap, so the bias is below the table's tail mass). Absent evidences
    contribute a zero row, i.e. a constant factor.
    """
    caps = np.array([pmf.quantile_truncate(_MCMC_TAIL) for pmf in base.bottom], dtype=np.int64)
    bottom_tables = np.full((h.m, int(caps.max()) + 1), -np.inf)
    for j, pmf in enumerate(base.bottom):
        bottom_tables[j, : caps[j] + 1] = pmf.log_pmf_table(int(caps[j]) + 1)
    upper_sizes = h.a_matrix @ caps + 1
    upper_tables = np.zeros((h.n_upper, int(upper_sizes.max())))
    for i, pmf in enumerate(base.upper):
        if pmf is not None:
            upper_tables[i, : upper_sizes[i]] = pmf.log_pmf_table(int(upper_sizes[i]))
    return caps, bottom_tables, upper_tables


def _split_rhat(kept: np.ndarray) -> np.ndarray:
    """Split R-hat per coordinate; kept has shape (chains, draws, m)."""
    n_chains, n_draws, m = kept.shape
    half = n_draws // 2
    if half < 2:
        return np.full(m, np.nan)
    seqs = np.concatenate([kept[:, :half], kept[:, half: 2 * half]], axis=0).astype(float)
    means = seqs.mean(axis=1)  # (2C, m)
    within = seqs.var(axis=1, ddof=1).mean(axis=0)  # (m,)
    between = half * means.var(axis=0, ddof=1)  # (m,)
    with np.errstate(divide="ignore", invalid="ignore"):  # within == 0: set just below
        rhat = np.sqrt(((half - 1) / half * within + between / half) / within)
    return np.where(within == 0, np.where(between == 0, 1.0, np.inf), rhat)


def _step_deltas(table: np.ndarray) -> tuple[list, list]:
    """Log-target changes `d[x] = table[x + s] - table[x]` for s = -1 and s = +1.

    A step off either end of the table gets -inf, so a move there is always
    rejected. Entries at cells without mass (-inf - -inf, or +inf) are never
    read: a chain scores by deltas only from states where every table is
    finite.
    """
    padded = np.concatenate([[-np.inf], table, [-np.inf]])
    with np.errstate(invalid="ignore"):
        return (padded[:-2] - table).tolist(), (padded[2:] - table).tolist()


def _mcmc_moves(caps: np.ndarray, bottom_tables: np.ndarray, upper_tables: np.ndarray,
                a_matrix: np.ndarray) -> list[tuple]:
    """The moves of a chain whose state lists the bottoms and then the uppers.

    Move `2*j + (s > 0)` shifts b_j by s = +-1, and with it every upper in
    column A[:, j] (A is 0/1). It holds s, the state entries it shifts, j,
    the delta table of b_j and an (entry, delta table) pair per upper in
    column order. Each node has one delta table per step, shared by every
    move that touches it; the bottom tables end at the caps and the upper
    tables at A @ caps.
    """
    m = len(caps)
    bottom_deltas = [_step_deltas(bottom_tables[j, : cap + 1]) for j, cap in enumerate(caps)]
    upper_deltas = [_step_deltas(upper_tables[i, :size])
                    for i, size in enumerate(a_matrix @ caps + 1)]
    moves = []
    for j, col in enumerate(a_matrix.T):
        uppers = np.flatnonzero(col).tolist()
        for side, step in enumerate((-1, 1)):
            moves.append((step, [j] + [m + i for i in uppers], j, bottom_deltas[j][side],
                          tuple((m + i, upper_deltas[i][side]) for i in uppers)))
    return moves


def _run_chain(rng: np.random.Generator, moves: list[tuple], full_tables: list[list],
               caps: list[int], start: list[int], burn_in: int, thin: int,
               out: np.ndarray) -> tuple[int, bool]:
    """Run one Metropolis-Hastings chain; returns (accepted moves, reached).

    The chain draws its coordinates, steps and log-uniforms from `rng` in
    that order and turns each (coordinate, step) into its move index. Its
    state is a plain list of the bottoms and then the uppers, starting at
    `start`. It walks `burn_in` moves, then `thin` moves per row of `out`,
    and stores the bottoms after each such block. A chain at a state of
    positive target mass scores a move by summing its delta-table entries
    there, the bottom's first and then the uppers' in column order. Until
    it reaches such a state, a chain accepts an in-range proposal iff the
    full target (`full_tables`, one log-pmf list per state entry) there is
    finite.
    """
    m = len(caps)
    total_iters = burn_in + len(out) * thin
    coords = rng.integers(0, m, size=total_iters)
    move_index = (2 * coords + rng.integers(0, 2, size=total_iters)).tolist()
    log_u = np.log(rng.random(total_iters)).tolist()

    def full_log_target(x: list) -> float:
        return sum(table[v] for table, v in zip(full_tables, x))

    x = list(start)
    reached = math.isfinite(full_log_target(x))
    accepted = 0
    walk = zip(move_index, log_u)
    for row in range(-1, len(out)):
        for k, lu in islice(walk, thin if row >= 0 else burn_in):
            step, entries, j, bottom_delta, upper_deltas = moves[k]
            if reached:
                delta = bottom_delta[x[j]]
                for e, table in upper_deltas:
                    delta += table[x[e]]
                accept = lu < delta
            elif 0 <= x[j] + step <= caps[j]:
                prop = x.copy()
                for e in entries:
                    prop[e] += step
                accept = reached = math.isfinite(full_log_target(prop))
            else:
                accept = False
            if accept:
                for e in entries:
                    x[e] += step
                accepted += 1
        if row >= 0:
            out[row] = x[:m]
    return accepted, reached


def _chain_job(child: np.random.SeedSequence, moves: list[tuple], full_tables: list[list],
               caps: list[int], start: list[int], burn_in: int, thin: int,
               n_samples: int) -> tuple[np.ndarray, int, bool]:
    """Run one chain from its spawned seed; returns (kept draws, accepted, reached)."""
    out = np.empty((n_samples, len(caps)), dtype=np.int64)
    accepted, reached = _run_chain(np.random.default_rng(child), moves, full_tables, caps,
                                   start, burn_in, thin, out)
    return out, accepted, reached


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_chains(job, children: list) -> list:
    """Results of `job` on each chain seed, in chain order.

    The jobs run in worker processes or in this one by the rule that
    reconcile_mcmc states; a daemonic process may not start children.
    """
    workers = min(len(children), _usable_cpus())
    if workers > 1:
        import multiprocessing

        if ("fork" in multiprocessing.get_all_start_methods()
                and not multiprocessing.current_process().daemon):
            from concurrent.futures.process import ProcessPoolExecutor

            with ProcessPoolExecutor(workers, multiprocessing.get_context("fork")) as pool:
                return list(pool.map(job, children))
    return list(map(job, children))


def reconcile_mcmc(
    h: Hierarchy,
    base: BaseForecastSet,
    n_chains: int = 4,
    n_samples: int = 10_000,
    burn_in: int | None = None,
    seed: int = 0,
    thin: int = 10,
) -> CountJoint:
    """Sample the reconciled joint with Metropolis-Hastings.

    The unnormalized target over bottom vectors is the product of the bottom
    pmfs and, for each present evidence, its mass at the implied aggregate.
    Proposals perturb one uniformly chosen coordinate by +-1 (symmetric, so
    no Hastings correction); proposals leaving the non-negative orthant have
    zero target mass and are rejected, as are those past a bottom's table
    cap. A move of b_j is scored by its local log-target delta: the change
    in the log pmf of b_j plus the change in the evidence log pmf of each
    upper node in column A[:, j], read from delta tables built once per
    call. The diagnostics' cap share is the share of kept draws in which
    some bottom sits at its cap while its pmf has mass beyond it, the rule
    trim_joint applies to a grid's edge. Chains start at
    the per-bottom medians, run `burn_in` discarded iterations (default: half
    the sampling phase) and then keep every `thin`-th state until
    `n_samples` draws per chain are collected. Each chain draws from its own
    generator spawned from `seed`, so its draws depend only on `seed` and
    its index, never on the number of worker processes. The tables and the
    start are built once here; the chains then run in
    `min(n_chains, usable CPUs)` forked worker processes, which end before
    this call returns. Usable CPUs are `len(os.sched_getaffinity(0))`, or
    `os.cpu_count()` where that call does not exist. The chains run in
    this process instead with 1 usable CPU, 1 chain, no "fork" start
    method, or from a daemonic process.

    Raises:
        ValueError: n_chains, n_samples or thin below 1, or burn_in below 0.
        SamplerStuck: a chain never reached a state with positive target
            probability.

    Warns:
        ConvergenceWarning: split R-hat above 1.1 on some coordinate
            (non-fatal; also recorded in the diagnostics).
        TruncationWarning: cap share above EDGE_MASS_WARN (also recorded in
            the diagnostics).
    """
    base.validate(h)
    if n_chains < 1:
        raise ValueError("n_chains must be >= 1")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if thin < 1:
        raise ValueError("thin must be >= 1")
    if burn_in is None:
        burn_in = (n_samples * thin) // 2
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    caps, bottom_tables, upper_tables = _mcmc_tables(h, base)
    moves = _mcmc_moves(caps, bottom_tables, upper_tables, h.a_matrix)
    full_tables = bottom_tables.tolist() + upper_tables.tolist()
    cap_list = caps.tolist()
    start = [min(pmf.median(), cap) for pmf, cap in zip(base.bottom, cap_list)]
    start += (h.a_matrix @ start).tolist()

    job = partial(_chain_job, moves=moves, full_tables=full_tables, caps=cap_list,
                  start=start, burn_in=burn_in, thin=thin, n_samples=n_samples)
    children = np.random.SeedSequence(seed).spawn(n_chains)
    chains, accepted, reached = zip(*_map_chains(job, children))
    kept = np.stack(chains)
    accepted = np.array(accepted, dtype=np.int64)
    stuck = [c for c, ok in enumerate(reached) if not ok]
    if stuck:
        raise SamplerStuck(f"chains {stuck} never reached positive target probability")

    rhat = _split_rhat(kept)
    assessed = rhat[~np.isnan(rhat)]
    if assessed.size and (assessed > 1.1).any():
        warnings.warn(
            f"split R-hat above 1.1 on some bottom coordinate: {np.round(rhat, 3)}",
            ConvergenceWarning,
            stacklevel=2,
        )
    cut = [j for j, pmf in enumerate(base.bottom) if pmf.pmf(caps[j] + 1) > 0]
    cap_share = float((kept[..., cut] == caps[cut]).any(axis=-1).mean())
    if cap_share > EDGE_MASS_WARN:
        warnings.warn(
            f"{cap_share:.3g} of the kept draws hold some bottom at its table cap while its "
            f"pmf goes on beyond it (warning above {EDGE_MASS_WARN:g}); the caps cut "
            "posterior mass",
            TruncationWarning,
            stacklevel=2,
        )
    diag = SamplerDiagnostics(
        acceptance_rates=accepted / (burn_in + n_samples * thin),
        rhat=rhat,
        n_chains=n_chains,
        n_kept=n_chains * n_samples,
        burn_in=burn_in,
        thin=thin,
        cap_share=cap_share,
    )
    return CountJoint.from_draws(kept.reshape(-1, h.m), diag)


def _node_values(joint: CountJoint, h: Hierarchy, node_index: int):
    """Values of one node across the atoms, with matching weights."""
    if not 0 <= node_index < h.n:
        raise DimensionError(f"node index {node_index} out of range for n={h.n}")
    return joint.bottom_support @ h.s_matrix[node_index], joint.probabilities


@dataclass
class MarginalSummary:
    """Per-node view of a reconciled joint."""

    label: str
    mean: float
    variance: float
    median: int
    interval: tuple[int, int]
    pmf: Tabulated

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "variance": self.variance,
            "median": self.median,
            "interval": list(self.interval),
            "marginal": self.pmf.to_dict(),
        }

    @classmethod
    def of(cls, label: str, pmf: Tabulated, alpha: float) -> "MarginalSummary":
        """Moments, median and central 1 - alpha interval of a tabulated pmf."""
        return cls(label, pmf.mean(), pmf.variance(), pmf.median(),
                   central_interval(pmf, alpha), pmf)


def central_interval(pmf: Tabulated, alpha: float) -> tuple[int, int]:
    """Equal-tailed interval on counts with coverage >= 1 - alpha.

    Lower endpoint: largest l whose strict lower tail P(X < l) is <= alpha/2;
    upper endpoint: smallest u with CDF(u) >= 1 - alpha/2.
    """
    cdf = np.cumsum(pmf.probs)
    below = np.concatenate([[0.0], cdf[:-1]])  # P(X < k)
    lo = int(np.max(np.nonzero(below <= alpha / 2 + 1e-12)[0]))
    hi = int(np.searchsorted(cdf, 1 - alpha / 2 - 1e-12, side="left"))
    return lo, min(hi, pmf.support_max)


def summarize(joint: CountJoint, h: Hierarchy, alpha: float = 0.1) -> dict[str, MarginalSummary]:
    """Marginal summaries for every node, keyed by node label.

    Bottom marginals come straight from the joint; upper marginals aggregate
    each atom through the relevant A row. Intervals are equal-tailed
    central intervals at level 1 - alpha.
    """
    out = {}
    for idx, label in enumerate(h.node_labels):
        values, weights = _node_values(joint, h, idx)
        out[label] = MarginalSummary.of(
            label, Tabulated.from_weights(np.bincount(values, weights=weights)), alpha)
    return out


def correlation(joint: CountJoint, h: Hierarchy, node_i: int, node_j: int) -> float:
    """Pearson correlation between two nodes under the reconciled joint."""
    vi, w = _node_values(joint, h, node_i)
    vj, _ = _node_values(joint, h, node_j)
    mi, mj = vi @ w, vj @ w
    var_i = (vi - mi) ** 2 @ w
    var_j = (vj - mj) ** 2 @ w
    if var_i <= 0 or var_j <= 0:
        raise UndefinedCorrelation(
            f"zero marginal variance for node pair ({node_i}, {node_j})"
        )
    cov = (vi - mi) * (vj - mj) @ w
    return float(cov / np.sqrt(var_i * var_j))
