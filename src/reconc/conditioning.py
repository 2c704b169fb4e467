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
import warnings
from dataclasses import asdict, dataclass
from functools import reduce

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

    def to_dict(self) -> dict:
        return {"acceptance_rates": self.acceptance_rates.tolist(), "rhat": self.rhat.tolist(),
                "n_kept": self.n_kept, "burn_in": self.burn_in, "thin": self.thin}

    @classmethod
    def from_dict(cls, d: dict) -> "SamplerDiagnostics":
        """Inverse of to_dict; the chain count is that of the acceptance rates."""
        rates = np.asarray(d["acceptance_rates"], dtype=float)
        return cls(rates, np.asarray(d["rhat"], dtype=float), n_chains=len(rates),
                   n_kept=d["n_kept"], burn_in=d["burn_in"], thin=d["thin"])


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
    base.validate(h)
    sizes = [pmf.quantile_truncate(epsilon) + 1 for pmf in base.bottom]
    n_cells = math.prod(sizes)
    if n_cells > cell_cap:
        raise SupportTooLarge(
            f"product support has {n_cells:.3g} cells (cap {cell_cap}); "
            "use reconcile_mcmc instead"
        )
    marginals = [pmf.pmf(np.arange(s)) for pmf, s in zip(base.bottom, sizes)]
    probs = reduce(np.multiply.outer, marginals).reshape(-1)
    # column-major view of the C-order index grid; a full grid written by
    # np.savez_compressed (the demos) then deflates column by column, which is fast
    support = np.indices(sizes, dtype=np.int64).reshape(h.m, -1).T
    return CountJoint(support, probs / probs.sum())


def condition_on_upper(
    joint: CountJoint, h: Hierarchy, upper_index: int, evidence: CountPmf
) -> CountJoint:
    """Update an exact joint with the virtual evidence for one upper node.

    Atom b is reweighted by the evidence mass at its aggregate value
    A[upper_index] @ b, then the joint is renormalized. Atoms with zero
    probability keep it: conditioning never revives them.

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
    """
    joint = bottom_up_exact(h, base, epsilon=epsilon, cell_cap=cell_cap)
    for i, evidence in enumerate(base.upper):
        if evidence is not None:
            joint = condition_on_upper(joint, h, i, evidence)
    return joint


def trim_joint(joint: CountJoint, bottom: list[CountPmf]) -> CountJoint:
    """Keep the atoms of a full exact grid that carry mass.

    The lightest atoms are dropped while their total mass stays within
    ATOM_TOL, so zero-mass atoms always go and every dropped atom is lighter
    than every kept one. The kept atoms stay in grid order and are
    renormalized. The diagnostics record the dropped mass and the edge
    mass: the mass, before trimming, on atoms where some bottom j sits at
    the grid's top cell while its pmf `bottom[j]` has mass beyond it. A
    large edge mass means the truncated grid cut posterior mass.

    Warns:
        TruncationWarning: edge mass above EDGE_MASS_WARN.
    """
    support, p = joint.bottom_support, joint.probabilities
    tops = support.max(axis=0)
    at_edge = np.zeros(len(p), dtype=bool)
    for j, pmf in enumerate(bottom):
        if pmf.pmf(tops[j] + 1) > 0:
            at_edge |= support[:, j] == tops[j]
    edge_mass = float(p[at_edge].sum())
    if edge_mass > EDGE_MASS_WARN:
        warnings.warn(
            f"exact joint holds {edge_mass:.3g} of its mass at the top cell of a truncated "
            f"bottom grid (warning above {EDGE_MASS_WARN:g}); the grid cuts posterior mass",
            TruncationWarning,
            stacklevel=2,
        )
    ascending = np.sort(p)
    cumulative = np.cumsum(ascending)
    # the lightest atom whose running total passes ATOM_TOL is the lightest one kept
    keep = p >= ascending[np.searchsorted(cumulative, ATOM_TOL, side="right")]
    n_dropped = len(p) - np.count_nonzero(keep)
    dropped_mass = float(cumulative[n_dropped - 1]) if n_dropped else 0.0
    kept = p[keep]
    return CountJoint(support[keep], kept / kept.sum(), TrimDiagnostics(dropped_mass, edge_mass))


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


def _run_chain(rng: np.random.Generator, tables: tuple, start: list, start_upper: list,
               burn_in: int, thin: int, out: np.ndarray) -> tuple[int, bool]:
    """Run one Metropolis-Hastings chain; returns (accepted moves, reached).

    The chain draws its coordinates, steps and log-uniforms from `rng` in
    that order, then walks on plain Python lists. Every `thin`-th state after
    `burn_in` goes to the next row of `out`. Moving b_j by `step` moves every
    upper in column A[:, j] by `step` too (A is 0/1), so a chain that holds
    positive target mass scores the move by that local log-target delta.
    Until it reaches such a state, a chain accepts an in-range proposal iff
    the full target there is positive.
    """
    caps, bottom_tables, upper_tables, columns = tables
    col_tables = [[(i, upper_tables[i]) for i in col] for col in columns]

    def full_log_target(b: list, v: list) -> float:
        return (sum(table[x] for table, x in zip(bottom_tables, b))
                + sum(table[x] for table, x in zip(upper_tables, v)))

    total_iters = burn_in + len(out) * thin
    coords = rng.integers(0, len(caps), size=total_iters).tolist()
    steps = (rng.integers(0, 2, size=total_iters) * 2 - 1).tolist()
    log_u = np.log(rng.random(total_iters)).tolist()
    state, u = list(start), list(start_upper)
    reached = math.isfinite(full_log_target(state, u))
    accepted = kept = 0
    next_keep = burn_in + thin - 1
    for it, (j, step, lu) in enumerate(zip(coords, steps, log_u)):
        new = state[j] + step
        if 0 <= new <= caps[j]:
            if reached:
                table = bottom_tables[j]
                delta = table[new] - table[new - step]
                for i, table in col_tables[j]:
                    v = u[i]
                    delta += table[v + step] - table[v]
                accept = lu < delta
            else:
                prop, prop_u = state.copy(), u.copy()
                prop[j] = new
                for i in columns[j]:
                    prop_u[i] += step
                accept = reached = math.isfinite(full_log_target(prop, prop_u))
            if accept:
                state[j] = new
                for i in columns[j]:
                    u[i] += step
                accepted += 1
        if it == next_keep:
            out[kept] = state
            kept += 1
            next_keep += thin
    return accepted, reached


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
    zero target mass and are rejected. A move of b_j is scored by its local
    log-target delta: the change in the log pmf of b_j plus the change in the
    evidence log pmf of each upper node in column A[:, j]. Chains start at
    the per-bottom medians, run `burn_in` discarded iterations (default: half
    the sampling phase) and then keep every `thin`-th state until
    `n_samples` draws per chain are collected. Chains run one after another,
    each from its own generator spawned from `seed`, so every chain's draws
    depend only on `seed` and its index.

    Raises:
        ValueError: n_chains, n_samples or thin below 1, or burn_in below 0.
        SamplerStuck: a chain never reached a state with positive target
            probability.

    Warns:
        ConvergenceWarning: split R-hat above 1.1 on some coordinate
            (non-fatal; also recorded in the diagnostics).
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
    tables = (caps.tolist(), bottom_tables.tolist(), upper_tables.tolist(),
              [np.flatnonzero(col).tolist() for col in h.a_matrix.T])
    start = [min(pmf.median(), cap) for pmf, cap in zip(base.bottom, tables[0])]
    start_upper = (h.a_matrix @ start).tolist()

    kept = np.empty((n_chains, n_samples, h.m), dtype=np.int64)
    accepted = np.zeros(n_chains, dtype=np.int64)
    stuck = []
    for c, child in enumerate(np.random.SeedSequence(seed).spawn(n_chains)):
        accepted[c], reached = _run_chain(np.random.default_rng(child), tables, start,
                                          start_upper, burn_in, thin, kept[c])
        if not reached:
            stuck.append(c)
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
    diag = SamplerDiagnostics(
        acceptance_rates=accepted / (burn_in + n_samples * thin),
        rhat=rhat,
        n_chains=n_chains,
        n_kept=n_chains * n_samples,
        burn_in=burn_in,
        thin=thin,
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
