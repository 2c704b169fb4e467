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
from functools import cache, partial
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

#: most elements of any array the exact pass allocates: a step's (states, bottom values)
#: tables, or the atoms of reconcile_exact's expanded grid
DEFAULT_ARRAY_CAP = 10**7

#: exact_marginals drops the forward states lighter than this share of their step's total
PRUNE_ETA = 1e-18

#: largest certified TV bound of the pruned pass that exact_marginals accepts
PRUNE_BUDGET = 1e-12

#: per-bottom tail mass ignored by the MCMC lookup tables
_MCMC_TAIL = 1e-15

#: edge mass above which `exact_marginals` warns that the grid cuts posterior mass
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


@dataclass
class ExactDiagnostics:
    """Mass at the edge of an exact grid, the most forward states kept after any bottom,
    and the certified TV bound of the states that pruning dropped (0 when none were)."""

    edge_mass: float
    peak_states: int
    pruned_mass_bound: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class CountJoint:
    """Coherent joint pmf over bottom count vectors, held as weighted atoms.

    Exact enumeration stores every cell of its grid as an atom with its
    probability, zeros included; a sampler stores its draws in draw order
    (chains concatenated), each an atom of weight 1/N. Upper values are
    implied by A @ b.
    """

    bottom_support: np.ndarray  # (n_atoms, m) non-negative ints
    probabilities: np.ndarray  # (n_atoms,) summing to 1
    diagnostics: SamplerDiagnostics | None = None

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


def _capped(elements: int, cap: int, what: str):
    """Refuse, before it is allocated, an array of more than `cap` elements."""
    if elements > cap:
        raise SupportTooLarge(f"{what} would hold {elements:.3g} elements (cap {cap}); "
                              "use reconcile_mcmc instead")


def _grid_sizes(h: Hierarchy, base: BaseForecastSet, epsilon: float) -> list[int]:
    """Cells per bottom: each bottom pmf is cut at its 1-epsilon quantile."""
    base.validate(h)
    return [pmf.quantile_truncate(epsilon) + 1 for pmf in base.bottom]


def _forward(h: Hierarchy, base: BaseForecastSet, sizes: list[int], array_cap: int, eta: float):
    """Forward tables of the bottom-up joint conditioned on `base.upper`, bottom by bottom.

    The grid has `sizes` cells per bottom, C order. The state after bottom k
    is the vector of the partial sums of the A rows that are open (begun, not
    ended); every row is tracked, and an absent evidence's factor is 1. Step
    k multiplies a prefix's weight by `f_k(b_k)`, then by the product, in
    A-row order, of the present evidences whose rows end at k, each at its
    row's sum, and of a power of two near the inverse total (it is exact, so
    it cancels in the normalizer): the forward mass alpha sums these weights
    per (state, b_k), and each next state's mass is the pairwise sum of the
    masses that reach it, as is its edge mass, that of prefixes where some
    bottom sits at its top cell while its pmf goes on beyond it. Each step's
    (state, b_k) tables are refused with SupportTooLarge before they are
    allocated if they would hold more than `array_cap` elements.
    IncompatibleEvidence names the first evidence, in order of application,
    after which no mass is left: later factors have positive sums, so a
    partial product holds none exactly when the full one would.

    With `eta` > 0 the next states whose mass is below eta times the step's
    total are dropped (beam pruning), and their transitions lead to a sink,
    the index one past the kept states, whose completions weigh 0. A
    dropped prefix's completions weigh at most its mass times the sum of
    each later bottom's cut pmf and the largest value of each evidence that
    closes later. The dropped masses, carried through those sums, maxima
    and powers of two, thus bound the mass the pruned joint lacks; over the
    pruned total, that bounds the total variation distance between the
    pruned and the unpruned conditioned joints, and so between any of their
    marginals.

    Returns one step `(alpha, f, factor, to, closed)` per bottom k, the
    total and the edge mass (both scaled as alpha), and that bound. In a
    step, alpha holds the masses of the kept states before k, and `factor`,
    `to` (the next state) and each entry of `closed` (row i -> the sum of
    each row i that ends at k) are (states, b_k) arrays.
    """
    a, tops = h.a_matrix, np.array(sizes) - 1
    last = h.m - 1 - np.argmax(a[:, ::-1], axis=1)
    open_sums, alpha, edge, dropped, steps = {}, np.ones(1), np.zeros(1), 0.0, []
    for k, (pmf, size) in enumerate(zip(base.bottom, sizes)):
        _capped(len(alpha) * size, array_cap, f"the table at bottom {h.bottom_labels[k]!r}")
        b = np.arange(size)
        f = pmf.pmf(b)
        factor = np.ones((len(alpha), size))  # (states, b_k): the evidences closed at k
        sums = {i: np.add.outer(open_sums.get(i, np.zeros(len(alpha), np.int64)), a[i, k] * b)
                for i in range(h.n_upper) if i in open_sums or a[i, k]}
        closed = {i: s for i, s in sums.items() if last[i] == k}
        for i, s in closed.items():
            if base.upper[i] is not None:
                table = base.upper[i].pmf(np.arange(a[i] @ tops + 1))
                factor = factor * table[s]
                dropped *= table.max()
                if not alpha @ factor @ f > 0:
                    raise IncompatibleEvidence(
                        f"evidence for upper node {i} has no mass on reachable sums")
        scale = np.ldexp(1.0, -np.frexp(alpha @ factor @ f)[1])
        factor *= scale
        dropped *= scale * f.sum()
        key, radix = np.zeros(factor.size, np.int64), 1
        for i in sums:
            if last[i] > k:  # a mixed-radix key over the rows left open, renumbered densely
                reach = int(a[i, : k + 1] @ tops[: k + 1]) + 1
                if radix * reach > 2**62:
                    key = np.unique(key, return_inverse=True)[1]
                    radix = int(key.max()) + 1
                key, radix = key * reach + sums[i].reshape(-1), radix * reach
        order = np.argsort(key, kind="stable")  # each next state's transitions, in order
        new = np.diff(key[order], prepend=-1) != 0
        to, starts = np.empty_like(order), np.flatnonzero(new)
        to[order] = np.cumsum(new) - 1
        open_sums = {i: s.reshape(-1)[order[starts]] for i, s in sums.items() if last[i] > k}
        at_top = (b == size - 1) & (pmf.pmf(size) > 0)
        next_edge = np.where(at_top, alpha[:, None], edge[:, None]) * f * factor
        next_alpha = alpha[:, None] * f * factor
        next_edge, next_alpha = (np.add.reduceat(x.reshape(-1)[order], starts)  # pairwise
                                 for x in (next_edge, next_alpha))
        if eta > 0:
            keep = next_alpha >= eta * next_alpha.sum()
            dropped += next_alpha[~keep].sum()
            to = np.where(keep, np.cumsum(keep) - 1, keep.sum())[to]  # dropped: the sink
            next_alpha, next_edge = next_alpha[keep], next_edge[keep]
            open_sums = {i: s[keep] for i, s in open_sums.items()}
        steps.append((alpha, f, factor, to.reshape(factor.shape), closed))
        alpha, edge = next_alpha, next_edge
    return steps, alpha[0], edge[0], float(dropped / alpha[0])


def _exact_pass(h: Hierarchy, base: BaseForecastSet, epsilon: float,
                array_cap: int) -> CountJoint:
    """The bottom-up joint conditioned on `base.upper`, every cell of the grid an atom.

    The grid is refused with SupportTooLarge before the pass runs if it has
    more than `array_cap` cells. Prefixes are expanded bottom by bottom from
    the unpruned `_forward` tables, in C order, step by step as there; the
    atoms are their weights over the forward total, zeros included. The
    support is a column-major view of the C-order index grid.
    """
    sizes = _grid_sizes(h, base, epsilon)
    _capped(math.prod(sizes), array_cap, "the expanded grid")
    steps, total, _, _ = _forward(h, base, sizes, array_cap, 0.0)
    weight, state = np.ones(1), np.zeros(1, np.int64)
    for _, f, factor, to, _ in steps:
        weight = (weight[:, None] * f * factor[state]).reshape(-1)
        state = to[state].reshape(-1)
    support = np.indices(sizes, dtype=np.int64).reshape(len(sizes), -1).T
    return CountJoint(support, weight / total)


def bottom_up_exact(
    h: Hierarchy,
    base: BaseForecastSet,
    epsilon: float = DEFAULT_EPSILON,
    array_cap: int = DEFAULT_ARRAY_CAP,
) -> CountJoint:
    """Tabulate the probabilistic bottom-up joint over a truncated support.

    Each bottom pmf is truncated at its 1-epsilon quantile; the product
    measure over the resulting grid is renormalized. Upper values need no
    storage: they are implied by A @ b, which makes the joint coherent by
    construction.

    Raises:
        SupportTooLarge: the grid would exceed array_cap cells.
    """
    return _exact_pass(h, BaseForecastSet(base.bottom, [None] * h.n_upper), epsilon, array_cap)


def condition_on_upper(
    joint: CountJoint, h: Hierarchy, upper_index: int, evidence: CountPmf
) -> CountJoint:
    """Update an exact joint with the virtual evidence for one upper node.

    Atom b is reweighted by the evidence mass at its aggregate value
    A[upper_index] @ b, then the joint is renormalized. Atoms with zero
    probability keep it: conditioning never revives them. Applied to
    bottom_up_exact for each evidence in A-row order, this is the per-atom
    reference that reconcile_exact matches within a few ulps.

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
    array_cap: int = DEFAULT_ARRAY_CAP,
) -> CountJoint:
    """Bottom-up joint conditioned on every present evidence.

    Absent upper forecasts are skipped. Every cell of the bottom_up_exact
    grid stays an atom, so this is the oracle the samplers are tested
    against. The probabilities agree within 4 * (m + n_upper) ulps relative,
    with the same zeros, with condition_on_upper applied to bottom_up_exact
    for each evidence in A-row order (see _forward for the order used).

    Raises:
        SupportTooLarge: the grid would exceed array_cap cells.
        IncompatibleEvidence: the evidences leave no mass on the grid; the
            message names the first, in order of application, that did.
    """
    return _exact_pass(h, base, epsilon, array_cap)


def _marginals(h: Hierarchy, base: BaseForecastSet,
               eta: float) -> tuple[dict[str, Tabulated], ExactDiagnostics]:
    """Node marginals of the `_forward` pass pruned at `eta`, by one backward pass.

    The backward pass gives each kept state beta, the mass of all its
    completions, and the sink beta 0. The mass of (state, b_k) at step k is
    then alpha(state) * f_k(b_k) * factor * beta(next state): bottom k's
    marginal sums it over the states, and the marginal of an upper node is
    its bincount over the node's row sum at the bottom where the row
    closes, so it ends at the largest sum that a kept state reaches there.
    Each node's weights are normalized by their own sum.
    """
    steps, total, edge, bound = _forward(h, base, _grid_sizes(h, base, DEFAULT_EPSILON),
                                         DEFAULT_ARRAY_CAP, eta)
    weights, beta = {}, np.ones(1)
    for k, (alpha, f, factor, to, closed) in reversed(list(enumerate(steps))):
        mass = f * factor * np.append(beta, 0.0)[to]
        beta = mass.sum(axis=1)
        mass *= alpha[:, None]
        weights[h.bottom_labels[k]] = mass.sum(axis=0)
        for i, sums in closed.items():
            weights[h.upper_labels[i]] = np.bincount(sums.reshape(-1), weights=mass.reshape(-1))
    marginals = {label: Tabulated.from_weights(weights[label]) for label in h.node_labels}
    return marginals, ExactDiagnostics(float(edge / total), max(len(step[0]) for step in steps),
                                       bound)


def exact_marginals(h: Hierarchy,
                    base: BaseForecastSet) -> tuple[dict[str, Tabulated], ExactDiagnostics]:
    """Every node's marginal under reconcile_exact(h, base), with no atom expanded.

    The forward pass drops the states lighter than PRUNE_ETA times their
    step's total, and one backward pass gives the node marginals
    (`_marginals`). Their total variation distance from the unpruned pass's
    is at most the certified bound `pruned_mass_bound`. Where that bound
    exceeds PRUNE_BUDGET, or the pruned pass leaves no mass for some
    evidence, the pass is run again unpruned, so pruning adds no refusal.
    The unpruned node pmfs agree with summarize(reconcile_exact(h, base), h)
    up to rounding. The other error is the grid's cut at each bottom's
    1-DEFAULT_EPSILON quantile, stated as the edge mass. Returns the pmfs
    keyed by node label, in node order, and the edge mass, the most
    forward states kept after any bottom and the bound.

    Raises:
        SupportTooLarge: a step's tables would exceed DEFAULT_ARRAY_CAP
            elements.
        IncompatibleEvidence: as reconcile_exact.

    Warns:
        TruncationWarning: edge mass above EDGE_MASS_WARN.
    """
    try:
        marginals, diagnostics = _marginals(h, base, PRUNE_ETA)
    except IncompatibleEvidence:  # the pruned states may hold the only mass an evidence allows
        diagnostics = None
    if diagnostics is None or diagnostics.pruned_mass_bound > PRUNE_BUDGET:
        marginals, diagnostics = _marginals(h, base, 0.0)
    if diagnostics.edge_mass > EDGE_MASS_WARN:
        warnings.warn(
            f"exact joint holds {diagnostics.edge_mass:.3g} of its mass at the top cell of a "
            f"truncated bottom grid (warning above {EDGE_MASS_WARN:g}); the grid cuts "
            "posterior mass",
            TruncationWarning,
            stacklevel=2,
        )
    return marginals, diagnostics


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
    """Split R-hat per coordinate; kept has shape (chains, draws, m).

    The half-chains are read in place as a (chains, 2, half, m) view and
    reduced in float; their means and variances are then ordered first
    halves first, so the float sums are those of the stacked half-chains.
    """
    n_chains, n_draws, m = kept.shape
    half = n_draws // 2
    if half < 2:
        return np.full(m, np.nan)
    seqs = kept[:, : 2 * half].reshape(n_chains, 2, half, m)

    def halves_first(stats: np.ndarray) -> np.ndarray:  # (chains, 2, m) -> (2 * chains, m)
        return stats.transpose(1, 0, 2).reshape(2 * n_chains, m)

    means = halves_first(seqs.mean(axis=2, dtype=float))
    within = halves_first(seqs.var(axis=2, dtype=float, ddof=1)).mean(axis=0)  # (m,)
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
    """The moves of a chain whose state lists the bottoms, the uppers and two pad slots.

    Move `2*j + (s > 0)` shifts b_j by s = +-1, and with it every upper in
    column A[:, j] (A is 0/1). It is one flat tuple `(s, j, delta table of
    b_j, e1, t1, s1, ..., eL, tL, sL)` with one (read entry, delta table,
    shifted entry) triple per upper in column order, L the largest column
    arity of A. A shorter column is padded with triples that read the zero
    slot (the entry after the uppers, never shifted) through the table
    [0.0] and shift the sink slot (the last entry, never read). Each node
    has one delta table per step, shared by every move that touches it; the
    bottom tables end at the caps and the upper tables at A @ caps.
    """
    m, n_upper = len(caps), len(a_matrix)
    zero_slot, sink_slot = m + n_upper, m + n_upper + 1
    bottom_deltas = [_step_deltas(bottom_tables[j, : cap + 1]) for j, cap in enumerate(caps)]
    upper_deltas = [_step_deltas(upper_tables[i, :size])
                    for i, size in enumerate(a_matrix @ caps + 1)]
    arity = int(a_matrix.sum(axis=0).max())
    pad = (zero_slot, [0.0], sink_slot)
    moves = []
    for j, col in enumerate(a_matrix.T):
        uppers = np.flatnonzero(col).tolist()
        for side, step in enumerate((-1, 1)):
            terms = [(m + i, upper_deltas[i][side], m + i) for i in uppers]
            terms += [pad] * (arity - len(uppers))
            moves.append((step, j, bottom_deltas[j][side], *(v for t in terms for v in t)))
    return moves


_WALK_SOURCE = """\
def walk(x, moves, pairs, burn_in, rows, thin, m, kept):
    accepted = 0
    block = burn_in
    for row in range(-1, rows):
        for k, lu in islice(pairs, block):
            step, j, bd{unpack} = moves[k]
            if lu < bd[x[j]]{delta}:
                x[j] += step{shift}
                accepted += 1
        if row >= 0:
            kept += x[:m]
        block = thin
    return accepted
"""


@cache
def _walker(arity: int):
    """A chain's whole walk, for moves of `arity` uppers.

    `walk(x, moves, pairs, burn_in, rows, thin, m, kept)` takes `burn_in`
    (move index, log-uniform) pairs from `pairs`, then `thin` pairs for each
    of the `rows` kept draws; after the block of each kept draw it appends
    the bottoms `x[:m]` to the flat list `kept`. It scores each move at x by
    one sum of its delta entries, the bottom's first and then the uppers'
    left to right (the float order of adding them one by one), shifts x on
    acceptance and returns the number of accepted moves. The sum is the
    log-target change where x has positive target mass, as every chain's
    start has (_mcmc_start) and every accepted move keeps. It is compiled on
    first use, once per arity, from _WALK_SOURCE unrolled over the uppers.
    """
    terms = range(1, arity + 1)
    source = _WALK_SOURCE.format(
        unpack="".join(f", e{i}, t{i}, s{i}" for i in terms),
        delta="".join(f" + t{i}[x[e{i}]]" for i in terms),
        shift="".join(f"\n                x[s{i}] += step" for i in terms))
    namespace = {"islice": islice}
    exec(compile(source, f"<mcmc walk of arity {arity}>", "exec"), namespace)
    return namespace["walk"]


def _mcmc_start(h: Hierarchy, base: BaseForecastSet, caps: np.ndarray,
                bottom_tables: np.ndarray, upper_tables: np.ndarray) -> list[int]:
    """Every chain's start, laid out as _mcmc_moves states: the capped bottom
    medians if they have positive target mass, else the first of their
    neighbours in move order (b_1 - 1, b_1 + 1, b_2 - 1, ...) within 0 and
    the caps that has. Raises SamplerStuck where none has."""
    medians = np.minimum([pmf.median() for pmf in base.bottom], caps)
    candidates = np.vstack([medians, medians + np.kron(np.eye(h.m, dtype=np.int64), [[-1], [1]])])
    candidates = candidates[((candidates >= 0) & (candidates <= caps)).all(axis=1)]
    log_target = (bottom_tables[np.arange(h.m), candidates].sum(axis=1)
                  + upper_tables[np.arange(h.n_upper), candidates @ h.a_matrix.T].sum(axis=1))
    found = np.flatnonzero(np.isfinite(log_target))
    if not found.size:
        raise SamplerStuck("the capped bottom medians and their neighbours all have zero "
                           "target probability; no chain can start")
    start = candidates[found[0]]
    return start.tolist() + (h.a_matrix @ start).tolist() + [0, 0]  # + the zero, sink slots


def _run_chain(child: np.random.SeedSequence, moves: list[tuple], start: list[int],
               burn_in: int, thin: int, n_samples: int) -> tuple[np.ndarray, int]:
    """Run one Metropolis-Hastings chain; returns (kept draws, accepted moves).

    The chain draws its coordinates, steps and log-uniforms from the
    generator of `child` in that order and turns each (coordinate, step)
    into its move index. From a copy of `start`, a state of positive target
    mass laid out as _mcmc_moves states, one call of the `_walker` of its
    moves' arity walks `burn_in` moves, then `thin` moves per kept draw, and
    keeps the bottoms after each such block in one flat list, read as the
    (n_samples, m) draws at the end; the pad terms add 0.0, so every accept
    decision is that of summing the column's own entries.
    """
    rng = np.random.default_rng(child)
    m = len(moves) // 2
    total_iters = burn_in + n_samples * thin
    coords = rng.integers(0, m, size=total_iters)
    move_index = (2 * coords + rng.integers(0, 2, size=total_iters)).tolist()
    log_u = np.log(rng.random(total_iters)).tolist()
    kept, walk = [], _walker(len(moves[0]) // 3 - 1)
    accepted = walk(list(start), moves, zip(move_index, log_u), burn_in, n_samples, thin, m, kept)
    return np.fromiter(kept, np.int64, n_samples * m).reshape(n_samples, m), accepted


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: the worker pool this process keeps: (executor, pid of the process that made it, workers)
_pool = None

#: seconds between a pool worker's checks that the process that made the pool lives
_MAKER_POLL_S = 1.0


def _exit_with_maker(maker: int):
    """Pool worker initializer: end this worker once the pool's maker `maker` is gone.

    A daemon thread polls the parent pid, which changes when the maker
    dies. (PR_SET_PDEATHSIG fires when the forking thread exits, which may
    be a caller's thread that ends before the process.)
    """
    import threading
    import time

    def watch():
        while os.getppid() == maker:
            time.sleep(_MAKER_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="reconc-maker-watch", daemon=True).start()


def _drop_pool():
    """Forget the kept worker pool, and shut it down if this process made it."""
    global _pool
    if _pool is not None and _pool[1] == os.getpid():
        _pool[0].shutdown()
    _pool = None


def _kept_pool(workers: int):
    """The fork pool kept for this process, with at least `workers` workers.

    It is made on first use, and made anew where it has fewer workers or
    was made by another process (a fork of this one inherits the handle).
    The executor's exit hook shuts it down when the interpreter exits. A
    process that multiprocessing started joins its children before that
    hook runs, so a multiprocessing finalizer shuts the pool down first;
    it runs ahead of the finalizers of the pool's own queues (priority 10),
    which would otherwise close the queue before the workers' stop signals
    are sent. Killed without that hook, the maker leaves no workers
    behind: each ends itself about _MAKER_POLL_S seconds later.
    """
    global _pool
    if _pool is None or _pool[1] != os.getpid() or _pool[2] < workers:
        import multiprocessing.util
        from concurrent.futures.process import ProcessPoolExecutor

        _drop_pool()
        executor = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                       initializer=_exit_with_maker, initargs=(os.getpid(),))
        _pool = (executor, os.getpid(), workers)
        multiprocessing.util.Finalize(None, _drop_pool, exitpriority=20)
    return _pool[0]


def _map_chains(job, children: list) -> list:
    """Results of `job` on each chain seed, in chain order.

    The jobs run on the kept worker pool or in this process by the rule
    that reconcile_mcmc states; a daemonic process may not start children.
    A pool that lost a worker is dropped and the jobs run in this process.
    """
    workers = min(len(children), _usable_cpus())
    if workers > 1:
        import multiprocessing

        if ("fork" in multiprocessing.get_all_start_methods()
                and not multiprocessing.current_process().daemon):
            from concurrent.futures.process import BrokenProcessPool

            try:
                return list(_kept_pool(workers).map(job, children))
            except BrokenProcessPool:
                _drop_pool()
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
    exact_marginals applies to a grid's edge. Every chain starts at the
    capped per-bottom medians or, where their target mass is zero, at their
    first neighbour in move order that has mass (`_mcmc_start`); it runs
    `burn_in` discarded iterations (default: half the sampling phase) and
    then keeps every `thin`-th state until `n_samples` draws per chain are
    collected. Each chain draws from its own generator spawned from `seed`,
    so its draws depend only on `seed` and its index, never on the number
    of worker processes. The tables and the start are built once here; the
    chains then run on the fork pool this process keeps (`_kept_pool`),
    with `min(n_chains, usable CPUs)` workers.
    They run in this process instead with 1 usable CPU, 1 chain, no "fork"
    start method, from a daemonic process, or where the pool lost a worker.

    Raises:
        ValueError: n_chains, n_samples or thin below 1, or burn_in below 0.
        SamplerStuck: neither the capped medians nor any of their
            neighbours has positive target probability; raised before any
            chain runs.

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
    start = _mcmc_start(h, base, caps, bottom_tables, upper_tables)

    job = partial(_run_chain, moves=moves, start=start, burn_in=burn_in, thin=thin,
                  n_samples=n_samples)
    children = np.random.SeedSequence(seed).spawn(n_chains)
    chains, accepted = zip(*_map_chains(job, children))
    kept = np.stack(chains)
    accepted = np.array(accepted, dtype=np.int64)

    rhat = _split_rhat(kept)
    assessed = rhat[~np.isnan(rhat)]
    if assessed.size and (assessed > 1.1).any():
        warnings.warn(
            f"split R-hat above 1.1 on some bottom coordinate: {np.round(rhat, 3)}",
            ConvergenceWarning,
            stacklevel=2,
        )
    # a bottom whose pmf ends at its cap is compared with -1, which no draw holds
    cut_caps = [cap if pmf.pmf(cap + 1) > 0 else -1 for pmf, cap in zip(base.bottom, caps)]
    cap_share = float((kept == cut_caps).any(axis=-1).mean())
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
    central intervals at level 1 - alpha. The support is read column by
    column from one C-contiguous transposed copy (free for the F-ordered
    grids of reconcile_exact), and a node's bottoms' columns are added in
    place into one buffer of the atom count: no (n, atoms) array is made.
    """
    columns = np.ascontiguousarray(joint.bottom_support.T)
    buffer = np.empty(len(joint.probabilities), dtype=columns.dtype)
    out = {}
    for idx, label in enumerate(h.node_labels):
        first, *rest = np.flatnonzero(h.s_matrix[idx])
        values = columns[first]
        for j in rest:
            values = np.add(values, columns[j], out=buffer)
        out[label] = MarginalSummary.of(label, Tabulated.from_weights(
            np.bincount(values, weights=joint.probabilities)), alpha)
    return out


def correlation(joint: CountJoint, h: Hierarchy, node_i: int, node_j: int) -> float:
    """Pearson correlation between two nodes, by node index, under the reconciled joint."""
    for index in (node_i, node_j):
        if not 0 <= index < h.n:
            raise DimensionError(f"node index {index} out of range for n={h.n}")
    vi, vj = (joint.bottom_support @ h.s_matrix[index] for index in (node_i, node_j))
    w = joint.probabilities
    mi, mj = vi @ w, vj @ w
    var_i = (vi - mi) ** 2 @ w
    var_j = (vj - mj) ** 2 @ w
    if var_i <= 0 or var_j <= 0:
        raise UndefinedCorrelation(
            f"zero marginal variance for node pair ({node_i}, {node_j})"
        )
    cov = (vi - mi) * (vj - mj) @ w
    return float(cov / np.sqrt(var_i * var_j))
