"""Per-atom references for the exact grid and its trim, kept as test oracles.

`per_atom_chain` computes the probabilities of `reconcile_exact` atom by
atom, multiplying the factors in the order the grid does, so it must equal
the grid to the bit. `trim_joint` trims a full exact joint atom by atom, the
reference for the pipeline's `_reconcile_exact_trimmed`. `full_sort_trim`
states the trim rule by one sort of every atom, the rule `_trim` keeps.
"""

import numpy as np

from reconc.conditioning import ATOM_TOL, CountJoint, _trim
from reconc.distributions import DEFAULT_EPSILON


def per_atom_chain(h, base, epsilon=DEFAULT_EPSILON):
    """Returns (support, probabilities) over the grid's atoms in C order.

    Step k, for each bottom k but the last, appends bottom k to every atom
    and multiplies its marginal in, then multiplies in, in A-row order, each
    present evidence whose row ends at bottom k. Each of these prefix atoms
    c then gets its own row over the last bottom b: `f_m(b)` times, in A-row
    order, each present evidence whose row ends at b, at `A[i] @ (c, b)`.
    With `Z = sum_c G(c) * sum_b row(c)[b]`, atom (c, b) is
    `G(c) * (row(c)[b] / Z)`. The grid scales by powers of two between
    evidences, which are exact and cancel in these quotients.
    """
    sizes = [pmf.quantile_truncate(epsilon) + 1 for pmf in base.bottom]
    tops, last = np.array(sizes) - 1, h.m - 1

    def evidences_ending_at(k):
        return [(i, evidence.pmf(np.arange(h.a_matrix[i] @ tops + 1)))
                for i, evidence in enumerate(base.upper)
                if evidence is not None and np.flatnonzero(h.a_matrix[i])[-1] == k]

    support, p = np.zeros((1, 0), dtype=np.int64), np.ones(1)
    for k, (pmf, size) in enumerate(zip(base.bottom[:last], sizes)):
        support = np.column_stack([np.repeat(support, size, axis=0),
                                   np.tile(np.arange(size), len(support))])
        p = np.repeat(p, size) * pmf.pmf(np.arange(size))[support[:, k]]
        for i, table in evidences_ending_at(k):
            p = p * table[support @ h.a_matrix[i, : k + 1]]
    b = np.arange(sizes[last])
    rows = np.tile(base.bottom[last].pmf(b), (len(p), 1))
    for i, table in evidences_ending_at(last):
        rows = rows * table[(support @ h.a_matrix[i, :last])[:, None] + b]
    total = (p * rows.sum(axis=1)).sum()
    support = np.column_stack([np.repeat(support, sizes[last], axis=0),
                               np.tile(b, len(support))])
    return support, (p[:, None] * (rows / total)).reshape(-1)


def trim_joint(joint, bottom):
    """Keep the atoms of a full exact grid that carry mass, by `_trim`'s rule.

    The kept atoms stay in grid order and are renormalized. The edge mass is
    the mass, before trimming, on atoms where some bottom j sits at the
    grid's top cell while its pmf `bottom[j]` has mass beyond it, summed
    over the cut bottoms j in order, on the atoms at j's top and below the
    top of every earlier cut bottom.
    """
    support, p = joint.bottom_support, joint.probabilities
    tops = support.max(axis=0)
    edge_mass, below_top = 0.0, np.ones(len(p), dtype=bool)
    for j, pmf in enumerate(bottom):
        if pmf.pmf(tops[j] + 1) > 0:
            at_top = support[:, j] == tops[j]
            edge_mass += float(p[below_top & at_top].sum())
            below_top &= ~at_top
    kept_at, kept, diagnostics = _trim(p, edge_mass)
    return CountJoint(support[kept_at], kept, diagnostics)


def full_sort_trim(p):
    """Returns (ascending indices of the kept atoms, dropped mass) by a full sort.

    The kept atoms are those at least the lightest atom whose ascending
    running total passes ATOM_TOL; the dropped mass is the running total of
    the atoms below it.
    """
    ascending = np.sort(p)
    cumulative = np.cumsum(ascending)
    kept_at = np.flatnonzero(p >= ascending[np.searchsorted(cumulative, ATOM_TOL, side="right")])
    n_dropped = len(p) - len(kept_at)
    return kept_at, float(cumulative[n_dropped - 1]) if n_dropped else 0.0
