"""Per-atom references for the exact pass and its trim, kept as test oracles.

`per_atom_chain` computes the probabilities of `reconcile_exact` atom by
atom, multiplying each atom's factors in the order the pass does, so only
the normalizer is summed in another order. `trim_joint` trims a full exact
joint atom by atom, the reference for the pipeline's
`_reconcile_exact_trimmed`. `full_sort_trim` states the trim rule by one
sort of every atom, the rule `_trim` keeps.
"""

import numpy as np

from reconc.conditioning import ATOM_TOL, CountJoint, _trim
from reconc.distributions import DEFAULT_EPSILON


def per_atom_chain(h, base, epsilon=DEFAULT_EPSILON):
    """Returns (support, probabilities) over the grid's atoms in C order.

    Step k appends bottom k to every atom and multiplies it by `f_k(b_k)`,
    then by the product, in A-row order, of each present evidence whose
    row ends at bottom k, at `A[i] @ b` over the atom's bottoms so far.
    The atoms are then normalized by their plain sum. The pass also scales
    that product by a power of two, which is exact and cancels in the
    normalizer, and sums its normalizer state by state.
    """
    sizes = [pmf.quantile_truncate(epsilon) + 1 for pmf in base.bottom]
    tops = np.array(sizes) - 1
    support, p = np.zeros((1, 0), dtype=np.int64), np.ones(1)
    for k, (pmf, size) in enumerate(zip(base.bottom, sizes)):
        support = np.column_stack([np.repeat(support, size, axis=0),
                                   np.tile(np.arange(size), len(support))])
        closed = np.ones(len(support))
        for i, evidence in enumerate(base.upper):
            if evidence is not None and np.flatnonzero(h.a_matrix[i])[-1] == k:
                table = evidence.pmf(np.arange(h.a_matrix[i] @ tops + 1))
                closed = closed * table[support @ h.a_matrix[i, : k + 1]]
        p = np.repeat(p, size) * pmf.pmf(np.arange(size))[support[:, k]] * closed
    return support, p / p.sum()


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
    kept_at, kept, diagnostics = _trim(p, edge_mass, len(bottom))
    return CountJoint(support[kept_at], kept, diagnostics)


def full_sort_trim(p, m):
    """Returns (ascending indices of the kept atoms, dropped mass) by a full sort.

    Tau is the lightest atom whose ascending running total passes ATOM_TOL;
    the kept atoms, of a joint over m bottoms, are those at least tau lowered
    by 8 * m ulps, and the dropped mass is the running total of the others.
    """
    ascending = np.sort(p)
    cumulative = np.cumsum(ascending)
    tau = ascending[np.searchsorted(cumulative, ATOM_TOL, side="right")]
    kept_at = np.flatnonzero(p >= tau * (1 - 8 * m * np.finfo(float).eps))
    n_dropped = len(p) - len(kept_at)
    return kept_at, float(cumulative[n_dropped - 1]) if n_dropped else 0.0
