"""A per-atom reference for the exact pass, kept as a test oracle.

`per_atom_chain` computes the probabilities of `reconcile_exact` atom by
atom, multiplying each atom's factors in the order the pass does, so only
the normalizer is summed in another order.
"""

import numpy as np

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
