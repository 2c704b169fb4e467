"""Aggregation hierarchies: summing matrices and coherence checks.

A hierarchy over n nodes (m bottom, n-m upper) is described by a 0/1
aggregation matrix A of shape (n-m, m); the summing matrix is S = [A; I_m]
and a full vector y = [u; b] is coherent when u = A b.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DuplicateLevel, InvalidAggregation
from .schema import COUNT, INT, STRING, Array, Object, Range, Row, loads, walk

#: a hierarchy file; labels default to `default_labels(A)`, m to A's width
HIERARCHY_FILE = Object(
    Row("m", COUNT),
    Row("labels", Array(STRING, "an array of strings"), null=True),
    Row("A", Array(Array(INT._replace(range=Range(0, 1)), "an array of integers"),
                   "an array of arrays of integers"), required=True),
)


@dataclass(frozen=True)
class Hierarchy:
    """Immutable aggregation structure.

    Attributes:
        a_matrix: (n-m, m) integer matrix with entries in {0, 1}; row i lists
            the bottom nodes summed into upper node i.
        node_labels: n distinct labels, upper nodes first (matching the rows
            of a_matrix), then the m bottom nodes.
        s_matrix: read-only summing matrix [A; I_m], shape (n, m), built once.
    """

    a_matrix: np.ndarray
    node_labels: tuple[str, ...]
    s_matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.a_matrix)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise DimensionError(f"A matrix must be 2-d and non-empty, got shape {a.shape}")
        if not np.isin(a, (0, 1)).all():  # before the cast, which would read 1.5 as 1
            raise InvalidAggregation("A matrix entries must be 0 or 1")
        a = a.astype(np.int64)
        if (a.sum(axis=1) < 1).any():
            raise InvalidAggregation("every upper node must aggregate at least one bottom node")
        object.__setattr__(self, "a_matrix", a)
        object.__setattr__(self, "node_labels", tuple(self.node_labels))
        if len(self.node_labels) != a.shape[0] + a.shape[1]:
            raise DimensionError(
                f"expected {a.shape[0] + a.shape[1]} node labels, got {len(self.node_labels)}"
            )
        if len(set(self.node_labels)) != len(self.node_labels):
            raise DimensionError("node labels must be distinct")
        s = np.vstack([a, np.eye(a.shape[1], dtype=np.int64)])
        s.flags.writeable = False
        object.__setattr__(self, "s_matrix", s)

    @property
    def m(self) -> int:
        return self.a_matrix.shape[1]

    @property
    def n(self) -> int:
        return self.a_matrix.shape[0] + self.a_matrix.shape[1]

    @property
    def n_upper(self) -> int:
        return self.a_matrix.shape[0]

    @property
    def upper_labels(self) -> tuple[str, ...]:
        return self.node_labels[: self.n_upper]

    @property
    def bottom_labels(self) -> tuple[str, ...]:
        return self.node_labels[self.n_upper:]

    @property
    def level_sizes(self) -> tuple[tuple[str, int, int], ...]:
        """Levels as (name, node count, bottoms aggregated per node).

        Upper rows are grouped into runs of equal row sum (for temporal
        hierarchies built coarsest-first this recovers the aggregation
        levels); the bottom level is appended last.
        """
        levels = []
        sums = self.a_matrix.sum(axis=1)
        i = 0
        while i < len(sums):
            j = i
            while j < len(sums) and sums[j] == sums[i]:
                j += 1
            levels.append((f"agg{sums[i]}", j - i, int(sums[i])))
            i = j
        levels.append(("bottom", self.m, 1))
        return tuple(levels)

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "labels": list(self.node_labels),
            "A": self.a_matrix.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Hierarchy":
        """The hierarchy of a dict walked against HIERARCHY_FILE: A rows of one length and
        distinct labels."""
        walk(HIERARCHY_FILE, d, "hierarchy file")
        widths = sorted({len(row) for row in d["A"]})
        if len(widths) > 1:
            raise ValueError(f"A must hold rows of one length, got lengths {widths}")
        a = np.array(d["A"], dtype=np.int64)
        labels = d.get("labels")
        if labels is None:
            labels = default_labels(a)
        if len(set(labels)) < len(labels):
            raise ValueError(f"hierarchy file labels must be distinct, got {labels}")
        if d.get("m", a.shape[1]) != a.shape[1]:
            raise DimensionError("declared m does not match the A matrix width")
        return cls(a, tuple(labels))

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, s: str) -> "Hierarchy":
        """`from_dict` of JSON text; an object that repeats a key is refused (ValueError)."""
        return cls.from_dict(loads(s, "hierarchy JSON"))


def default_labels(a: np.ndarray) -> list[str]:
    """Generic labels for a user-supplied A matrix: u1..u_{n-m}, b1..bm."""
    n_upper, m = a.shape
    return [f"u{i + 1}" for i in range(n_upper)] + [f"b{j + 1}" for j in range(m)]


def build_temporal_hierarchy(bottom_period_count: int, aggregation_factors: list[int]) -> Hierarchy:
    """Build the hierarchy whose levels block-sum a bottom series.

    Each factor k produces one level with bottom_period_count/k nodes, node i
    summing the i-th run of k consecutive bottom periods. Upper rows are
    ordered coarsest level first, chronologically within a level. Factor 1
    (the bottom level itself) is implied and must not be listed.

    Args:
        bottom_period_count: number of bottom nodes m (e.g. 12 for a year of
            monthly data).
        aggregation_factors: distinct divisors of bottom_period_count, each
            in [2, bottom_period_count].

    Raises:
        InvalidAggregation: an argument is not an integer (a bool is not), or
            a factor does not divide bottom_period_count.
        DuplicateLevel: repeated factor, or factor 1 / a factor that repeats
            the total level.
    """
    for value in (bottom_period_count, *aggregation_factors):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise InvalidAggregation(f"bottom_period_count and factors must be integers, "
                                     f"got {value!r}")
    m = int(bottom_period_count)
    if m < 1:
        raise InvalidAggregation("bottom_period_count must be positive")
    factors = sorted(int(k) for k in aggregation_factors)
    if not factors:
        raise InvalidAggregation("at least one aggregation factor is required")
    if 1 in factors:
        raise DuplicateLevel("factor 1 duplicates the implied bottom level")
    if len(set(factors)) != len(factors):
        raise DuplicateLevel(f"duplicated aggregation factors in {factors}")
    for k in factors:
        if not 1 < k <= m or m % k != 0:
            raise InvalidAggregation(f"factor {k} does not divide bottom_period_count {m}")

    rows = []
    labels = []
    for k in reversed(factors):  # coarsest level first
        for i in range(m // k):
            row = np.zeros(m, dtype=np.int64)
            row[i * k:(i + 1) * k] = 1
            rows.append(row)
            labels.append(f"agg{k}_{i + 1}")
    labels.extend(f"b{j + 1}" for j in range(m))
    return Hierarchy(np.array(rows, dtype=np.int64), tuple(labels))


def aggregate(h: Hierarchy, b) -> np.ndarray:
    """Full hierarchy vector [A b; b] implied by a bottom vector."""
    b = np.asarray(b)
    if b.shape != (h.m,):
        raise DimensionError(f"expected bottom vector of length {h.m}, got shape {b.shape}")
    return np.concatenate([h.a_matrix @ b, b])


def is_coherent(h: Hierarchy, y) -> bool:
    """True iff the upper block of y equals A times its bottom block."""
    y = np.asarray(y)
    if y.shape != (h.n,):
        raise DimensionError(f"expected full vector of length {h.n}, got shape {y.shape}")
    return bool(np.array_equal(y[: h.n_upper], h.a_matrix @ y[h.n_upper:]))
