"""Tests for hierarchy structures, summing matrices and coherence."""

import numpy as np
import pytest

from reconc.errors import DimensionError, DuplicateLevel, InvalidAggregation
from reconc.hierarchy import (
    Hierarchy,
    aggregate,
    build_temporal_hierarchy,
    is_coherent,
)

# the 7x4 summing matrix of the quarterly/semester/year hierarchy
S_421 = np.array([
    [1, 1, 1, 1],
    [1, 1, 0, 0],
    [0, 0, 1, 1],
    [1, 0, 0, 0],
    [0, 1, 0, 0],
    [0, 0, 1, 0],
    [0, 0, 0, 1],
])


def test_421_summing_matrix_entrywise():
    h = build_temporal_hierarchy(4, [2, 4])
    assert np.array_equal(h.s_matrix, S_421)
    assert h.n == 7 and h.m == 4


def test_minimal_hierarchy():
    h = build_temporal_hierarchy(2, [2])
    assert np.array_equal(h.a_matrix, [[1, 1]])
    assert h.node_labels == ("agg2_1", "b1", "b2")


def test_monthly_hierarchy_counts():
    # upper node count is the sum of 12/k over the factors: 6+4+3+2+1
    factors = [2, 3, 4, 6, 12]
    expected_upper = sum(12 // k for k in factors)
    assert expected_upper == 16
    h = build_temporal_hierarchy(12, factors)
    assert h.m == 12
    assert h.n_upper == expected_upper
    assert h.n == 28


def test_upper_rows_coarsest_first():
    h = build_temporal_hierarchy(12, [2, 3, 4, 6, 12])
    row_sums = h.a_matrix.sum(axis=1)
    assert list(row_sums) == sorted(row_sums, reverse=True)
    assert [name for name, _, _ in h.level_sizes] == [
        "agg12", "agg6", "agg4", "agg3", "agg2", "bottom",
    ]


def test_aggregate_examples():
    h2 = build_temporal_hierarchy(2, [2])
    assert aggregate(h2, [0, 1]).tolist() == [1, 0, 1]
    assert aggregate(h2, [0, 0]).tolist() == [0, 0, 0]
    h = build_temporal_hierarchy(4, [2, 4])
    assert aggregate(h, [1, 2, 3, 4]).tolist() == [10, 3, 7, 1, 2, 3, 4]


def test_is_coherent_examples():
    h = build_temporal_hierarchy(2, [2])
    assert is_coherent(h, [1, 0, 1])
    assert not is_coherent(h, [2, 0, 1])


def test_aggregate_is_always_coherent():
    rng = np.random.default_rng(0)
    for m, factors in [(2, [2]), (4, [2, 4]), (6, [2, 3, 6]), (12, [3, 4, 12])]:
        h = build_temporal_hierarchy(m, factors)
        for _ in range(25):
            b = rng.integers(0, 20, size=m)
            assert is_coherent(h, aggregate(h, b))


def test_s_matrix_full_column_rank():
    for m, factors in [(2, [2]), (4, [2, 4]), (12, [2, 3, 4, 6, 12])]:
        h = build_temporal_hierarchy(m, factors)
        assert np.linalg.matrix_rank(h.s_matrix.T @ h.s_matrix) == m


def test_builder_errors():
    with pytest.raises(InvalidAggregation):
        build_temporal_hierarchy(4, [3])
    with pytest.raises(InvalidAggregation):
        build_temporal_hierarchy(4, [8])
    with pytest.raises(DuplicateLevel):
        build_temporal_hierarchy(4, [2, 2])
    with pytest.raises(DuplicateLevel):
        build_temporal_hierarchy(4, [1, 2])


def test_dimension_errors():
    h = build_temporal_hierarchy(2, [2])
    with pytest.raises(DimensionError):
        aggregate(h, [1, 2, 3])
    with pytest.raises(DimensionError):
        is_coherent(h, [1, 2])


def test_direct_a_matrix_validation():
    with pytest.raises(InvalidAggregation):
        Hierarchy(np.array([[1, 2]]), ("u1", "b1", "b2"))
    with pytest.raises(InvalidAggregation):
        Hierarchy(np.array([[0, 0]]), ("u1", "b1", "b2"))
    with pytest.raises(DimensionError):
        Hierarchy(np.array([[1, 1]]), ("u1", "b1"))
    with pytest.raises(DimensionError):
        Hierarchy(np.array([[1, 1]]), ("x", "x", "b2"))


def test_json_round_trip():
    h = build_temporal_hierarchy(4, [2, 4])
    h2 = Hierarchy.from_json(h.to_json())
    assert np.array_equal(h.a_matrix, h2.a_matrix)
    assert h.node_labels == h2.node_labels


def test_general_hierarchy_from_a_matrix():
    # grouped structure not expressible as consecutive blocks
    a = np.array([[1, 1, 1], [1, 0, 1]])
    h = Hierarchy.from_dict({"m": 3, "A": a.tolist(), "labels": None})
    assert h.node_labels == ("u1", "u2", "b1", "b2", "b3")
    assert aggregate(h, [1, 2, 3]).tolist() == [6, 4, 1, 2, 3]


@pytest.mark.parametrize("args", [(2.5, [2.7]), ("4", ["2"]), (True, [2]), (4, [2.0])])
def test_temporal_hierarchy_refuses_arguments_that_are_not_integers(args):
    with pytest.raises(InvalidAggregation, match="must be integers"):
        build_temporal_hierarchy(*args)


def test_temporal_hierarchy_takes_numpy_integers():
    h = build_temporal_hierarchy(np.int64(4), [np.int32(2), 4])
    assert h.node_labels == build_temporal_hierarchy(4, [2, 4]).node_labels


@pytest.mark.parametrize("factor", [0, -2])
def test_temporal_hierarchy_refuses_a_factor_below_one(factor):
    with pytest.raises(InvalidAggregation, match=f"factor {factor} does not divide"):
        build_temporal_hierarchy(4, [factor])


def test_a_matrix_entries_are_checked_before_the_integer_cast():
    with pytest.raises(InvalidAggregation, match="entries must be 0 or 1"):
        Hierarchy(np.array([[1.5, 1.0]]), ("u1", "b1", "b2"))
    assert Hierarchy(np.array([[1.0, 1.0]]), ("u1", "b1", "b2")).a_matrix.dtype == np.int64


@pytest.mark.parametrize("text, refusal", [
    ('{"m": 2, "labels": ["a", "b", "c"], "A": [[1.5, 1.0]]}', "A[0][0] must be an integer, got 1.5"),
    ('{"m": 2.5, "A": [[1, 1]]}', "m must be an integer, got 2.5"),
    ('{"m": "2", "A": [[1, 1]]}', "m must be an integer, got '2'"),
    ('{"A": [[1, true]]}', "A[0][1] must be an integer, got True"),
    ('{"labels": [1, 2, 3], "A": [[1, 1]]}', "labels[0] must be a string, got 1"),
    ('{"A": [[1, 2]]}', "A[0][1] must be in [0, 1], got 2"),
    ('{"A": [[1, 1, 0], [1, 1]]}', "A must hold rows of one length, got lengths [2, 3]"),
    ('{"A": [[1, 1]], "B": 1}', "unknown hierarchy file key(s) ['B']"),
    ('{"labels": ["u1", "b1", "b1"], "A": [[1, 1]]}',
     "hierarchy file labels must be distinct, got ['u1', 'b1', 'b1']"),
    ('{"A": [[1, 0]], "A": [[1, 1]]}', "hierarchy JSON: repeated key 'A'"),
])
def test_hierarchy_file_refused_by_path(text, refusal):
    with pytest.raises(ValueError) as info:
        Hierarchy.from_json(text)
    assert str(info.value) == refusal
