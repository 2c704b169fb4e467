"""Tests for the output-tree comparison of tests/same_outputs.py."""

import json

import pytest

import same_outputs


def _trees(tmp_path):
    """An old tree with a joint file and a field that the new tree no longer has."""
    old, new = tmp_path / "old", tmp_path / "new"
    for root in (old, new):
        (root / "m2" / "exact").mkdir(parents=True)
    (old / "m2" / "exact" / "joint_s.npz").write_bytes(b"old joint")
    (old / "m2" / "exact" / "summaries.json").write_text(
        json.dumps({"s": {"mean": 1.0, "dropped_mass": 1e-13}}))
    (new / "m2" / "exact" / "summaries.json").write_text(json.dumps({"s": {"mean": 1.0}}))
    return [str(old), str(new)]


def test_compare_refuses_what_only_the_old_tree_has_by_default(tmp_path, capsys):
    assert same_outputs.main(["compare", *_trees(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "DIFFERS m2/exact/joint_s.npz: only in the old tree" in out
    assert "DIFFERS m2/exact/summaries.json:/s/dropped_mass: only in the old tree" in out


@pytest.mark.parametrize("patterns, failures", [
    (["*/joint_*.npz", "*:*/dropped_mass"], 0),
    (["*/joint_*.npz"], 1),
    (["*:*/dropped_mass"], 1),
])
def test_compare_allows_removed_files_and_fields_by_pattern(tmp_path, capsys, patterns,
                                                            failures):
    argv = ["compare", *_trees(tmp_path)]
    for pattern in patterns:
        argv += ["--allow-removed", pattern]
    assert same_outputs.main(argv) == (1 if failures else 0)
    out = capsys.readouterr().out
    assert out.count("DIFFERS") == failures
    assert f"only in the old tree (allowed): {len(patterns)}" in out
