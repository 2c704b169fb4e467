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


def _score_trees(tmp_path):
    """Score files whose new tree holds the rows of one more method, `exact`."""
    old, new = tmp_path / "old", tmp_path / "new"
    header = "series,level,horizon,metric,method,value\n"
    rows = "".join(f"s,agg2,{h},rps,normal,{h / 10}\n" for h in (1, 2))
    exact = "s,agg2,1,rps,exact,0.5\n"
    for root, body in ((old, rows), (new, rows + exact)):
        root.mkdir()
        (root / "scores.csv").write_text(header + body)
        (root / "scores.json").write_text(json.dumps({"scores": [
            {"method": method, "value": 0.1} for method in ("normal", "exact")
            if method in body]}))
    return [str(old), str(new)]


@pytest.mark.parametrize("patterns, failures", [([], 2), (["*exact*"], 0)])
def test_compare_matches_rows_by_their_text_where_rows_were_added(tmp_path, capsys, patterns,
                                                                  failures):
    argv = ["compare", *_score_trees(tmp_path)]
    for pattern in patterns:
        argv += ["--allow-added", pattern]
    assert same_outputs.main(argv) == (1 if failures else 0)
    out = capsys.readouterr().out
    assert out.count("DIFFERS") == failures
    if failures:
        assert "DIFFERS scores.csv:[s/agg2/rps/exact]: only in the new tree" in out
        assert "DIFFERS scores.json:/scores/[exact]: only in the new tree" in out


def test_compare_matches_repeated_row_texts_in_order(tmp_path, capsys):
    old, new = _score_trees(tmp_path)
    # the second normal row moves and a third is added after it
    (tmp_path / "new" / "scores.csv").write_text(
        "series,level,horizon,metric,method,value\n" + "s,agg2,1,rps,normal,0.1\n"
        "s,agg2,2,rps,normal,0.25\n" "s,agg2,3,rps,normal,0.3\n" "s,agg2,1,rps,exact,0.5\n")
    assert same_outputs.main(["compare", old, new, "--allow-added", "*exact*"]) == 1
    out = capsys.readouterr().out
    assert "DIFFERS scores.csv:[s/agg2/rps/normal#2]/value: 0.2 != 0.25" in out
    assert "DIFFERS scores.csv:[s/agg2/rps/normal#3]: only in the new tree" in out
    assert out.count("DIFFERS") == 2
