"""Tests for the experiment harness: aggregation, pipelines, demos."""

import dataclasses
import json

import numpy as np
import pytest

from helpers import MONTHLY, run_benchmark, write_config, write_synthetic_observations
from reconc import harness
from reconc.errors import (
    MissingActuals,
    MissingForecast,
    MissingJoint,
    ObservationGap,
    SeriesTooShort,
)
from reconc.hierarchy import aggregate, build_temporal_hierarchy
from reconc.scoring import energy_score


def test_temporal_aggregate_quarterly_example():
    h = build_temporal_hierarchy(4, [2, 4])
    levels = harness.temporal_aggregate([1, 2, 3, 4], h)
    assert levels["agg2"].tolist() == [3, 7]
    assert levels["agg4"].tolist() == [10]
    assert levels["bottom"].tolist() == [1, 2, 3, 4]


def test_temporal_aggregate_annual_counts():
    h = build_temporal_hierarchy(12, [12])
    assert len(harness.temporal_aggregate(np.ones(24, dtype=int), h)["agg12"]) == 2
    # 25 points: the leading remainder is dropped so blocks end at the last point
    values = np.concatenate([[99], np.ones(24, dtype=int)])
    agg = harness.temporal_aggregate(values, h)["agg12"]
    assert agg.tolist() == [12, 12]


def test_temporal_aggregate_too_short():
    h = build_temporal_hierarchy(12, [12])
    with pytest.raises(SeriesTooShort):
        harness.temporal_aggregate(np.ones(11, dtype=int), h)


def test_node_levels():
    h = build_temporal_hierarchy(4, [2, 4])
    assert harness.node_levels(h) == [
        ("agg4", 1), ("agg2", 1), ("agg2", 2),
        ("bottom", 1), ("bottom", 2), ("bottom", 3), ("bottom", 4),
    ]


def test_empirical_poisson_forecaster():
    h = build_temporal_hierarchy(2, [2])
    fc = harness.empirical_poisson_forecasts([1, 3, 2, 2], h)
    assert fc["b1"] == {"dist": "poisson", "lambda": 2.0}
    assert fc["agg2_1"] == {"dist": "poisson", "lambda": 4.0}


def test_read_observations(tmp_path):
    p = tmp_path / "obs.csv"
    p.write_text("series_id,t,value\ns1,1,3\ns1,0,2\ns2,0,0\n")
    obs = harness.read_observations(p)
    assert obs["s1"].tolist() == [2, 3]  # sorted by t
    assert obs["s2"].tolist() == [0]
    p.write_text("series_id,t,value\ns1,0,-2\n")
    with pytest.raises(ValueError):
        harness.read_observations(p)


def test_read_observations_rejects_gaps_and_repeats(tmp_path):
    p = tmp_path / "obs.csv"
    p.write_text("series_id,t,value\ns2,3,1\ns1,5,0\ns1,0,2\ns1,5,1\ns1,1,3\n")
    with pytest.raises(ObservationGap, match=r"'s1' has t=5 after t=1"):
        harness.read_observations(p)
    p.write_text("series_id,t,value\ns1,0,2\ns1,1,3\ns1,1,4\n")
    with pytest.raises(ObservationGap, match=r"'s1' has t=1 after t=1"):
        harness.read_observations(p)


def test_load_config_validations(tmp_path):
    bad = dict(hierarchy={}, method="normal")
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(bad))
    with pytest.raises(ValueError, match="exactly one source"):
        harness.load_config(p)

    p.write_text(json.dumps({
        "hierarchy": {"bottom_period_count": 2, "factors": [2],
                      "a_matrix_file": "h.json"},
    }))
    with pytest.raises(ValueError, match="exactly one source"):
        harness.load_config(p)

    p.write_text(json.dumps({"hierarchy": MONTHLY, "method": "zagreb"}))
    with pytest.raises(ValueError, match="unknown method"):
        harness.load_config(p)

    p.write_text(json.dumps({"hierarchy": MONTHLY, "method": "probCount_mcmc"}))
    with pytest.raises(ValueError, match="seed is mandatory"):
        harness.load_config(p)


def test_env_seed_override(tmp_path, monkeypatch):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({
        "hierarchy": MONTHLY, "method": "probCount_mcmc",
        "sampler": {"seed": 5},
    }))
    assert harness.load_config(p).sampler.seed == 5
    monkeypatch.setenv("RECONC_SEED", "99")
    cfg = harness.load_config(p)
    assert cfg.sampler.seed == 99
    assert cfg.scoring.seed == 99


def test_hierarchy_from_file(tmp_path):
    h = build_temporal_hierarchy(4, [2, 4])
    (tmp_path / "h.json").write_text(h.to_json())
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"hierarchy": {"a_matrix_file": "h.json"}}))
    cfg = harness.load_config(p)
    assert cfg.hierarchy.node_labels == h.node_labels


def test_reconcile_outputs_from_forecast_file(tmp_path):
    h_cfg = {"bottom_period_count": 2, "factors": [2]}
    forecasts = {
        "b1": {"dist": "poisson", "lambda": 2},
        "b2": {"dist": "poisson", "lambda": 4},
        "agg2_1": {"dist": "poisson", "lambda": 9},
    }
    (tmp_path / "fc.json").write_text(json.dumps(forecasts))
    cfg_path = write_config(tmp_path / "cfg.json", hierarchy=h_cfg, method="probCount_exact",
                            forecasts="fc.json", output_dir="out")
    out = harness.run_reconcile(harness.load_config(cfg_path), quiet=True)
    summaries = json.loads((out / "summaries.json").read_text())
    nodes = summaries["series"]["nodes"]
    assert set(nodes) == {"agg2_1", "b1", "b2"}
    assert nodes["b1"]["mean"] == pytest.approx(2.3646303986, abs=1e-6)
    assert (out / summaries["series"]["joint_file"]).exists()


def test_reconcile_skips_missing_upper_evidence(tmp_path):
    h_cfg = {"bottom_period_count": 2, "factors": [2]}
    forecasts = {
        "b1": {"dist": "poisson", "lambda": 2},
        "b2": {"dist": "poisson", "lambda": 4},
    }
    (tmp_path / "fc.json").write_text(json.dumps(forecasts))
    cfg_path = write_config(tmp_path / "cfg.json", hierarchy=h_cfg, method="probCount_exact",
                            forecasts="fc.json", output_dir="out")
    out = harness.run_reconcile(harness.load_config(cfg_path), quiet=True)
    nodes = json.loads((out / "summaries.json").read_text())["series"]["nodes"]
    # nothing to condition on: the bottom-up means survive
    assert nodes["b1"]["mean"] == pytest.approx(2.0, abs=1e-6)
    assert nodes["agg2_1"]["mean"] == pytest.approx(6.0, abs=1e-6)


def test_reconcile_missing_bottom_raises(tmp_path):
    h_cfg = {"bottom_period_count": 2, "factors": [2]}
    (tmp_path / "fc.json").write_text(json.dumps({"b1": {"dist": "poisson", "lambda": 2}}))
    cfg_path = write_config(tmp_path / "cfg.json", hierarchy=h_cfg, method="probCount_exact",
                            forecasts="fc.json", output_dir="out")
    with pytest.raises(MissingForecast):
        harness.run_reconcile(harness.load_config(cfg_path), quiet=True)


def test_samples_csv_columns_and_coherence(tmp_path):
    from reconc.hierarchy import aggregate, is_coherent

    obs = tmp_path / "obs.csv"
    write_synthetic_observations(obs)
    cfg_path = write_config(tmp_path / "cfg.json", method="truncated", output_dir="out")
    out = harness.run_reconcile(harness.load_config(cfg_path), quiet=True)
    h = build_temporal_hierarchy(12, [2, 3, 4, 6, 12])
    lines = (out / "samples_sparse_a.csv").read_text().splitlines()
    assert lines[0].split(",") == list(h.bottom_labels)
    for line in lines[1:25]:
        row = np.array([int(x) for x in line.split(",")])
        assert is_coherent(h, aggregate(h, row))


def test_score_requires_full_test_window(tmp_path):
    obs = tmp_path / "obs.csv"
    write_synthetic_observations(obs)
    cfg_path = write_config(tmp_path / "cfg.json", method="normal", output_dir="out")
    out = harness.run_reconcile(harness.load_config(cfg_path), quiet=True)
    score_cfg = write_config(tmp_path / "score.json", methods={"normal": str(out)},
                             output_dir="scores", test_length=6)
    with pytest.raises(MissingActuals):
        harness.run_score(harness.load_config(score_cfg), quiet=True)


def assert_same_fields(got, expected):
    assert type(got) is type(expected)
    for name, value in vars(expected).items():
        other = getattr(got, name)
        if dataclasses.is_dataclass(value):
            assert_same_fields(other, value)
        elif value is None:
            assert other is None
        else:
            assert np.array_equal(other, value, equal_nan=True), name


def test_written_artifacts_read_back_to_the_same_joint(tmp_path):
    h_cfg = {"bottom_period_count": 2, "factors": [2]}
    forecasts = {
        "b1": {"dist": "poisson", "lambda": 2},
        "b2": {"dist": "poisson", "lambda": 4},
        "agg2_1": {"dist": "poisson", "lambda": 9},
    }
    (tmp_path / "fc.json").write_text(json.dumps(forecasts))
    for method in ("probCount_exact", "probCount_mcmc", "truncated", "normal", "base"):
        cfg = harness.load_config(write_config(
            tmp_path / f"cfg_{method}.json", hierarchy=h_cfg, method=method,
            forecasts="fc.json", output_dir=f"out_{method}"))
        out = harness.run_reconcile(cfg, quiet=True)
        record = json.loads((out / "summaries.json").read_text())["series"]
        _, joint = harness.reconcile_series(cfg.hierarchy, method, forecasts, cfg.sampler,
                                            cfg.scoring.alpha, cfg.sampler.seed)
        back = harness._read_artifact(record, out)
        if joint is None:
            assert back is None
            continue
        assert_same_fields(back, joint)


def test_score_skips_series_without_mase_scale(tmp_path):
    obs = tmp_path / "obs.csv"
    write_synthetic_observations(obs)
    methods = {}
    for method in ("normal", "base"):
        cfg_path = write_config(tmp_path / f"cfg_{method}.json", method=method,
                                output_dir=f"out_{method}")
        methods[method] = str(harness.run_reconcile(harness.load_config(cfg_path), quiet=True))
    score_cfg = harness.load_config(write_config(tmp_path / "score.json", methods=methods,
                                                 output_dir="scores"))
    before = harness.run_score(score_cfg, quiet=True).rows

    # a series constant over its training block sorts last, so the energy-score
    # draws of the other series come from the same random stream as before
    with open(obs, "a") as fh:
        fh.writelines(f"zconst,{t},1\n" for t in range(48))
    for method in methods:
        harness.run_reconcile(harness.load_config(tmp_path / f"cfg_{method}.json"), quiet=True)
    with pytest.warns(UserWarning, match="12 MASE cell"):
        report = harness.run_score(score_cfg, quiet=True)
    assert not [r for r in report.rows if r["series"] == "zconst" and r["metric"] == "mase"]
    assert [r for r in report.rows if r["series"] == "zconst"]
    assert [r for r in report.rows if r["series"] != "zconst"] == before
    assert all(np.isfinite(r["skill"]) for r in report.skill_rows)


def test_benchmark_end_to_end(tmp_path):
    report = run_benchmark(tmp_path)
    values = [row["value"] for row in report.rows]
    assert all(np.isfinite(values))
    for row in report.rows:
        if row["metric"] in ("mase", "rps", "mis"):
            assert row["value"] >= 0
    rps_skill = [r for r in report.skill_rows
                 if r["metric"] == "rps" and r["method"] == "probCount_mcmc"]
    assert rps_skill and all(np.isfinite(r["skill"]) for r in rps_skill)
    assert (tmp_path / "out_scores" / "scores.csv").exists()
    assert (tmp_path / "out_scores" / "skill.csv").exists()


def test_scoring_method_against_itself_gives_zero_skill(tmp_path):
    obs = tmp_path / "obs.csv"
    write_synthetic_observations(obs)
    cfg_path = write_config(tmp_path / "cfg.json", method="normal", output_dir="out")
    out = harness.run_reconcile(harness.load_config(cfg_path), quiet=True)
    score_cfg = write_config(
        tmp_path / "score.json",
        methods={"normal": str(out), "normal_again": str(out)},
        output_dir="scores",
    )
    report = harness.run_score(harness.load_config(score_cfg), quiet=True)
    for row in report.skill_rows:
        assert row["skill"] == pytest.approx(0.0, abs=1e-12)


def test_demo_minimal_table2(tmp_path):
    assert harness.demo("minimal_table2", out_dir=tmp_path / "d", quiet=True)
    checks = json.loads((tmp_path / "d" / "checks.json").read_text())
    assert all(c["passed"] for c in checks)


def test_demo_hierarchy421(tmp_path):
    assert harness.demo("hierarchy421", out_dir=tmp_path / "d", seed=0, quiet=True)


def test_demo_poisson_table3_known_defects(tmp_path):
    # the two published entries that sit outside the 0.1 tolerance of the
    # exact ground truth fail by design; everything else must pass
    harness.demo("poisson_table3", out_dir=tmp_path / "d", seed=0, quiet=True)
    checks = json.loads((tmp_path / "d" / "checks.json").read_text())
    failed = {c["check"] for c in checks if not c["passed"]}
    assert failed == {"published var b2", "published mean agg2_1"}


def _demo_score_config(tmp_path, demo_dir):
    """Score config for a demo's one two-bottom series, named "series"."""
    rows = "".join(f"series,{t},{v}\n" for t, v in enumerate([1, 3, 2, 5, 3, 6]))
    (tmp_path / "obs.csv").write_text("series_id,t,value\n" + rows)
    return write_config(tmp_path / "score.json",
                        hierarchy={"bottom_period_count": 2, "factors": [2]},
                        methods={"probCount_exact": str(demo_dir)}, output_dir="scores")


def test_score_demo_dir_uses_the_stored_exact_joint(tmp_path):
    harness.demo("poisson_table3", out_dir=tmp_path / "d", seed=0, quiet=True)
    cfg = harness.load_config(_demo_score_config(tmp_path, tmp_path / "d"))
    report = harness.run_score(cfg, quiet=True)
    es = [r["value"] for r in report.rows if r["metric"] == "energy_score"]

    record = json.loads((tmp_path / "d" / "summaries.json").read_text())["series"]
    joint = harness._read_artifact(record, tmp_path / "d")
    rng = np.random.default_rng(cfg.scoring.seed)
    s_t = cfg.hierarchy.s_matrix.T
    n = cfg.scoring.es_batch
    batches = [joint.sample(n, rng) @ s_t for _ in range(2)]
    y = aggregate(cfg.hierarchy, np.array([3, 6]))
    assert es == [energy_score(*batches, y, alpha_exp=2.0)]


def test_score_refuses_a_record_without_its_joint(tmp_path):
    harness.demo("poisson_table3", out_dir=tmp_path / "d", seed=0, quiet=True)
    summaries_path = tmp_path / "d" / "summaries.json"
    summaries = json.loads(summaries_path.read_text())
    del summaries["series"]["joint_file"]
    summaries_path.write_text(json.dumps(summaries))
    with pytest.raises(MissingJoint):
        harness.run_score(harness.load_config(_demo_score_config(tmp_path, tmp_path / "d")),
                          quiet=True)


def test_demo_unknown_name():
    with pytest.raises(ValueError):
        harness.demo("nope")
