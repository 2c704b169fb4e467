"""Tests for the experiment harness: aggregation, pipelines, demos."""

import csv
import dataclasses
import io
import json
import re
import warnings

import numpy as np
import pytest

from helpers import (
    MONTHLY,
    read_artifact,
    run_benchmark,
    sampler_diagnostics_from_dict,
    write_config,
    write_synthetic_observations,
)
from reconc import conditioning, harness
from reconc.distributions import Poisson
from reconc.errors import (
    InvalidAggregation,
    MissingActuals,
    MissingForecast,
    ObservationGap,
    SeriesTooShort,
)
from reconc.hierarchy import aggregate, build_temporal_hierarchy


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


def test_load_config_validations(tmp_path, monkeypatch):
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

    p.write_text(json.dumps({"hierarchy": MONTHLY, "outptu_dir": "typo"}))
    with pytest.raises(ValueError, match=r"unknown config key\(s\) \['outptu_dir'\]"):
        harness.load_config(p)

    for alpha in (0, 1, 1.5, -0.1):
        p.write_text(json.dumps({"hierarchy": MONTHLY, "scoring": {"alpha": alpha}}))
        with pytest.raises(ValueError, match=r"scoring.alpha must be in \(0, 1\)"):
            harness.load_config(p)
    for alpha, shown in (("0.1", "'0.1'"), (None, "None"), (True, "True"), ([0.1], r"\[0.1\]")):
        p.write_text(json.dumps({"hierarchy": MONTHLY, "scoring": {"alpha": alpha}}))
        with pytest.raises(ValueError, match=rf"^scoring.alpha must be a number, got {shown}$"):
            harness.load_config(p)

    for section, keys in (("sampler", {"chain": 4}), ("scoring", {"baseline": "normal",
                                                                  "alhpa": 0.1, "beta": 1})):
        p.write_text(json.dumps({"hierarchy": MONTHLY, section: keys}))
        unknown = sorted(set(keys) - {"baseline"})
        with pytest.raises(ValueError, match=rf"^unknown {section} key\(s\) "
                                             rf"{re.escape(str(unknown))}$"):
            harness.load_config(p)
    # the deprecated scoring keys still warn, and an unknown key beside them is refused
    p.write_text(json.dumps({"hierarchy": MONTHLY, "scoring": {"es_batch": 10, "chain": 1}}))
    with pytest.warns(DeprecationWarning, match="scoring.es_batch is deprecated"):
        with pytest.raises(ValueError, match=r"^unknown scoring key\(s\) \['chain'\]$"):
            harness.load_config(p)

    # the config and its sections must be JSON objects
    p.write_text("[]")
    with pytest.raises(ValueError, match=r"^config must be a JSON object, got \[\]$"):
        harness.load_config(p)
    for section, value, shown in (("hierarchy", None, "None"), ("sampler", None, "None"),
                                  ("scoring", ["alpha"], r"\['alpha'\]"),
                                  ("sampler", 4, "4")):
        p.write_text(json.dumps({"hierarchy": MONTHLY, section: value}))
        with pytest.raises(ValueError, match=rf"^{section} must be a JSON object, got {shown}$"):
            harness.load_config(p)

    for test_length in (0, -12):
        p.write_text(json.dumps({"hierarchy": MONTHLY, "test_length": test_length}))
        with pytest.raises(ValueError, match=rf"test_length must be >= 1, got {test_length}"):
            harness.load_config(p)

    for method in ("probCount_mcmc", "truncated"):
        p.write_text(json.dumps({"hierarchy": MONTHLY, "method": method,
                                 "sampler": {"seed": -1}}))
        with pytest.raises(ValueError, match=r"^sampler.seed must be >= 0, got -1$"):
            harness.load_config(p)
    p.write_text(json.dumps({"hierarchy": MONTHLY, "method": "probCount_mcmc",
                             "sampler": {"seed": 1}}))
    monkeypatch.setenv("RECONC_SEED", "-3")
    with pytest.raises(ValueError, match=r"^RECONC_SEED must be >= 0, got -3$"):
        harness.load_config(p)
    monkeypatch.setenv("RECONC_SEED", "abc")
    with pytest.raises(ValueError, match=r"^RECONC_SEED must be an integer, got 'abc'$"):
        harness.load_config(p)


@pytest.mark.parametrize("section, key", [
    (None, "test_length"), ("sampler", "chains"), ("sampler", "draws"), ("sampler", "burn_in"),
    ("sampler", "thin"), ("sampler", "seed"),
])
def test_load_config_refuses_non_integer_counts(tmp_path, section, key):
    p = tmp_path / "cfg.json"
    name = key if section is None else f"{section}.{key}"
    for value in (6.5, "12", True, 12.0):
        raw = {"hierarchy": MONTHLY}
        raw.update({key: value} if section is None else {section: {key: value}})
        p.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
            harness.load_config(p)


@pytest.mark.parametrize("key, minimum", [
    ("chains", 1), ("draws", 1), ("thin", 1), ("burn_in", 0),
])
def test_load_config_refuses_sampler_counts_below_their_minimum(tmp_path, key, minimum):
    p = tmp_path / "cfg.json"
    for method in ("probCount_mcmc", "truncated"):
        for value in (minimum - 1, -5000):
            p.write_text(json.dumps({"hierarchy": MONTHLY, "method": method,
                                     "sampler": {"seed": 1, key: value}}))
            with pytest.raises(ValueError, match=rf"^sampler.{key} must be >= {minimum}, "
                                                 rf"got {value}$"):
                harness.load_config(p)
        p.write_text(json.dumps({"hierarchy": MONTHLY, "method": method,
                                 "sampler": {"seed": 1, key: minimum}}))
        assert getattr(harness.load_config(p).sampler, key) == minimum


def test_env_seed_override(tmp_path, monkeypatch):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({
        "hierarchy": MONTHLY, "method": "probCount_mcmc",
        "sampler": {"seed": 5},
    }))
    assert harness.load_config(p).sampler.seed == 5
    monkeypatch.setenv("RECONC_SEED", "99")
    assert harness.load_config(p).sampler.seed == 99


def test_old_scoring_keys_are_ignored_with_a_warning(tmp_path):
    obs = tmp_path / "obs.csv"
    write_synthetic_observations(obs)
    methods = {}
    for method in ("normal", "base"):
        cfg_path = write_config(tmp_path / f"cfg_{method}.json", method=method,
                                output_dir=f"out_{method}")
        methods[method] = str(harness.run_reconcile(harness.load_config(cfg_path), quiet=True))
    scores = {}
    for name, extra in (("new", {}), ("old", {"es_batch": 1000, "seed": 3})):
        cfg_path = write_config(tmp_path / f"score_{name}.json", methods=methods,
                                output_dir=f"scores_{name}",
                                scoring={"alpha": 0.1, "baseline": "normal", **extra})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cfg = harness.load_config(cfg_path)
        deprecations = [str(w.message) for w in caught if w.category is DeprecationWarning]
        assert deprecations == [f"scoring.{key} is deprecated and ignored: the energy score "
                                "is computed in closed form" for key in extra]
        assert cfg.scoring == harness.ScoringSettings(alpha=0.1, baseline="normal")
        harness.run_score(cfg, quiet=True)
        scores[name] = [(tmp_path / f"scores_{name}" / f).read_bytes()
                        for f in ("scores.csv", "skill.csv", "scores.json")]
    assert scores["old"] == scores["new"]

    cfg_path.write_text(json.dumps({"hierarchy": MONTHLY, "scoring": {"es_bacth": 1000}}))
    with pytest.raises(ValueError, match=r"^unknown scoring key\(s\) \['es_bacth'\]$"):
        harness.load_config(cfg_path)


def test_hierarchy_from_file(tmp_path):
    h = build_temporal_hierarchy(4, [2, 4])
    (tmp_path / "h.json").write_text(h.to_json())
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"hierarchy": {"a_matrix_file": "h.json"}}))
    cfg = harness.load_config(p)
    assert cfg.hierarchy.node_labels == h.node_labels


def _file_hierarchy_configs(tmp_path, a_rows):
    """Reconcile (normal, forecast file) and score configs over an A read from a file."""
    (tmp_path / "h.json").write_text(json.dumps({"m": 4, "A": a_rows}))
    h_cfg = {"a_matrix_file": "h.json"}
    labels = [f"u{i + 1}" for i in range(len(a_rows))] + ["b1", "b2", "b3", "b4"]
    (tmp_path / "fc.json").write_text(json.dumps(
        {"s": {label: {"dist": "gaussian", "mean": 2.0, "var": 2.0} for label in labels}}))
    rows = "".join(f"s,{t},{v}\n" for t, v in enumerate([1, 3, 2, 5, 3, 6, 0, 4, 4, 1, 2, 3]))
    (tmp_path / "obs.csv").write_text("series_id,t,value\n" + rows)
    rec_cfg = harness.load_config(write_config(
        tmp_path / "rec.json", hierarchy=h_cfg, method="normal", forecasts="fc.json",
        output_dir="out"))
    score_cfg = harness.load_config(write_config(
        tmp_path / "score.json", hierarchy=h_cfg, methods={"normal": "out"}, output_dir="scores"))
    return rec_cfg, score_cfg


@pytest.mark.parametrize("a_rows", [
    [[0, 1, 1, 0], [1, 1, 1, 1]],  # row [0,1,1,0] would be scored by blocks [0:2], [2:4]
    [[1, 1, 0, 0], [1, 1, 1, 1], [0, 0, 1, 1]],  # levels interleaved
    [[1, 1, 1, 0]],  # a row sum that does not divide m
])
def test_time_blocks_refuse_a_non_temporal_hierarchy(tmp_path, a_rows):
    rec_cfg, score_cfg = _file_hierarchy_configs(tmp_path, a_rows)
    harness.run_reconcile(rec_cfg, quiet=True)  # minT needs no time blocks
    with pytest.raises(InvalidAggregation, match="not temporal"):
        harness.run_score(score_cfg, quiet=True)
    builtin = dataclasses.replace(rec_cfg, forecasts=harness.BUILTIN_FORECASTER)
    with pytest.raises(InvalidAggregation, match="not temporal"):
        harness.run_reconcile(builtin, quiet=True)


def test_time_blocks_of_a_temporal_hierarchy_from_file(tmp_path):
    rec_cfg, score_cfg = _file_hierarchy_configs(
        tmp_path, [[1, 1, 1, 1], [1, 1, 0, 0], [0, 0, 1, 1]])
    harness.run_reconcile(rec_cfg, quiet=True)
    report = harness.run_score(score_cfg, quiet=True)
    assert {r["level"] for r in report.rows} == {"agg4", "agg2", "bottom", "hierarchy"}
    builtin = dataclasses.replace(rec_cfg, forecasts=harness.BUILTIN_FORECASTER)
    harness.run_reconcile(builtin, quiet=True)


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
    # the node marginals come from the forward/backward tables; no joint is stored
    assert not list(out.glob("joint_*.npz"))
    assert set(summaries["series"]["diagnostics"]) == {"edge_mass", "peak_states",
                                                        "pruned_mass_bound"}


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
            assert np.asarray(other).dtype == np.asarray(value).dtype, name


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
        back = read_artifact(record, out)
        if method in ("probCount_exact", "base"):  # no joint: the artifact is the diagnostics
            assert back is None
            assert record["diagnostics"] == joint
            continue
        assert_same_fields(back, joint)
        if method == "normal":
            assert record["joint_file"] == "joint_series.npz"
            with np.load(out / record["joint_file"], allow_pickle=False) as arrays:
                assert sorted(arrays.files) == sorted(
                    k for k, v in vars(joint).items() if isinstance(v, np.ndarray))


CSV_BLOCKS = {
    "zeros": np.zeros((4, 3), dtype=np.int64),
    "digits": np.arange(10).reshape(2, 5),
    "multi_digit": np.array([[10, 99, 100], [123456, 0, 7], [5, 100, 99]]),
    "one_row": np.array([[3, 14, 159, 2653]]),
    "one_column": np.array([[2], [71], [828], [1]]),
    "draws_40000x12": np.random.default_rng(0).negative_binomial(0.8, 0.35, size=(40_000, 12)),
}


@pytest.mark.parametrize("name", sorted(CSV_BLOCKS))
def test_csv_body_equals_csv_writer(name):
    values = CSV_BLOCKS[name]
    expected = io.StringIO()
    csv.writer(expected).writerows(values.tolist())
    assert harness._csv_body(values) == expected.getvalue().encode()


@pytest.mark.parametrize("name", ["multi_digit", "one_row", "draws_40000x12"])
def test_samples_csv_reads_back_to_the_same_draws(tmp_path, name):
    values = CSV_BLOCKS[name]
    h = build_temporal_hierarchy(values.shape[1], [values.shape[1]])
    joint = conditioning.CountJoint.from_draws(values)
    record = {"method": "probCount_mcmc",
              **harness.METHODS["probCount_mcmc"].store(tmp_path, h, "s1", joint)}
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(h.bottom_labels)
    writer.writerows(values.tolist())
    assert (tmp_path / record["samples_file"]).read_bytes() == expected.getvalue().encode()
    assert_same_fields(read_artifact(record, tmp_path), joint)


def test_sampler_record_without_cap_share_reads_back_as_nan():
    diag = conditioning.SamplerDiagnostics(np.array([0.4, 0.5]), np.array([1.0, 1.01]),
                                           n_chains=2, n_kept=20, burn_in=5, thin=2,
                                           cap_share=0.0)
    record = diag.to_dict()
    assert_same_fields(sampler_diagnostics_from_dict(record), diag)
    del record["cap_share"]  # as written before the cap share was recorded
    assert np.isnan(sampler_diagnostics_from_dict(record).cap_share)


def test_exact_record_stores_the_marginals_and_no_joint(tmp_path):
    h_cfg = {"bottom_period_count": 2, "factors": [2]}
    forecasts = {label: {"dist": "poisson", "lambda": rate}
                 for label, rate in zip(("b1", "b2", "agg2_1"), (2, 4, 9))}
    (tmp_path / "fc.json").write_text(json.dumps(forecasts))
    cfg = harness.load_config(write_config(
        tmp_path / "cfg.json", hierarchy=h_cfg, method="probCount_exact",
        forecasts="fc.json", output_dir="out"))
    out = harness.run_reconcile(cfg, quiet=True)
    record = json.loads((out / "summaries.json").read_text())["series"]
    assert sorted(p.name for p in out.iterdir()) == ["summaries.json"]
    assert "joint_file" not in record and read_artifact(record, out) is None
    assert set(record["diagnostics"]) == {"edge_mass", "peak_states", "pruned_mass_bound"}
    assert 0 < record["diagnostics"]["edge_mass"] < 1e-6
    # after b1 the one row is open at each cell of b1's grid
    assert record["diagnostics"]["peak_states"] == Poisson(2).quantile_truncate() + 1

    full = conditioning.reconcile_exact(cfg.hierarchy,
                                        harness._count_forecast_set(cfg.hierarchy, forecasts))
    for label, summary in conditioning.summarize(full, cfg.hierarchy).items():
        np.testing.assert_allclose(record["nodes"][label]["marginal"]["probs"],
                                   summary.pmf.probs, rtol=0, atol=1e-13)


@pytest.mark.parametrize("rates, stored", [((2, 4), np.uint8), ((300, 310), np.uint16)])
def test_stored_exact_grid_reads_back_from_its_narrowest_dtype(tmp_path, rates, stored):
    # the demos store their full grids: counts up to 21, or up to 421 for the large rates
    h = build_temporal_hierarchy(2, [2])
    joint = conditioning.bottom_up_exact(h, conditioning.BaseForecastSet(
        [Poisson(rate) for rate in rates], [None]))
    record = {"method": "probCount_exact", **harness._store_npz(tmp_path, h, "s", joint)}
    with np.load(tmp_path / record["joint_file"], allow_pickle=False) as arrays:
        assert sorted(arrays.files) == ["bottom_support", "probabilities"]
        assert arrays["bottom_support"].dtype == stored
    back = read_artifact(record, tmp_path)
    assert back.bottom_support.dtype == np.int64
    assert np.array_equal(back.bottom_support, joint.bottom_support)
    assert np.array_equal(back.probabilities, joint.probabilities)


def _score_with_extra_series(tmp_path, sid, values, n_skipped):
    """Score the synthetic series, then again with series `sid` appended.

    The rows of the other series must not change. Returns the second report
    and the warnings it raised.
    """
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

    with open(obs, "a") as fh:
        fh.writelines(f"{sid},{t},{v}\n" for t, v in enumerate(values))
    for method in methods:
        harness.run_reconcile(harness.load_config(tmp_path / f"cfg_{method}.json"), quiet=True)
    with pytest.warns(UserWarning, match=rf"^{n_skipped} MASE cell\(s\) skipped: "
                                         "constant or single-block training level") as caught:
        report = harness.run_score(score_cfg, quiet=True)
    assert [r for r in report.rows if r["series"] != sid] == before
    return report, caught


def test_score_skips_series_without_mase_scale(tmp_path):
    report, _ = _score_with_extra_series(tmp_path, "zconst", [1] * 48, n_skipped=12)
    assert not [r for r in report.rows if r["series"] == "zconst" and r["metric"] == "mase"]
    assert [r for r in report.rows if r["series"] == "zconst"]
    assert all(np.isfinite(r["skill"]) for r in report.skill_rows)


def test_short_training_window_loses_only_its_single_block_mase(tmp_path):
    # 18 training periods: one agg12 block, several blocks at every other level
    report, _ = _score_with_extra_series(tmp_path, "zshort", [t % 5 for t in range(30)],
                                         n_skipped=2)
    levels = {name for name, _, _ in build_temporal_hierarchy(12, [2, 3, 4, 6, 12]).level_sizes}
    for method in ("normal", "base"):
        mase_levels = {r["level"] for r in report.rows
                       if r["series"] == "zshort" and r["metric"] == "mase"
                       and r["method"] == method}
        assert mase_levels == levels - {"agg12"}


def test_score_warnings_point_at_the_caller_of_run_score(tmp_path):
    # both methods forecast an all-zero series as 0, so its skill cells are undefined;
    # the outer check takes the warnings that the helper's MASE check passes on
    with pytest.warns(UserWarning, match=r"undefined skill cell\(s\) for .* reported as 0"):
        _, caught = _score_with_extra_series(tmp_path, "zzero", [0] * 48, n_skipped=12)
    assert [w for w in caught if "undefined skill cell(s)" in str(w.message)]
    assert {w.filename for w in caught} == {__file__}


def test_score_aggregates_each_training_series_once(tmp_path, monkeypatch):
    run_benchmark(tmp_path, methods=("normal", "structural_scaling", "base"))
    calls = []
    aggregate_levels = harness.temporal_aggregate

    def counted(values, h):
        calls.append(len(values))
        return aggregate_levels(values, h)

    monkeypatch.setattr(harness, "temporal_aggregate", counted)
    harness.run_score(harness.load_config(tmp_path / "cfg_score.json"), quiet=True)
    assert len(calls) == 3  # one per series, not one per method and series


def test_short_series_is_refused_before_any_method_output_is_read(tmp_path):
    rows = "".join(f"s,{t},1\n" for t in range(13))  # one period short of 12 + 2
    (tmp_path / "obs.csv").write_text("series_id,t,value\n" + rows)
    score_cfg = harness.load_config(write_config(
        tmp_path / "score.json", methods={"normal": "no_outputs"}, output_dir="scores"))
    with pytest.raises(SeriesTooShort, match="too short to score"):
        harness.run_score(score_cfg, quiet=True)


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


def test_base_states_the_forecasts_own_moments_and_its_cut_tails(tmp_path):
    # the builtin forecaster gives coherent Poisson means, so base and normal
    # share every node mean and hence the energy score
    write_synthetic_observations(tmp_path / "obs.csv")
    h_cfg = {"bottom_period_count": 6, "factors": [2, 3, 6]}
    methods = {}
    for method in ("normal", "base"):
        cfg = write_config(tmp_path / f"cfg_{method}.json", hierarchy=h_cfg, method=method,
                           output_dir=method)
        methods[method] = str(harness.run_reconcile(harness.load_config(cfg), quiet=True))
    report = harness.run_score(harness.load_config(write_config(
        tmp_path / "score.json", hierarchy=h_cfg, methods=methods, output_dir="scores")),
        quiet=True)
    energy = {r["method"]: r["value"] for r in report.rows
              if r["series"] == "bursty" and r["metric"] == "energy_score"}
    assert energy["base"] == pytest.approx(energy["normal"], rel=1e-12, abs=0)

    record = json.loads((tmp_path / "base" / "summaries.json").read_text())["bursty"]
    bursty = harness.read_observations(tmp_path / "obs.csv")["bursty"]
    forecasts = harness.empirical_poisson_forecasts(bursty[:-6],
                                                    build_temporal_hierarchy(6, [2, 3, 6]))
    dropped = record["diagnostics"]["dropped_mass"]
    assert set(dropped) == set(forecasts)
    for label, forecast in forecasts.items():
        node = record["nodes"][label]
        assert node["mean"] == node["variance"] == forecast["lambda"]
        probs = node["marginal"]["probs"]
        assert 0 < dropped[label] <= 1e-9  # the tail past the 1 - 1e-9 quantile
        assert dropped[label] == pytest.approx(
            1 - sum(Poisson(forecast["lambda"]).pmf(np.arange(len(probs)))), rel=1e-6)


def test_base_summarizes_a_gaussian_entry_as_a_gaussian(tmp_path):
    forecasts = {"b1": {"dist": "poisson", "lambda": 2.0},
                 "b2": {"dist": "poisson", "lambda": 4.0},
                 "agg2_1": {"dist": "gaussian", "mean": 6.5, "var": 4.0}}
    (tmp_path / "fc.json").write_text(json.dumps(forecasts))
    cfg = harness.load_config(write_config(
        tmp_path / "cfg.json", hierarchy={"bottom_period_count": 2, "factors": [2]},
        method="base", forecasts="fc.json", output_dir="out"))
    out = harness.run_reconcile(cfg, quiet=True)
    record = json.loads((out / "summaries.json").read_text())["series"]
    top = record["nodes"]["agg2_1"]
    assert top["marginal"] == {"dist": "gaussian", "mean": 6.5, "var": 4.0}
    assert top["mean"] == top["median"] == 6.5 and top["variance"] == 4.0
    assert record["nodes"]["b2"]["marginal"]["dist"] == "tabulated"
    assert set(record["diagnostics"]["dropped_mass"]) == {"b1", "b2"}


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


def _assert_scored_from_stored_joint(tmp_path, name):
    """The energy score equals E||X - y||^2 - E||X - X'||^2 / 2 over the stored grid."""
    harness.demo(name, out_dir=tmp_path / "d", seed=0, quiet=True)
    cfg = harness.load_config(_demo_score_config(tmp_path, tmp_path / "d"))
    report = harness.run_score(cfg, quiet=True)
    es = [r["value"] for r in report.rows if r["metric"] == "energy_score"]

    record = json.loads((tmp_path / "d" / "summaries.json").read_text())["series"]
    joint = read_artifact(record, tmp_path / "d")
    x = joint.bottom_support @ cfg.hierarchy.s_matrix.T
    p = joint.probabilities
    y = aggregate(cfg.hierarchy, np.array([3, 6]))
    to_obs = p @ ((x - y) ** 2).sum(axis=1)
    spread = p @ (((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2) @ p)
    assert len(es) == 1
    assert es[0] == pytest.approx(to_obs - spread / 2, rel=1e-9)


def test_score_demo_dir_uses_the_stored_exact_joint(tmp_path):
    _assert_scored_from_stored_joint(tmp_path, "poisson_table3")


def test_minimal_demo_dir_is_scored_like_the_others(tmp_path):
    _assert_scored_from_stored_joint(tmp_path, "minimal_table2")


def test_score_reads_no_stored_joint(tmp_path):
    run_benchmark(tmp_path)
    scores_dir = tmp_path / "out_scores"
    names = ("scores.csv", "skill.csv", "scores.json")
    before = [(scores_dir / name).read_bytes() for name in names]
    for method in ("probCount_mcmc", "normal", "base"):
        method_dir = tmp_path / f"out_{method}"
        for artifact in [*method_dir.glob("joint_*.npz"), *method_dir.glob("samples_*.csv")]:
            artifact.unlink()
        summaries = json.loads((method_dir / "summaries.json").read_text())
        for record in summaries.values():
            record.pop("joint_file", None)
            record.pop("samples_file", None)
        (method_dir / "summaries.json").write_text(json.dumps(summaries))
    assert not list(tmp_path.glob("out_*/joint_*")) and not list(tmp_path.glob("out_*/samples_*"))
    for name in names:
        (scores_dir / name).unlink()
    harness.run_score(harness.load_config(tmp_path / "cfg_score.json"), quiet=True)
    assert [(scores_dir / name).read_bytes() for name in names] == before


@pytest.mark.parametrize("method", ["probCount_exact", "normal", "structural_scaling", "base"])
def test_a_new_series_changes_no_score_of_the_others(tmp_path, method):
    obs = tmp_path / "obs.csv"
    write_synthetic_observations(obs)
    h_cfg = {"bottom_period_count": 4, "factors": [2, 4]}
    rec_path = write_config(tmp_path / "rec.json", hierarchy=h_cfg, method=method,
                            output_dir="out")
    score_cfg = harness.load_config(write_config(
        tmp_path / "score.json", hierarchy=h_cfg, methods={method: "out"}, output_dir="scores"))
    harness.run_reconcile(harness.load_config(rec_path), quiet=True)
    before = harness.run_score(score_cfg, quiet=True).rows

    # "aaa_new" sorts before every existing series
    values = [t % 3 + t % 2 for t in range(48)]
    with open(obs, "a") as fh:
        fh.writelines(f"aaa_new,{t},{v}\n" for t, v in enumerate(values))
    harness.run_reconcile(harness.load_config(rec_path), quiet=True)
    rows = harness.run_score(score_cfg, quiet=True).rows
    assert [r for r in rows if r["series"] == "aaa_new"]
    assert [r for r in rows if r["series"] != "aaa_new"] == before


def test_demo_unknown_name():
    with pytest.raises(ValueError):
        harness.demo("nope")
