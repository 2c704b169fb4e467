"""Tests for the command-line interface."""

import json
import math
import subprocess
import sys

import pytest

from helpers import write_config, write_synthetic_observations
from reconc.cli import main
from reconc.conditioning import PRUNE_BUDGET


def test_hierarchy_command(capsys):
    assert main(["hierarchy", "--bottom", "4", "--factors", "2,4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "n=7 m=4 labels: agg4_1 agg2_1 agg2_2 b1 b2 b3 b4"
    assert out[1:] == ["1 1 1 1", "1 1 0 0", "0 0 1 1",
                       "1 0 0 0", "0 1 0 0", "0 0 1 0", "0 0 0 1"]


def test_hierarchy_json_flag(capsys):
    assert main(["hierarchy", "--bottom", "2", "--factors", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["m"] == 2 and data["A"] == [[1, 1]]


def test_hierarchy_bad_factor_exit_code(capsys):
    assert main(["hierarchy", "--bottom", "4", "--factors", "3"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("factors", ["2,x", "2,,1.5"])
def test_hierarchy_factor_that_is_not_an_integer_names_the_option(capsys, factors):
    with pytest.raises(SystemExit) as exit_:
        main(["hierarchy", "--bottom", "4", "--factors", factors])
    assert exit_.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: argument --factors: not a list of integers: {factors!r}\n")


def test_reconcile_and_score_commands(tmp_path, capsys):
    write_synthetic_observations(tmp_path / "obs.csv")
    rec_cfg = write_config(tmp_path / "rec.json", method="normal", output_dir="out_n")
    assert main(["reconcile", "--config", str(rec_cfg)]) == 0
    assert "series sparse_a" in capsys.readouterr().out
    score_cfg = write_config(tmp_path / "score.json",
                             methods={"normal": "out_n"}, output_dir="scores")
    assert main(["score", "--config", str(score_cfg), "--quiet"]) == 0
    assert (tmp_path / "scores" / "scores.csv").exists()
    assert capsys.readouterr().out == ""


def test_score_prints_the_skill_table(tmp_path, capsys):
    write_synthetic_observations(tmp_path / "obs.csv")
    for method in ("normal", "base"):
        cfg = write_config(tmp_path / f"rec_{method}.json", method=method,
                           output_dir=f"out_{method}")
        assert main(["reconcile", "--config", str(cfg), "--quiet"]) == 0
    score_cfg = write_config(tmp_path / "score.json", output_dir="scores",
                             methods={"normal": "out_normal", "base": "out_base"})
    assert main(["score", "--config", str(score_cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "        metric      level             method    skill"
    assert "          mase      agg12               base    0.583" in lines


def test_score_refuses_a_record_that_lacks_a_node(tmp_path, capsys):
    # outputs reconciled on 2 bottoms, scored on 4
    write_synthetic_observations(tmp_path / "obs.csv")
    two = {"bottom_period_count": 2, "factors": [2]}
    four = {"bottom_period_count": 4, "factors": [2, 4]}
    rec_cfg = write_config(tmp_path / "rec.json", hierarchy=two, method="normal",
                           output_dir="out_n")
    assert main(["reconcile", "--config", str(rec_cfg), "--quiet"]) == 0
    score_cfg = write_config(tmp_path / "score.json", hierarchy=four,
                             methods={"normal": "out_n"}, output_dir="scores")
    assert main(["score", "--config", str(score_cfg), "--quiet"]) == 1
    assert capsys.readouterr().err == ("error: method 'normal' has no reconciled output for "
                                       "node 'agg4_1' of series 'bursty'\n")


def test_exact_reconcile_runs_the_monthly_hierarchy(tmp_path, capsys):
    # the grid has about 1e12 cells; the pruned pass keeps at most 104882 states (bursty)
    series = write_synthetic_observations(tmp_path / "obs.csv")
    rec_cfg = write_config(tmp_path / "rec.json", method="probCount_exact", output_dir="out")
    assert main(["reconcile", "--config", str(rec_cfg), "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    records = json.loads((tmp_path / "out" / "summaries.json").read_text())
    assert sorted(records) == series
    for record in records.values():
        diagnostics = record["diagnostics"]
        assert set(diagnostics) == {"edge_mass", "peak_states", "pruned_mass_bound"}
        assert 0 < diagnostics["pruned_mass_bound"] <= PRUNE_BUDGET


def test_quiet_suppresses_tables(tmp_path, capsys):
    write_synthetic_observations(tmp_path / "obs.csv")
    rec_cfg = write_config(tmp_path / "rec.json", method="normal", output_dir="out_n")
    assert main(["reconcile", "--config", str(rec_cfg), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_missing_config_exit_code(capsys):
    assert main(["reconcile", "--config", "/nonexistent/cfg.json"]) == 2
    assert "error" in capsys.readouterr().err


H2 = '{"bottom_period_count": 2, "factors": [2]}'


@pytest.mark.parametrize("body, message", [
    ("[]", "config must be a JSON object, got []"),
    ('{"hierarchy": null}', "hierarchy must be a JSON object, got None"),
    (f'{{"hierarchy": {H2}, "sampler": null}}', "sampler must be a JSON object, got None"),
    (f'{{"hierarchy": {H2}, "scoring": ["alpha"]}}',
     "scoring must be a JSON object, got ['alpha']"),
])
def test_non_object_config_exit_code(tmp_path, capsys, body, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(body)
    assert main(["reconcile", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err


def test_missing_forecast_exit_code(tmp_path, capsys):
    (tmp_path / "fc.json").write_text(json.dumps({"b1": {"dist": "poisson", "lambda": 1}}))
    cfg = write_config(tmp_path / "cfg.json",
                       hierarchy={"bottom_period_count": 2, "factors": [2]},
                       method="probCount_exact", forecasts="fc.json", output_dir="out")
    assert main(["reconcile", "--config", str(cfg)]) == 1
    assert "error" in capsys.readouterr().err


GAUSSIAN = {"dist": "gaussian", "mean": 1.0, "var": 1.0}
POISSON = {"dist": "poisson", "lambda": 1.0}


@pytest.mark.parametrize("method, ok, bad", [
    ("normal", GAUSSIAN, {"dist": "gaussian", "mean": 1.0, "var": math.nan}),
    ("normal", GAUSSIAN, {"dist": "gaussian", "mean": math.inf, "var": 1.0}),
    ("probCount_exact", POISSON, {"dist": "poisson", "lambda": math.nan}),
    ("probCount_exact", POISSON, {"dist": "negbin", "r": math.inf, "p": 0.5}),
])
def test_non_finite_forecast_exit_code(tmp_path, capsys, method, ok, bad):
    (tmp_path / "fc.json").write_text(json.dumps({"agg2_1": ok, "b1": ok, "b2": bad}))
    cfg = write_config(tmp_path / "cfg.json",
                       hierarchy={"bottom_period_count": 2, "factors": [2]},
                       method=method, forecasts="fc.json", output_dir="out")
    assert main(["reconcile", "--config", str(cfg)]) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["probCount_exact", "probCount_mcmc", "normal",
                                    "structural_scaling", "truncated", "base"])
def test_forecast_label_that_is_not_a_node_exit_code(tmp_path, capsys, method):
    # "agg2_l" (letter l) misspells the upper node agg2_1
    forecasts = {"s1": {"b1": POISSON, "b2": POISSON, "agg2_1": POISSON},
                 "s2": {"b1": POISSON, "b2": POISSON, "agg2_l": POISSON}}
    (tmp_path / "fc.json").write_text(json.dumps(forecasts))
    cfg = write_config(tmp_path / "cfg.json",
                       hierarchy={"bottom_period_count": 2, "factors": [2]},
                       method=method, forecasts="fc.json", output_dir="out")
    assert main(["reconcile", "--config", str(cfg), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "series 's2'" in err and "'agg2_l' is not a node" in err
    assert not (tmp_path / "out" / "summaries.json").exists()


def test_absent_upper_forecast_is_allowed(tmp_path, capsys):
    (tmp_path / "fc.json").write_text(json.dumps({"b1": POISSON, "b2": POISSON}))
    cfg = write_config(tmp_path / "cfg.json",
                       hierarchy={"bottom_period_count": 2, "factors": [2]},
                       method="probCount_exact", forecasts="fc.json", output_dir="out")
    assert main(["reconcile", "--config", str(cfg), "--quiet"]) == 0


@pytest.mark.parametrize("method", ["probCount_exact", "probCount_mcmc", "base"])
def test_non_integer_count_samples_exit_code(tmp_path, capsys, method):
    forecasts = {"s1": {"b1": POISSON, "b2": {"samples": [0.5, 1.5, 2.2]}, "agg2_1": POISSON}}
    (tmp_path / "fc.json").write_text(json.dumps(forecasts))
    cfg = write_config(tmp_path / "cfg.json",
                       hierarchy={"bottom_period_count": 2, "factors": [2]},
                       method=method, forecasts="fc.json", output_dir="out")
    assert main(["reconcile", "--config", str(cfg), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "series 's1'" in err and "node 'b2'" in err and "must be integers" in err


@pytest.mark.parametrize("method", ["normal", "truncated"])
def test_gaussian_methods_keep_real_valued_samples(tmp_path, capsys, method):
    forecasts = {"b1": {"samples": [0.5, 1.5, 2.2]}, "b2": {"samples": [1.0, 2.5, 0.25]},
                 "agg2_1": {"samples": [2.0, 3.5, 2.75]}}
    (tmp_path / "fc.json").write_text(json.dumps(forecasts))
    cfg = write_config(tmp_path / "cfg.json",
                       hierarchy={"bottom_period_count": 2, "factors": [2]},
                       method=method, forecasts="fc.json", output_dir="out")
    assert main(["reconcile", "--config", str(cfg), "--quiet"]) == 0


H2_CONFIG = {"bottom_period_count": 2, "factors": [2]}


@pytest.mark.parametrize("method", ["probCount_exact", "normal", "base"])
@pytest.mark.parametrize("nested", [False, True])
def test_forecast_entry_without_its_parameter_exit_code(tmp_path, capsys, method, nested):
    forecasts = {"b1": POISSON, "b2": {"dist": "poisson"}, "agg2_1": POISSON}
    (tmp_path / "fc.json").write_text(json.dumps({"s1": forecasts} if nested else forecasts))
    cfg = write_config(tmp_path / "cfg.json", hierarchy=H2_CONFIG, method=method,
                       forecasts="fc.json", output_dir="out")
    assert main(["reconcile", "--config", str(cfg), "--quiet"]) == 2
    err = capsys.readouterr().err
    series = "s1" if nested else "series"
    assert err == (f"error: series {series!r}: node 'b2': forecast entry has no 'lambda' "
                   "key\n")


ENTRY_WITH = {
    "lambda": lambda bad: {"dist": "poisson", "lambda": bad},
    "r": lambda bad: {"dist": "negbin", "r": bad, "p": 0.5},
    "p": lambda bad: {"dist": "negbin", "r": 2.0, "p": bad},
    "mean": lambda bad: {"dist": "gaussian", "mean": bad, "var": 1.0},
    "var": lambda bad: {"dist": "gaussian", "mean": 1.0, "var": bad},
}


@pytest.mark.parametrize("key, method", [
    (key, method) for key in ENTRY_WITH for method in ("probCount_exact", "normal")
    if method == "normal" or key not in ("mean", "var")  # count methods take no Gaussian
])
@pytest.mark.parametrize("bad", ["x", True, None, [1.0]])
def test_forecast_parameter_that_is_not_a_number_exit_code(tmp_path, capsys, key, method, bad):
    forecasts = {"b1": ENTRY_WITH[key](bad), "b2": POISSON, "agg2_1": POISSON}
    (tmp_path / "fc.json").write_text(json.dumps(forecasts))
    cfg = write_config(tmp_path / "cfg.json", hierarchy=H2_CONFIG, method=method,
                       forecasts="fc.json", output_dir="out")
    assert main(["reconcile", "--config", str(cfg), "--quiet"]) == 2
    assert capsys.readouterr().err == (f"error: series 'series': node 'b1': forecast entry key "
                                       f"{key!r} must be a number, got {bad!r}\n")


ARRAY_ENTRIES = [  # (entry of b1, refusal after "forecast entry key ")
    ({"samples": "12"}, "'samples' must be an array of numbers, got '12'"),
    ({"samples": 12}, "'samples' must be an array of numbers, got 12"),
    ({"samples": [True, 2, 3]}, "'samples' must hold only numbers, got True"),
    ({"samples": [1, "2", 3]}, "'samples' must hold only numbers, got '2'"),
    ({"dist": "tabulated", "probs": [True, False]}, "'probs' must hold only numbers, got True"),
    ({"dist": "tabulated", "probs": [0.5, None, 0.5]}, "'probs' must hold only numbers, got None"),
    ({"dist": "tabulated", "probs": "abc"}, "'probs' must be an array of numbers, got 'abc'"),
]


@pytest.mark.parametrize("method", ["probCount_exact", "normal"])
@pytest.mark.parametrize("entry, refusal", ARRAY_ENTRIES)
def test_forecast_array_that_is_not_all_numbers_exit_code(tmp_path, capsys, method, entry,
                                                          refusal):
    forecasts = {"s1": {"b1": entry, "b2": POISSON, "agg2_1": POISSON}}
    (tmp_path / "fc.json").write_text(json.dumps(forecasts))
    cfg = write_config(tmp_path / "cfg.json", hierarchy=H2_CONFIG, method=method,
                       forecasts="fc.json", output_dir="out")
    assert main(["reconcile", "--config", str(cfg), "--quiet"]) == 2
    assert capsys.readouterr().err == (f"error: series 's1': node 'b1': forecast entry key "
                                       f"{refusal}\n")


NO_FORM_ENTRIES = [  # (entry of b1, method, refusal after "forecast entry ")
    ({"lambda": 2}, method, "has no 'dist' key") for method in ("probCount_exact", "normal")
] + [
    ({"dist": "poison", "lambda": 2}, method,
     "key 'dist' must be one of ['gaussian', 'negbin', 'poisson', 'tabulated'], got 'poison'")
    for method in ("probCount_exact", "normal")
] + [({"dist": "gaussian", "mean": 1.0, "var": 1.0}, "probCount_exact",
      "key 'dist' must name a count distribution for a count method, got 'gaussian'")]


@pytest.mark.parametrize("entry, method, refusal", NO_FORM_ENTRIES)
def test_forecast_entry_of_no_form_is_refused_by_its_dist_key(tmp_path, capsys, entry, method,
                                                              refusal):
    forecasts = {"s1": {"b1": entry, "b2": POISSON, "agg2_1": POISSON}}
    (tmp_path / "fc.json").write_text(json.dumps(forecasts))
    cfg = write_config(tmp_path / "cfg.json", hierarchy=H2_CONFIG, method=method,
                       forecasts="fc.json", output_dir="out")
    assert main(["reconcile", "--config", str(cfg), "--quiet"]) == 2
    assert capsys.readouterr().err == (f"error: series 's1': node 'b1': forecast entry "
                                       f"{refusal}\n")


@pytest.mark.parametrize("method", ["probCount_mcmc", "truncated"])
def test_negative_sampler_counts_exit_code(tmp_path, capsys, method):
    (tmp_path / "fc.json").write_text(json.dumps({"b1": POISSON, "b2": POISSON,
                                                  "agg2_1": POISSON}))
    cfg = write_config(tmp_path / "cfg.json", hierarchy=H2_CONFIG, method=method,
                       forecasts="fc.json", output_dir="out",
                       sampler={"chains": -2, "draws": -5000, "seed": 1})
    assert main(["reconcile", "--config", str(cfg), "--quiet"]) == 2
    assert capsys.readouterr().err == "error: sampler.chains must be >= 1, got -2\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("method", ["probCount_exact", "normal", "base"])
def test_forecast_entry_that_is_not_an_object_exit_code(tmp_path, capsys, method):
    # a flat file whose b1 entry is a number, not a nested file with series b1
    (tmp_path / "fc.json").write_text(json.dumps({"b1": 3, "b2": POISSON, "agg2_1": POISSON}))
    cfg = write_config(tmp_path / "cfg.json", hierarchy=H2_CONFIG, method=method,
                       forecasts="fc.json", output_dir="out")
    assert main(["reconcile", "--config", str(cfg), "--quiet"]) == 2
    assert capsys.readouterr().err == ("error: series 'series': node 'b1': forecast entry "
                                       "must be a JSON object, got 3\n")


MALFORMED_CONFIGS = [  # (config keys over the 2-bottom probCount_exact config, refusal)
    ({"hierarchy": {"bottom_period_count": 2.5, "factors": [2]}},
     "hierarchy.bottom_period_count must be an integer, got 2.5"),
    ({"hierarchy": {"bottom_period_count": "2", "factors": [2]}},
     "hierarchy.bottom_period_count must be an integer, got '2'"),
    ({"hierarchy": {"bottom_period_count": True, "factors": [2]}},
     "hierarchy.bottom_period_count must be an integer, got True"),
    ({"hierarchy": {"factors": [2]}},
     "hierarchy.bottom_period_count must be an integer, got None"),
    ({"hierarchy": {"bottom_period_count": 2, "factors": "2"}},
     "hierarchy.factors must be an array of integers, got '2'"),
    ({"hierarchy": {"bottom_period_count": 2, "factors": [2.7]}},
     "hierarchy.factors[0] must be an integer, got 2.7"),
    ({"hierarchy": {"bottom_period_count": 2, "factors": ["2"]}},
     "hierarchy.factors[0] must be an integer, got '2'"),
    ({"hierarchy": {"bottom_period_count": 2}},
     "hierarchy.factors must be an array of integers, got None"),
    ({"hierarchy": {"bottom_period_count": 2, "factors": None}},
     "hierarchy.factors must be an array of integers, got None"),
    ({"hierarchy": {"bottom_period_count": 2, "factors": [2], "x": 1}},
     "unknown hierarchy key(s) ['x']"),
    ({"hierarchy": {"factors": [2], "a_matrix_file": "h.json"}},
     "hierarchy needs exactly one source: bottom_period_count+factors or a_matrix_file"),
    ({"hierarchy": {"a_matrix_file": 5}}, "hierarchy.a_matrix_file must be a string, got 5"),
    ({"scoring": {"baseline": 5}}, "scoring.baseline must be a string, got 5"),
    ({"output_dir": 5}, "output_dir must be a string, got 5"),
    ({"forecasts": 5}, "forecasts must be a string, got 5"),
    ({"observations": 5}, "observations must be a string, got 5"),
    ({"method": ["normal"]}, "method must be a string, got ['normal']"),
    ({"methods": ["out"]}, "methods must be a JSON object, got ['out']"),
    ({"methods": {"normal": 5}}, "methods.normal must be a string, got 5"),
    ({"sampler": {"chains": None}}, "sampler.chains must be an integer, got None"),
]


@pytest.mark.parametrize("keys, refusal", MALFORMED_CONFIGS)
def test_malformed_config_value_exit_code(tmp_path, capsys, keys, refusal):
    (tmp_path / "fc.json").write_text(json.dumps({"b1": POISSON, "b2": POISSON,
                                                  "agg2_1": POISSON}))
    cfg = write_config(tmp_path / "cfg.json", **{"hierarchy": H2_CONFIG,
                                                 "method": "probCount_exact",
                                                 "forecasts": "fc.json", "output_dir": "out",
                                                 **keys})
    assert main(["reconcile", "--config", str(cfg), "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: {refusal}\n"


RECONCILE_ERRORS = [  # (method, entries in place of the method's own, exit code, refusal)
    ("probCount_exact", {"b1": {"samples": []}}, 1,
     "series 's1': node 'b1': need at least one sample"),
    ("normal", {"b1": {"samples": [1.0]}}, 1,
     "series 's1': node 'b1': need at least 2 samples, got 1"),
    ("probCount_exact", {"b2": None}, 1,
     "series 's1': count reconciliation needs bottom forecast 'b2'"),
    ("probCount_exact", {"agg2_1": {"dist": "tabulated", "probs": [0.0] * 60 + [1.0]}}, 1,
     "series 's1': evidence for upper node 0 has no mass on reachable sums"),
    ("probCount_exact", {"b1": {"dist": "poisson", "lambda": 2e5},
                         "b2": {"dist": "poisson", "lambda": 2e5}}, 1,
     "series 's1': the table at bottom 'b2' would hold 1.29e+09 elements (cap 10000000); "
     "use reconcile_mcmc instead"),
    # b1 + b2 = 30 only: neither the medians (0, 0) nor a neighbour gets there
    ("probCount_mcmc", {"agg2_1": {"dist": "tabulated", "probs": [0.0] * 30 + [1.0]}}, 1,
     "series 's1': the capped bottom medians and their neighbours all have zero target "
     "probability; no chain can start"),
    ("probCount_exact", {"b1": {"dist": "tabulated", "probs": [0.5, 0.4]}}, 2,
     "series 's1': node 'b1': probabilities must sum to 1 within 1e-12, got 0.9"),
]


@pytest.mark.parametrize("method, entries, code, refusal", RECONCILE_ERRORS)
def test_errors_while_reconciling_name_the_series(tmp_path, capsys, method, entries, code,
                                                  refusal):
    entry = GAUSSIAN if method == "normal" else POISSON
    forecasts = {label: entries.get(label, entry) for label in ("b1", "b2", "agg2_1")}
    forecasts = {label: entry for label, entry in forecasts.items() if entry is not None}
    (tmp_path / "fc.json").write_text(json.dumps({"s1": forecasts}))
    cfg = write_config(tmp_path / "cfg.json", hierarchy=H2_CONFIG, method=method,
                       forecasts="fc.json", output_dir="out",
                       sampler={"chains": 2, "draws": 1, "thin": 1, "burn_in": 0, "seed": 1})
    assert main(["reconcile", "--config", str(cfg), "--quiet"]) == code
    assert capsys.readouterr().err == f"error: {refusal}\n"


@pytest.mark.filterwarnings("ignore::reconc.errors.ConvergenceWarning")  # short chains
def test_sampled_marginals_hold_no_mass_where_the_evidence_has_none(tmp_path):
    # the medians (1, 1) sum to 2, where agg2_1 has no mass; at no burn-in
    # and thin 1 a chain's first state is a draw
    bottom = {"dist": "tabulated", "probs": [0.1, 0.8, 0.1]}
    (tmp_path / "fc.json").write_text(json.dumps({"s1": {
        "b1": bottom, "b2": bottom, "agg2_1": {"dist": "tabulated",
                                               "probs": [0.0, 0.0, 0.0, 0.6, 0.4]}}}))
    cfg = write_config(tmp_path / "cfg.json", hierarchy=H2_CONFIG, method="probCount_mcmc",
                       forecasts="fc.json", output_dir="out",
                       sampler={"chains": 4, "draws": 200, "thin": 1, "burn_in": 0, "seed": 0})
    assert main(["reconcile", "--config", str(cfg), "--quiet"]) == 0
    summaries = json.loads((tmp_path / "out" / "summaries.json").read_text())
    probs = summaries["s1"]["nodes"]["agg2_1"]["marginal"]["probs"]
    assert probs[:3] == [0.0, 0.0, 0.0]


OBS_ROWS = "".join(f"s1,{t},{t % 3}\n" for t in range(6))


@pytest.mark.parametrize("body, where", [
    ("series_id,t,value\ns1,0,2.5\n" + OBS_ROWS, "line 2, column 'value': expected an "
                                                  "integer, got '2.5'"),
    ("series_id,t,value\n" + OBS_ROWS + "s1,6,\n", "line 8, column 'value': expected an "
                                                    "integer, got ''"),
    ("series_id,t,value\n" + OBS_ROWS + "s1,x,1\n", "line 8, column 't': expected an "
                                                     "integer, got 'x'"),
    ("series_id,t\n" + OBS_ROWS, "line 1: no 'value' column in the header ['series_id', 't']"),
], ids=["fractional_value", "empty_value", "non_integer_t", "no_value_column"])
def test_malformed_observation_exit_code(tmp_path, capsys, body, where):
    (tmp_path / "obs.csv").write_text(body)
    cfg = write_config(tmp_path / "cfg.json", hierarchy=H2_CONFIG, method="normal",
                       output_dir="out")
    assert main(["reconcile", "--config", str(cfg), "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'obs.csv'}, {where}\n"


def test_observations_with_a_byte_order_mark_read_as_without(tmp_path, capsys):
    text = "series_id,t,value\n" + OBS_ROWS
    (tmp_path / "obs.csv").write_text(text, encoding="utf-8")
    (tmp_path / "bom.csv").write_text("\ufeff" + text, encoding="utf-8")
    assert (tmp_path / "bom.csv").read_bytes().startswith(b"\xef\xbb\xbf")
    for name, obs in (("plain", "obs.csv"), ("bom", "bom.csv")):
        cfg = write_config(tmp_path / f"{name}.json", hierarchy=H2_CONFIG, method="normal",
                           observations=obs, output_dir=name)
        assert main(["reconcile", "--config", str(cfg), "--quiet"]) == 0
    assert ((tmp_path / "bom" / "summaries.json").read_bytes()
            == (tmp_path / "plain" / "summaries.json").read_bytes())


def test_observation_gap_exit_code(tmp_path, capsys):
    (tmp_path / "obs.csv").write_text(
        "series_id,t,value\n" + "".join(f"s1,{t},1\n" for t in (0, 1, 5, 5)))
    cfg = write_config(tmp_path / "cfg.json",
                       hierarchy={"bottom_period_count": 2, "factors": [2]},
                       method="normal", output_dir="out")
    assert main(["reconcile", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'s1'" in err and "t=5" in err


def test_demo_command(tmp_path, capsys):
    assert main(["demo", "minimal_table2", "--out", str(tmp_path / "d"), "--quiet"]) == 0
    assert (tmp_path / "d" / "checks.json").exists()


def test_env_seed_reaches_demo(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RECONC_SEED", "123")
    assert main(["demo", "minimal_table2", "--out", str(tmp_path / "d")]) == 0
    assert "seed 123" in capsys.readouterr().out


@pytest.mark.parametrize("args, env, message", [
    (["--seed", "-2"], None, "seed must be >= 0, got -2"),
    ([], "-1", "RECONC_SEED must be >= 0, got -1"),
    ([], "abc", "RECONC_SEED must be an integer, got 'abc'"),
])
def test_demo_refuses_a_bad_seed_by_name(tmp_path, monkeypatch, capsys, args, env, message):
    if env is not None:
        monkeypatch.setenv("RECONC_SEED", env)
    out = tmp_path / "d"
    assert main(["demo", "poisson_table3", "--out", str(out), "--quiet", *args]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "reconc.cli", "hierarchy", "--bottom", "2", "--factors", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1:] == ["1 1", "1 0", "0 1"]


def test_cli_import_leaves_scipy_stats_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, reconc.cli; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_process_pools_unloaded():
    # reconcile_mcmc imports them when it starts its chain workers
    modules = ["multiprocessing", "concurrent.futures.process"]
    code = f"import sys, reconc.cli; print([m in sys.modules for m in {modules}])"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False]"


@pytest.mark.parametrize("entry, key", [
    ({"dist": "poisson", "lambda": 2, "lamda": 3}, "lamda"),
    ({"dist": "negbin", "r": 2, "p": 0.5, "lambda": 1}, "lambda"),
    ({"samples": [1, 2], "dist": "poisson"}, "dist"),
])
def test_unknown_forecast_entry_key_exit_code(tmp_path, capsys, entry, key):
    (tmp_path / "fc.json").write_text(json.dumps({"s1": {"b1": entry, "b2": POISSON,
                                                         "agg2_1": POISSON}}))
    cfg = write_config(tmp_path / "cfg.json", hierarchy=H2_CONFIG, method="probCount_exact",
                       forecasts="fc.json", output_dir="out")
    assert main(["reconcile", "--config", str(cfg), "--quiet"]) == 2
    assert capsys.readouterr().err == (f"error: series 's1': node 'b1': unknown forecast entry "
                                       f"key(s) [{key!r}]\n")


@pytest.mark.parametrize("h_file, refusal", [
    ({"A": [[1.5, 1.0]]}, "A[0][0] must be an integer, got 1.5"),
    ({"m": 2.5, "A": [[1, 1]]}, "m must be an integer, got 2.5"),
    ({"m": "2", "A": [[1, 1]]}, "m must be an integer, got '2'"),
    ({"A": [[1, True]]}, "A[0][1] must be an integer, got True"),
    ({"labels": [1, 2, 3], "A": [[1, 1]]}, "labels[0] must be a string, got 1"),
    ({"labels": ["u1", "b1", "b1"], "A": [[1, 1]]},
     "hierarchy file labels must be distinct, got ['u1', 'b1', 'b1']"),
])
def test_malformed_hierarchy_file_exit_code(tmp_path, capsys, h_file, refusal):
    (tmp_path / "h.json").write_text(json.dumps(h_file))
    (tmp_path / "fc.json").write_text(json.dumps({"b1": POISSON, "b2": POISSON, "u1": POISSON}))
    cfg = write_config(tmp_path / "cfg.json", hierarchy={"a_matrix_file": "h.json"},
                       method="probCount_exact", forecasts="fc.json", output_dir="out")
    assert main(["reconcile", "--config", str(cfg), "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: {refusal}\n"


@pytest.mark.parametrize("name, first", [
    ("cfg.json", '"method": "normal"'),
    ("fc.json", '"b1": {"dist": "poisson", "lambda": 9.0}'),
    ("h.json", '"A": [[1, 0]]'),
], ids=["config", "forecasts", "hierarchy"])
def test_json_inputs_refuse_a_repeated_key(tmp_path, capsys, name, first):
    # `json` alone would keep the second value and reconcile with it
    (tmp_path / "h.json").write_text(json.dumps({"A": [[1, 1]]}))
    (tmp_path / "fc.json").write_text(json.dumps({"b1": POISSON, "b2": POISSON, "u1": POISSON}))
    cfg = write_config(tmp_path / "cfg.json", hierarchy={"a_matrix_file": "h.json"},
                       method="probCount_exact", forecasts="fc.json", output_dir="out")
    path = tmp_path / name
    path.write_text("{" + first + ", " + path.read_text()[1:])
    assert main(["reconcile", "--config", str(cfg), "--quiet"]) == 2
    key = first.split('"')[1]
    assert capsys.readouterr().err == f"error: {path}: repeated key {key!r}\n"


def test_json_inputs_with_a_byte_order_mark_read_as_without(tmp_path, capsys):
    (tmp_path / "h.json").write_text("\ufeff" + json.dumps({"A": [[1, 1]]}), encoding="utf-8")
    fc = json.dumps({"b1": POISSON, "b2": POISSON, "u1": POISSON})
    (tmp_path / "fc.json").write_text("\ufeff" + fc, encoding="utf-8")
    for name, bom in (("plain", ""), ("bom", "\ufeff")):
        cfg = write_config(tmp_path / f"{name}.json", hierarchy={"a_matrix_file": "h.json"},
                           method="probCount_exact", forecasts="fc.json", output_dir=name)
        cfg.write_text(bom + cfg.read_text(), encoding="utf-8")
        assert main(["reconcile", "--config", str(cfg), "--quiet"]) == 0
    assert ((tmp_path / "bom" / "summaries.json").read_bytes()
            == (tmp_path / "plain" / "summaries.json").read_bytes())
