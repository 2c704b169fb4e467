"""Tests for the command-line interface."""

import json
import math
import subprocess
import sys

import pytest

from helpers import write_config, write_synthetic_observations
from reconc.cli import main


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


def test_quiet_suppresses_tables(tmp_path, capsys):
    write_synthetic_observations(tmp_path / "obs.csv")
    rec_cfg = write_config(tmp_path / "rec.json", method="normal", output_dir="out_n")
    assert main(["reconcile", "--config", str(rec_cfg), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_missing_config_exit_code(capsys):
    assert main(["reconcile", "--config", "/nonexistent/cfg.json"]) == 2
    assert "error" in capsys.readouterr().err


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
