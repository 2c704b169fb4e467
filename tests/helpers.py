"""Shared fixtures for the pipeline tests: synthetic data, configs and a stored-joint reader."""

import csv
import json
import math
from pathlib import Path

import numpy as np

from reconc import harness, mint, schema
from reconc.conditioning import BaseForecastSet, CountJoint, SamplerDiagnostics
from reconc.distributions import Poisson
from reconc.hierarchy import build_temporal_hierarchy

MONTHLY = {"bottom_period_count": 12, "factors": [2, 3, 4, 6, 12]}

MINIMAL = build_temporal_hierarchy(2, [2])
H421 = build_temporal_hierarchy(4, [2, 4])

# ground-truth moments for Poisson bottoms (2, 4) conditioned on an
# aggregate Poisson(9) evidence, from 50-digit enumeration over 0..80^2
GROUND_TRUTH = {
    "means": {"b1": 2.3646303986, "b2": 4.7292607972, "agg2_1": 7.0938911958},
    "vars": {"b1": 1.9849433438, "b2": 3.2105125780, "agg2_1": 3.6767077026},
}


def poisson_249():
    """The worked example: Poisson(2), Poisson(4) bottoms and Poisson(9) evidence."""
    return BaseForecastSet([Poisson(2.0), Poisson(4.0)], [Poisson(9.0)])


def synthetic_series(n_years: int = 4, seed: int = 0) -> dict[str, np.ndarray]:
    """Seeded intermittent monthly count series (sparse Poisson plus one NB-ish mix)."""
    rng = np.random.default_rng(seed)
    t_len = 12 * n_years
    return {
        "sparse_a": rng.poisson(0.6, size=t_len),
        "sparse_b": rng.poisson(1.2, size=t_len) * rng.binomial(1, 0.55, size=t_len),
        "bursty": rng.negative_binomial(0.8, 0.35, size=t_len),
    }


def write_synthetic_observations(path: Path, n_years: int = 4, seed: int = 0) -> list[str]:
    """The `synthetic_series` as an observations CSV; returns the series ids."""
    series = synthetic_series(n_years, seed)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series_id", "t", "value"])
        for sid, values in series.items():
            for t, v in enumerate(values):
                writer.writerow([sid, t, int(v)])
    return sorted(series)


def monthly_case(kind: str, seed: int = 0, evidence_scale: float = 1.0):
    """(hierarchy, base forecasts) of one `synthetic_series` kind on the MONTHLY hierarchy.

    The forecasts are those the builtin forecaster makes for `reconc reconcile`
    (test window of 12 months), with every upper rate times `evidence_scale`.
    """
    h = build_temporal_hierarchy(MONTHLY["bottom_period_count"], MONTHLY["factors"])
    entries = harness.empirical_poisson_forecasts(synthetic_series(seed=seed)[kind][:-h.m], h)
    for label in h.upper_labels:
        entries[label]["lambda"] *= evidence_scale
    return h, harness._count_forecast_set(h, entries)


def write_config(path: Path, **overrides) -> Path:
    cfg = {
        "hierarchy": MONTHLY,
        "observations": "obs.csv",
        "forecasts": harness.BUILTIN_FORECASTER,
        "sampler": {"chains": 2, "draws": 400, "thin": 5, "seed": 1},
        "scoring": {"alpha": 0.1, "baseline": "normal"},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def run_benchmark(tmp_path: Path, methods=("probCount_mcmc", "normal", "base")):
    """Reconcile the synthetic dataset with several methods, then score."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    obs = tmp_path / "obs.csv"
    write_synthetic_observations(obs)
    method_dirs = {}
    for method in methods:
        cfg_path = write_config(
            tmp_path / f"cfg_{method}.json", method=method, output_dir=f"out_{method}",
        )
        out = harness.run_reconcile(harness.load_config(cfg_path), quiet=True)
        method_dirs[method] = str(out)
    score_cfg = write_config(
        tmp_path / "cfg_score.json", methods=method_dirs, output_dir="out_scores",
    )
    return harness.run_score(harness.load_config(score_cfg), quiet=True)


def sampler_diagnostics_from_dict(d: dict) -> SamplerDiagnostics:
    """Inverse of SamplerDiagnostics.to_dict; the chain count is that of the acceptance rates.

    A record written before the cap share was kept reads back with NaN.
    """
    rates = np.asarray(d["acceptance_rates"], dtype=float)
    return SamplerDiagnostics(rates, np.asarray(d["rhat"], dtype=float), n_chains=len(rates),
                              n_kept=d["n_kept"], burn_in=d["burn_in"], thin=d["thin"],
                              cap_share=d.get("cap_share", math.nan))


def read_artifact(record: dict, method_dir: Path):
    """The joint that `harness.run_reconcile` stored for one series record (None if none was).

    An exact joint's atoms come back as int64, whatever their stored dtype.
    """
    diagnostics = record.get("diagnostics")
    if "samples_file" in record:
        draws = np.loadtxt(method_dir / record["samples_file"], delimiter=",", skiprows=1,
                           dtype=np.int64, ndmin=2)
        return CountJoint.from_draws(
            draws, sampler_diagnostics_from_dict(diagnostics) if diagnostics is not None else None)
    if "joint_file" not in record:
        return None
    with np.load(method_dir / record["joint_file"]) as arrays:
        if record["method"] != "probCount_exact":
            return mint.GaussianReconciled(**arrays)
        return CountJoint(arrays["bottom_support"].astype(np.int64), arrays["probabilities"])


def key_paths(table, prefix: str = "") -> dict[str, "schema.Row"]:
    """Every key path of an input table, dotted as the config's refusals name it, to its row."""
    out = {}
    objects = table.forms.values() if isinstance(table, schema.Forms) else [table]
    for obj in objects:
        for row in obj.rows:
            out[prefix + row.key] = row
            if isinstance(row.kind, schema.Object):
                out.update(key_paths(row.kind, f"{prefix}{row.key}."))
    return out
