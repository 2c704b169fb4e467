"""Correctness checks on the files and reports the library produced.

Each function returns a list of problems (empty when the output is correct).
A problem fails the operation it belongs to and marks the run incorrect.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

#: tolerance on coherence of real-valued means and on pmf totals
TOL = 1e-9
RHAT_MAX = 1.1
SKILL_RANGE = (-2.0, 2.0)


def summary_problems(h, method: str, record: dict, method_dir: Path) -> list[str]:
    """Checks on one series' reconciled summary (and its draws, if stored)."""
    problems = []
    nodes = record["nodes"]
    for label in h.node_labels:
        node = nodes[label]
        lo, hi = node["interval"]
        if not lo <= node["median"] <= hi:
            problems.append(f"{label}: interval [{lo}, {hi}] misses median {node['median']}")
        marginal = node["marginal"]
        if marginal["dist"] == "tabulated" and abs(math.fsum(marginal["probs"]) - 1.0) > TOL:
            problems.append(f"{label}: pmf sums to {math.fsum(marginal['probs'])!r}")

    if method != "base":  # base forecasts are incoherent by construction
        means = np.array([nodes[label]["mean"] for label in h.node_labels])
        upper, bottom = means[: h.n_upper], means[h.n_upper:]
        implied = h.a_matrix @ bottom
        if not np.allclose(upper, implied, rtol=TOL, atol=TOL):
            worst = float(np.abs(upper - implied).max())
            problems.append(f"upper means differ from A @ bottom means by {worst:.3g}")

    if "samples_file" in record:
        # draws: each upper marginal must count A[i] @ draw over the stored draws exactly
        draws = np.loadtxt(method_dir / record["samples_file"], delimiter=",", skiprows=1,
                           dtype=np.int64, ndmin=2)
        for i, label in enumerate(h.upper_labels):
            counts = np.bincount(draws @ h.a_matrix[i])
            probs = np.asarray(nodes[label]["marginal"]["probs"], dtype=float)
            if probs.size != counts.size or not np.array_equal(
                    np.rint(probs * len(draws)).astype(np.int64), counts):
                problems.append(f"{label}: marginal does not match the stored draws")

    rhat = np.asarray(record.get("diagnostics", {}).get("rhat", []), dtype=float)
    if np.isfinite(rhat).any() and np.nanmax(rhat) > RHAT_MAX:
        problems.append(f"split R-hat {np.nanmax(rhat):.3f} above {RHAT_MAX}")
    return problems


def score_problems(report, series: list[str]) -> tuple[dict[str, list[str]], list[str]]:
    """Per-series problems in the score rows, and batch-wide problems in the skills."""
    per_series: dict[str, list[str]] = {sid: [] for sid in series}
    seen = set()
    for row in report.rows:
        seen.add(row["series"])
        if not math.isfinite(row["value"]):
            per_series[row["series"]].append(
                f"{row['metric']}/{row['level']}/{row['method']} is {row['value']}")
    for sid in series:
        if sid not in seen:
            per_series[sid].append("no score rows")
    batch = []
    lo, hi = SKILL_RANGE
    for row in report.skill_rows:
        if not (math.isfinite(row["skill"]) and lo <= row["skill"] <= hi):
            batch.append(f"skill {row['metric']}/{row['level']}/{row['method']} = {row['skill']}")
    return per_series, batch
