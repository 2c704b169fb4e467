"""Workload definitions and the seeded input generator.

A run is a closed loop of rounds. Each round generates one batch of series,
reconciles it with every method of the workload (one `run_reconcile` call
per method) and then scores the batch (one `run_score` call). Every file the
library reads is written here from the workload seed and the round index.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MONTHLY = {"bottom_period_count": 12, "factors": [2, 3, 4, 6, 12]}
M6 = {"bottom_period_count": 6, "factors": [2, 3, 6]}

#: series kinds of the synthetic mix in tests/helpers.write_synthetic_observations
KINDS = ("sparse_a", "sparse_b", "bursty")

#: history length of every generated series, in bottom periods (4 years of months)
N_PERIODS = 48

#: per-period mean of each kind under its generating model
KIND_MEAN = {"sparse_a": 0.6, "sparse_b": 1.2 * 0.55, "bursty": 0.8 * 0.65 / 0.35}

#: the paper's sampler settings (4 chains x 10k kept draws, thin 10)
SAMPLER = {"chains": 4, "draws": 10_000, "thin": 10}
SCORING = {"alpha": 0.1, "es_batch": 1000, "baseline": "normal"}


def draw_series(kind: str, rng: np.random.Generator, n: int) -> np.ndarray:
    """One history of `n` periods from the generating model of `kind`."""
    if kind == "sparse_a":
        return rng.poisson(0.6, size=n)
    if kind == "sparse_b":
        return rng.poisson(1.2, size=n) * rng.binomial(1, 0.55, size=n)
    if kind == "bursty":
        return rng.negative_binomial(0.8, 0.35, size=n)
    raise ValueError(f"unknown series kind {kind!r}")


def mase_defined(wl: "Workload", values: np.ndarray) -> bool:
    """True if the training block varies at every level of the hierarchy.

    MASE scales by the mean absolute first difference of the training block
    at each level; on a constant block `scoring.mase` has no scale and
    raises `UndefinedScale`, which aborts `run_score` for the whole batch.
    """
    train = values[:-wl.test_length]
    for factor in (1, *wl.hierarchy["factors"]):
        usable = len(train) // factor * factor
        sums = train[len(train) - usable:].reshape(-1, factor).sum(axis=1)
        if sums.min() == sums.max():
            return False
    return True


@dataclass(frozen=True)
class Workload:
    name: str
    hierarchy: dict
    methods: tuple[str, ...]
    #: series per round; also the batch size of one run_score call
    batch: int
    #: kinds cycled over the series of a run, in generation order
    kinds: tuple[str, ...]
    #: False: the library's builtin forecaster; True: a generated forecast
    #: file with bottoms at the kind's generating mean and uppers at the
    #: training mean of their level
    oracle_bottoms: bool = False
    #: redraw a series on which MASE has no scale (see `mase_defined`);
    #: False keeps every draw, so the abort of `run_score` on such a series
    #: (a known defect) shows as failed operations
    redraw_undefined_mase: bool = True

    @property
    def test_length(self) -> int:
        return self.hierarchy["bottom_period_count"]

    def sizes(self) -> dict:
        from reconc.hierarchy import build_temporal_hierarchy

        h = build_temporal_hierarchy(self.hierarchy["bottom_period_count"],
                                     self.hierarchy["factors"])
        return {
            "batch": self.batch, "m": h.m, "n": h.n,
            "periods": N_PERIODS, "test_length": self.test_length, **SAMPLER,
            "es_batch": SCORING["es_batch"], "methods": list(self.methods),
            "kinds": list(self.kinds), "oracle_bottoms": self.oracle_bottoms,
            "redraw_undefined_mase": self.redraw_undefined_mase,
        }


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="mcmc_monthly",
            hierarchy=MONTHLY,
            methods=("probCount_mcmc", "normal", "truncated", "base"),
            batch=1,
            kinds=KINDS,
        ),
        Workload(
            name="exact_m6",
            hierarchy=M6,
            methods=("probCount_exact", "normal"),
            batch=1,
            kinds=("sparse_a",),
            oracle_bottoms=True,
        ),
        Workload(
            name="score_wide",
            hierarchy=MONTHLY,
            methods=("normal", "structural_scaling", "base"),
            batch=10,
            kinds=KINDS,
            redraw_undefined_mase=False,
        ),
    )
}


@dataclass
class RoundInputs:
    series: list[str]
    method_configs: dict[str, Path]
    score_config: Path
    method_dirs: dict[str, Path]
    score_dir: Path
    sampler_seed: int
    #: series redrawn because MASE had no scale on the first draw
    redrawn: int


def round_seed(seed: int, round_index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, round_index])


def write_round(wl: Workload, seed: int, round_index: int, rdir: Path) -> RoundInputs:
    """Generate one batch of series and write observations, forecasts and configs."""
    rdir.mkdir(parents=True, exist_ok=True)
    ss = round_seed(seed, round_index)
    data_rng = np.random.default_rng(ss)
    sampler_seed = int(ss.generate_state(1)[0])

    series, kinds = {}, {}
    redrawn = 0
    for j in range(wl.batch):
        kind = wl.kinds[(round_index * wl.batch + j) % len(wl.kinds)]
        sid = f"{kind}_r{round_index:03d}_{j:03d}"
        values = draw_series(kind, data_rng, N_PERIODS)
        while wl.redraw_undefined_mase and not mase_defined(wl, values):
            values = draw_series(kind, data_rng, N_PERIODS)  # from the same stream
            redrawn += 1
        series[sid] = values
        kinds[sid] = kind
    with open(rdir / "obs.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series_id", "t", "value"])
        for sid, values in series.items():
            writer.writerows((sid, t, int(v)) for t, v in enumerate(values))

    if wl.oracle_bottoms:
        forecasts = {sid: _oracle_bottom_forecasts(wl, kinds[sid], values)
                     for sid, values in series.items()}
        (rdir / "forecasts.json").write_text(json.dumps(forecasts))
        forecast_source = "forecasts.json"
    else:
        forecast_source = "builtin:empirical_poisson"

    base = {
        "hierarchy": wl.hierarchy,
        "observations": "obs.csv",
        "forecasts": forecast_source,
        "test_length": wl.test_length,
        "sampler": dict(SAMPLER, seed=sampler_seed),
        "scoring": SCORING,
    }
    method_configs, method_dirs = {}, {}
    for method in wl.methods:
        cfg = dict(base, method=method, output_dir=f"out_{method}")
        path = rdir / f"cfg_{method}.json"
        path.write_text(json.dumps(cfg))
        method_configs[method] = path
        method_dirs[method] = rdir / f"out_{method}"
    score_cfg = dict(base, methods={m: f"out_{m}" for m in wl.methods},
                     output_dir="out_scores")
    score_path = rdir / "cfg_score.json"
    score_path.write_text(json.dumps(score_cfg))
    return RoundInputs(sorted(series), method_configs, score_path, method_dirs,
                       rdir / "out_scores", sampler_seed, redrawn)


def _oracle_bottom_forecasts(wl: Workload, kind: str, values: np.ndarray) -> dict:
    """Poisson forecasts: bottoms at the generating mean, uppers at training means.

    Fixing the bottom rate fixes the exact grid (10 cells per bottom for the
    sparse Poisson kind, so 1e6 cells on the 6-bottom hierarchy), which keeps
    the work per series the same on every seed; the upper evidence still
    comes from the data, as in the library's builtin forecaster.
    """
    from reconc.hierarchy import build_temporal_hierarchy

    h = build_temporal_hierarchy(wl.hierarchy["bottom_period_count"], wl.hierarchy["factors"])
    train = values[:-wl.test_length]
    labels = iter(h.node_labels)
    out = {}
    for _, count, factor in h.level_sizes:
        usable = len(train) // factor * factor
        rate = float(train[len(train) - usable:].reshape(-1, factor).sum(axis=1).mean())
        for _ in range(count):
            out[next(labels)] = {"dist": "poisson", "lambda": rate}
    for label in h.bottom_labels:
        out[label] = {"dist": "poisson", "lambda": KIND_MEAN[kind]}
    return out
