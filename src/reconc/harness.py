"""Experiment orchestration: configs, file formats, pipelines and demos.

The reconcile pipeline reads base forecasts (JSON, per node label), runs one
reconciliation method and writes per-node summaries plus the reconciled
joint. The score pipeline evaluates one or more reconciled output
directories against observed series and reports MASE/RPS/MIS/energy score
together with skill scores against a baseline method.
"""

from __future__ import annotations

import csv
import io
import json
import os
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
from scipy import special

from . import conditioning, mint, scoring
from .conditioning import (
    BaseForecastSet,
    CountJoint,
    MarginalSummary,
    SamplerDiagnostics,
    TrimDiagnostics,
    summarize,
)
from .distributions import (
    GaussianForecast,
    Poisson,
    Tabulated,
    count_pmf_from_dict,
    gaussian_from_dict,
)
from .errors import (
    DuplicateLevel,
    InvalidAggregation,
    MissingActuals,
    MissingForecast,
    ObservationGap,
    SeriesTooShort,
    UndefinedScale,
    UndefinedSkill,
)
from .hierarchy import Hierarchy, aggregate, build_temporal_hierarchy
from .scoring import ScoreReport

METHODS = ("probCount_exact", "probCount_mcmc", "normal", "structural_scaling",
           "truncated", "base")
STOCHASTIC_METHODS = ("probCount_mcmc", "truncated")

#: spec of the built-in demo forecaster: one Poisson per node, rate equal to
#: the training mean of the node's aggregation level
BUILTIN_FORECASTER = "builtin:empirical_poisson"


@dataclass
class SamplerSettings:
    chains: int = 4
    draws: int = 10_000
    burn_in: int | None = None
    thin: int = 10
    seed: int | None = None


@dataclass
class ScoringSettings:
    alpha: float = 0.1
    baseline: str = "normal"


@dataclass
class ExperimentConfig:
    hierarchy: Hierarchy
    method: str | None = None
    forecasts: str | None = None
    observations: str | None = None
    test_length: int | None = None
    output_dir: str = "out"
    sampler: SamplerSettings = field(default_factory=SamplerSettings)
    scoring: ScoringSettings = field(default_factory=ScoringSettings)
    methods: dict[str, str] = field(default_factory=dict)
    base_dir: Path = field(default_factory=Path)

    def resolve(self, path_str: str) -> Path:
        return self.base_dir / path_str  # an absolute path replaces base_dir


def _hierarchy_from_config(section: dict, base_dir: Path) -> Hierarchy:
    has_temporal = "bottom_period_count" in section
    has_file = "a_matrix_file" in section
    if has_temporal == has_file:
        raise ValueError(
            "hierarchy needs exactly one source: bottom_period_count+factors "
            "or a_matrix_file"
        )
    if has_temporal:
        return build_temporal_hierarchy(section["bottom_period_count"], section["factors"])
    return Hierarchy.from_json((base_dir / section["a_matrix_file"]).read_text())


def _integer(key: str, value, minimum: int | None = None):
    """`value` checked by name: None, or an int (not a bool) of at least `minimum`."""
    if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    if value is not None and minimum is not None and value < minimum:
        raise ValueError(f"{key} must be >= {minimum}, got {value}")
    return value


def _env_seed() -> int | None:
    """RECONC_SEED checked as a seed; None where it is unset."""
    text = os.environ.get("RECONC_SEED")
    try:
        value = int(text) if text is not None else None
    except ValueError:
        value = text  # refused by name
    return _integer("RECONC_SEED", value, minimum=0)


def load_config(path) -> ExperimentConfig:
    """Parse an experiment config JSON file.

    `test_length` and the `sampler` counts and seed must be JSON integers.
    The RECONC_SEED environment variable overrides the sampler seed; it and
    the sampler seed must be non-negative integers. A seed is mandatory
    whenever a stochastic method (probCount_mcmc, truncated) is selected.
    The `scoring` keys `es_batch` and `seed` of older configs are ignored
    with one DeprecationWarning each; any other unknown key is refused.
    """
    path = Path(path)
    raw = json.loads(path.read_text())
    unknown = set(raw) - {f.name for f in fields(ExperimentConfig)} - {"base_dir"}
    if unknown:
        raise ValueError(f"unknown config key(s) {sorted(unknown)}")
    base_dir = path.parent
    h = _hierarchy_from_config(raw["hierarchy"], base_dir)

    sampler = SamplerSettings(**raw.get("sampler", {}))
    scoring_raw = dict(raw.get("scoring", {}))
    for key in ("es_batch", "seed"):
        if key in scoring_raw:
            del scoring_raw[key]
            warnings.warn(f"scoring.{key} is deprecated and ignored: the energy score "
                          "is computed in closed form", DeprecationWarning, stacklevel=2)
    scoring_cfg = ScoringSettings(**scoring_raw)
    test_length = _integer("test_length", raw.get("test_length"), minimum=1)
    for key, value in vars(sampler).items():
        _integer(f"sampler.{key}", value, minimum=0 if key == "seed" else None)
    if not 0 < scoring_cfg.alpha < 1:
        raise ValueError(f"scoring.alpha must be in (0, 1), got {scoring_cfg.alpha}")
    env_seed = _env_seed()
    if env_seed is not None:
        sampler.seed = env_seed

    method = raw.get("method")
    if method is not None and method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if method in STOCHASTIC_METHODS and sampler.seed is None:
        raise ValueError(f"method {method!r} is stochastic: a sampler seed is mandatory")

    return ExperimentConfig(
        hierarchy=h,
        method=method,
        forecasts=raw.get("forecasts"),
        observations=raw.get("observations"),
        test_length=test_length,
        output_dir=raw.get("output_dir", "out"),
        sampler=sampler,
        scoring=scoring_cfg,
        methods=raw.get("methods", {}),
        base_dir=base_dir,
    )


# ---------------------------------------------------------------------------
# observations and temporal aggregation

def _check_series_id(sid: str):
    if not sid or any(c in sid for c in "/\\\0"):
        raise ValueError(f"series id {sid!r} is empty or not filename-safe")


def read_observations(path) -> dict[str, np.ndarray]:
    """Read a series_id,t,value CSV into per-series integer arrays.

    Raises:
        ObservationGap: a series' sorted times skip or repeat a period.
    """
    rows: dict[str, list[tuple[int, int]]] = {}
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            rows.setdefault(rec["series_id"], []).append((int(rec["t"]), int(rec["value"])))
    out = {}
    for sid, pairs in rows.items():
        _check_series_id(sid)
        pairs.sort()
        times = np.array([t for t, _ in pairs])
        breaks = np.nonzero(np.diff(times) != 1)[0]
        if breaks.size:
            i = breaks[0]
            raise ObservationGap(f"series {sid!r} has t={times[i + 1]} after t={times[i]}; "
                                 "observation times must be consecutive")
        values = np.array([v for _, v in pairs], dtype=np.int64)
        if (values < 0).any():
            raise ValueError(f"series {sid!r} has negative observations")
        out[sid] = values
    return out


def node_levels(h: Hierarchy) -> list[tuple[str, int]]:
    """Per node, in node order: (level name, 1-based horizon within level)."""
    out = []
    for name, count, _ in h.level_sizes:
        out.extend((name, i + 1) for i in range(count))
    return out


def temporal_aggregate(values, h: Hierarchy) -> dict[str, np.ndarray]:
    """Non-overlapping block sums of a bottom series, one array per level.

    Blocks are aligned so the final block ends at the last observation; any
    remainder is trimmed from the front of the series.

    Raises:
        InvalidAggregation: h is not the temporal hierarchy of its own level
            factors, so its upper nodes are not such blocks.
    """
    factors = [factor for _, _, factor in h.level_sizes[:-1]]
    try:
        temporal = build_temporal_hierarchy(h.m, factors).a_matrix
    except (InvalidAggregation, DuplicateLevel):
        temporal = None
    if temporal is None or not np.array_equal(h.a_matrix, temporal):
        raise InvalidAggregation("the hierarchy is not temporal: its upper nodes are not "
                                 f"aligned blocks of consecutive periods (factors {factors})")
    values = np.asarray(values, dtype=np.int64)
    out = {}
    for name, _, factor in h.level_sizes:
        usable = (len(values) // factor) * factor
        if usable == 0:
            raise SeriesTooShort(
                f"series of length {len(values)} has no complete block at level "
                f"{name} (factor {factor})"
            )
        out[name] = values[len(values) - usable:].reshape(-1, factor).sum(axis=1)
    return out


def empirical_poisson_forecasts(train_values, h: Hierarchy) -> dict[str, dict]:
    """Demo forecaster: Poisson per node with the level's training mean."""
    level_series = temporal_aggregate(train_values, h)
    out = {}
    for label, (level, _) in zip(h.node_labels, node_levels(h)):
        out[label] = {"dist": "poisson", "lambda": float(level_series[level].mean())}
    return out


# ---------------------------------------------------------------------------
# forecast files

def read_forecasts(path) -> dict[str, dict[str, dict]]:
    """Read a forecast JSON file, normalized to {series: {label: entry}}."""
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict) or not raw:
        raise ValueError("forecast file must be a non-empty JSON object")
    flat = all(isinstance(v, dict) and ("dist" in v or "samples" in v) for v in raw.values())
    out = {"series": raw} if flat else raw
    for sid in out:
        _check_series_id(sid)
    return out


def _count_forecast_set(h: Hierarchy, entries: dict[str, dict]) -> BaseForecastSet:
    bottom = []
    for label in h.bottom_labels:
        if label not in entries:
            raise MissingForecast(f"count reconciliation needs bottom forecast {label!r}")
        bottom.append(count_pmf_from_dict(entries[label]))
    upper = [count_pmf_from_dict(entries[label]) if label in entries else None
             for label in h.upper_labels]
    return BaseForecastSet(bottom, upper)


def _gaussian_forecasts(h: Hierarchy, entries: dict[str, dict]) -> list[GaussianForecast]:
    out = []
    for label in h.node_labels:
        if label not in entries:
            raise MissingForecast(f"Gaussian reconciliation needs forecast {label!r}")
        out.append(gaussian_from_dict(entries[label]))
    return out


# ---------------------------------------------------------------------------
# reconcile pipeline

def _gaussian_node_summary(mean: float, var: float, alpha: float) -> dict:
    sd = float(np.sqrt(var))
    z = special.ndtri(1 - alpha / 2)
    return {
        "mean": float(mean),
        "variance": float(var),
        "median": float(mean),
        "interval": [float(mean - z * sd), float(mean + z * sd)],
        "marginal": {"dist": "gaussian", "mean": float(mean), "var": float(var)},
    }


def _csv_body(values: np.ndarray) -> bytes:
    """The rows `csv.writer` writes for a 2-d integer array, built in numpy.

    Each value from the smallest to the largest becomes its digits,
    NUL-padded to a common width. Every cell is followed by a comma, the
    last of a row by CR LF, and the NUL bytes are dropped.
    """
    n_rows, n_cols = values.shape
    low = int(values.min())
    digits = np.array([str(v) for v in range(low, int(values.max()) + 1)], dtype=bytes)
    width = digits.itemsize
    cells = np.full((n_rows, n_cols, width + 1), ord(","), dtype=np.uint8)
    cells[..., :width] = digits[values - low].view(np.uint8).reshape(n_rows, n_cols, width)
    cells[:, -1, width] = ord("\r")
    rows = np.concatenate([cells.reshape(n_rows, n_cols * (width + 1)),
                           np.full((n_rows, 1), ord("\n"), dtype=np.uint8)], axis=1)
    return rows[rows != 0].tobytes()


def _write_artifact(out_dir: Path, h: Hierarchy, method: str, sid: str, joint) -> dict:
    """Write one series' reconciled joint; returns the record keys that locate it.

    Sampler draws go to a CSV, one equal-weight atom per row in draw order;
    any other joint goes to a compressed .npz holding its arrays by field name.
    A joint's diagnostics go to the record; `base` stores no joint, only the
    diagnostics that reconcile_series returns for it.
    """
    if method == "base":
        return {"diagnostics": joint}
    if method in STOCHASTIC_METHODS:
        fname = f"samples_{sid}.csv"
        header = io.StringIO()
        csv.writer(header).writerow(h.bottom_labels)
        with open(out_dir / fname, "wb") as fh:
            fh.write(header.getvalue().encode() + _csv_body(joint.draws))
        keys = {"samples_file": fname}
    else:
        fname = f"joint_{sid}.npz"
        np.savez_compressed(out_dir / fname,
                            **{k: v for k, v in vars(joint).items() if isinstance(v, np.ndarray)})
        keys = {"joint_file": fname}
    if getattr(joint, "diagnostics", None) is not None:
        keys["diagnostics"] = joint.diagnostics.to_dict()
    return keys


def _read_artifact(record: dict, method_dir: Path):
    """The joint `_write_artifact` stored for one series record (None if none was)."""
    diagnostics = record.get("diagnostics")
    if "samples_file" in record:
        draws = np.loadtxt(method_dir / record["samples_file"], delimiter=",", skiprows=1,
                           dtype=np.int64, ndmin=2)
        return CountJoint.from_draws(
            draws, SamplerDiagnostics.from_dict(diagnostics) if diagnostics is not None else None)
    if "joint_file" not in record:
        return None
    with np.load(method_dir / record["joint_file"]) as arrays:
        if record["method"] != "probCount_exact":
            return mint.GaussianReconciled(**arrays)
        return CountJoint(**arrays, diagnostics=TrimDiagnostics(**diagnostics)
                          if diagnostics is not None else None)


def reconcile_series(h: Hierarchy, method: str, entries: dict[str, dict],
                     sampler: SamplerSettings, alpha: float, seed: int):
    """Reconcile one series; returns (node summaries, joint artifact).

    `base` has no joint: its artifact is the record's diagnostics, the tail
    mass of each count forecast cut off by tabulating it.
    """
    if method in ("normal", "structural_scaling"):
        base = _gaussian_forecasts(h, entries)
        spec = mint.StructuralScaling() if method == "structural_scaling" else mint.HierarchyVariance()
        rec = mint.reconcile_gaussian(h, base, spec)
        summaries = {
            label: _gaussian_node_summary(rec.mean[i], max(rec.covariance[i, i], 1e-12), alpha)
            for i, label in enumerate(h.node_labels)
        }
        return summaries, rec

    if method == "base":
        summaries, dropped = {}, {}
        for label in h.node_labels:
            if label not in entries:
                raise MissingForecast(f"base method needs a forecast for node {label!r}")
            entry = entries[label]
            if entry.get("dist") == "gaussian":
                g = gaussian_from_dict(entry)
                summaries[label] = _gaussian_node_summary(g.mean, g.variance, alpha)
                continue
            pmf = count_pmf_from_dict(entry)
            table, dropped[label] = pmf, 0.0
            if not isinstance(pmf, Tabulated):
                weights = pmf.pmf(np.arange(pmf.quantile_truncate() + 1))
                table = Tabulated.from_weights(weights)
                dropped[label] = max(1.0 - float(weights.sum()), 0.0)
            summaries[label] = {**MarginalSummary.of(label, table, alpha).to_dict(),
                                "mean": float(pmf.mean()), "variance": float(pmf.variance())}
        return summaries, {"dropped_mass": dropped}

    if method == "probCount_exact":
        base = _count_forecast_set(h, entries)
        joint = conditioning._reconcile_exact_trimmed(h, base)
    elif method == "probCount_mcmc":
        joint = conditioning.reconcile_mcmc(
            h, _count_forecast_set(h, entries), n_chains=sampler.chains,
            n_samples=sampler.draws, burn_in=sampler.burn_in, seed=seed, thin=sampler.thin,
        )
    elif method == "truncated":
        joint = mint.reconcile_truncated(
            h, _gaussian_forecasts(h, entries), mint.HierarchyVariance(),
            n_samples=sampler.chains * sampler.draws, seed=seed,
        )
    else:
        raise ValueError(f"unknown method {method!r}")
    return {k: s.to_dict() for k, s in summarize(joint, h, alpha).items()}, joint


def run_reconcile(cfg: ExperimentConfig, quiet: bool = False) -> Path:
    """Run the configured method on every series; write outputs; return dir."""
    h = cfg.hierarchy
    if cfg.method is None:
        raise ValueError("config has no method to run")
    out_dir = cfg.resolve(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if cfg.forecasts == BUILTIN_FORECASTER:
        if cfg.observations is None:
            raise ValueError("the builtin forecaster needs an observations file")
        obs = read_observations(cfg.resolve(cfg.observations))
        test_len = cfg.test_length if cfg.test_length is not None else h.m
        forecasts = {}
        for sid, values in obs.items():
            if len(values) <= test_len:
                raise SeriesTooShort(f"series {sid!r} has no training data before the test window")
            forecasts[sid] = empirical_poisson_forecasts(values[:-test_len], h)
    elif cfg.forecasts is not None:
        forecasts = read_forecasts(cfg.resolve(cfg.forecasts))
    else:
        raise ValueError("config has no forecasts source")

    seed0 = cfg.sampler.seed if cfg.sampler.seed is not None else 0
    all_summaries = {}
    for idx, sid in enumerate(sorted(forecasts)):
        series_seed = seed0 + idx
        summaries, artifact = reconcile_series(
            h, cfg.method, forecasts[sid], cfg.sampler, cfg.scoring.alpha, series_seed,
        )
        all_summaries[sid] = {"method": cfg.method, "alpha": cfg.scoring.alpha,
                              "nodes": summaries,
                              **_write_artifact(out_dir, h, cfg.method, sid, artifact)}
        if not quiet:
            print(f"[{cfg.method}] series {sid}")
            print(format_summary_table(h, summaries))
    (out_dir / "summaries.json").write_text(json.dumps(all_summaries, indent=1, sort_keys=True))
    return out_dir


def format_summary_table(h: Hierarchy, summaries: dict[str, dict]) -> str:
    lines = [f"{'node':>10} {'mean':>9} {'var':>9} {'median':>7} {'interval':>14}"]
    for label in h.node_labels:
        s = summaries[label]
        lo, hi = s["interval"]
        lines.append(
            f"{label:>10} {s['mean']:>9.3f} {s['variance']:>9.3f} "
            f"{s['median']:>7.1f} [{lo:>5.1f}, {hi:>5.1f}]"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# score pipeline

def _node_rps(node_summary: dict, y: int) -> float:
    marginal = node_summary["marginal"]
    if marginal["dist"] == "gaussian":
        return scoring.rps_gaussian_cc(
            GaussianForecast(marginal["mean"], max(marginal["var"], 1e-12)), y)
    return scoring.rps_discrete(count_pmf_from_dict(marginal), y)


def run_score(cfg: ExperimentConfig, quiet: bool = False) -> ScoreReport:
    """Score every configured method directory and write the report files.

    Every score comes from `summaries.json`; no stored joint is read. The
    energy score, at exponent 2, is sum_i (E[X_i] - y_i)^2 over the stored
    node means: there its two spread terms cancel exactly.
    """
    h = cfg.hierarchy
    if not cfg.methods:
        raise ValueError("score config needs a methods -> output-dir mapping")
    if cfg.observations is None:
        raise ValueError("score config needs an observations file")
    obs = read_observations(cfg.resolve(cfg.observations))
    test_len = cfg.test_length if cfg.test_length is not None else h.m
    if test_len != h.m:
        raise MissingActuals(
            f"the test window must cover one bottom cycle of {h.m} periods, got {test_len}"
        )
    alpha = cfg.scoring.alpha
    levels = node_levels(h)
    report = ScoreReport()
    no_scale = 0

    for method in sorted(cfg.methods):
        method_dir = cfg.resolve(cfg.methods[method])
        all_summaries = json.loads((method_dir / "summaries.json").read_text())
        for sid in sorted(obs):
            if sid not in all_summaries:
                raise MissingActuals(f"method {method!r} has no reconciled output for series {sid!r}")
            record = all_summaries[sid]
            values = obs[sid]
            if len(values) < test_len + 2:
                raise SeriesTooShort(f"series {sid!r} is too short to score")
            train, test = values[:-test_len], values[-test_len:]
            y_nodes = aggregate(h, test)
            train_levels = temporal_aggregate(train, h)

            for i, label in enumerate(h.node_labels):
                level, horizon = levels[i]
                node = record["nodes"][label]
                report.add(sid, level, horizon, "rps", method, _node_rps(node, int(y_nodes[i])))
                lo, hi = node["interval"]
                report.add(sid, level, horizon, "mis", method,
                           scoring.mis(lo, hi, float(y_nodes[i]), alpha))
            for level_name, count, _ in h.level_sizes:
                idx = [i for i, (lvl, _) in enumerate(levels) if lvl == level_name]
                medians = [record["nodes"][h.node_labels[i]]["median"] for i in idx]
                try:
                    value = scoring.mase(y_nodes[idx], medians, train_levels[level_name])
                except UndefinedScale:
                    no_scale += 1
                    continue
                report.add(sid, level_name, "all", "mase", method, value)
            means = np.array([record["nodes"][label]["mean"] for label in h.node_labels])
            report.add(sid, "hierarchy", "all", "energy_score", method,
                       np.sum((means - y_nodes) ** 2))

    if no_scale:
        warnings.warn(f"{no_scale} MASE cell(s) skipped: constant or single-block "
                      "training level, no scale", stacklevel=2)
    _add_skill_rows(report, cfg, h, obs)
    out_dir = cfg.resolve(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report.to_csv(out_dir / "scores.csv")
    report.skill_to_csv(out_dir / "skill.csv")
    report.to_json(out_dir / "scores.json")
    if not quiet:
        print(format_skill_table(report))
    return report


def _mean_skill(cells: dict, metric: str, level: str, method: str,
                baseline: str, series_ids, horizons) -> float:
    """Per-series, per-horizon skill averaged over horizons then series.

    `cells` maps (series, level, horizon, metric, method) to a score value;
    a cell missing for the method or the baseline is skipped.
    """
    per_series = []
    undefined = 0
    for sid in series_ids:
        per_h = []
        for hz in horizons:
            b = cells.get((sid, level, hz, metric, baseline))
            m = cells.get((sid, level, hz, metric, method))
            if b is None or m is None:
                continue
            try:
                per_h.append(scoring.skill_score(b, m))
            except UndefinedSkill:
                per_h.append(0.0)
                undefined += 1
        if per_h:
            per_series.append(float(np.mean(per_h)))
    if undefined:
        warnings.warn(
            f"{undefined} undefined skill cell(s) for {metric}/{level}/{method} "
            "(both metrics zero) reported as 0",
            stacklevel=2,
        )
    return float(np.mean(per_series)) if per_series else float("nan")


def _add_skill_rows(report: ScoreReport, cfg: ExperimentConfig, h: Hierarchy, obs):
    baseline = cfg.scoring.baseline
    methods = [m for m in sorted(cfg.methods) if m != baseline]
    if baseline not in cfg.methods or not methods:
        return
    series_ids = sorted(obs)
    cells = {(r["series"], r["level"], r["horizon"], r["metric"], r["method"]): r["value"]
             for r in report.rows}
    for method in methods:
        for metric in ("mase", "rps", "mis"):
            level_skills = []
            for level_name, count, _ in h.level_sizes:
                horizons = ["all"] if metric == "mase" else list(range(1, count + 1))
                val = _mean_skill(cells, metric, level_name, method, baseline,
                                  series_ids, horizons)
                report.add_skill(metric, level_name, method, baseline, val)
                level_skills.append(val)
            report.add_skill(metric, "average", method, baseline,
                             float(np.nanmean(level_skills)))
        es = _mean_skill(cells, "energy_score", "hierarchy", method, baseline,
                         series_ids, ["all"])
        report.add_skill("energy_score", "hierarchy", method, baseline, es)


def format_skill_table(report: ScoreReport) -> str:
    if not report.skill_rows:
        return "(no skill rows: single method or baseline missing)"
    lines = [f"{'metric':>14} {'level':>10} {'method':>18} {'skill':>8}"]
    for row in report.skill_rows:
        lines.append(
            f"{row['metric']:>14} {row['level']:>10} {row['method']:>18} {row['skill']:>8.3f}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# demos

# reference values for the two-bottom demo: uniform {0,1} bottoms conditioned
# on aggregate pmf (.5, .2, .3) concentrate the four cells at these masses
TABLE2_CELLS = {(0, 0): 5 / 12, (0, 1): 1 / 6, (1, 0): 1 / 6, (1, 1): 1 / 4}
TABLE2_TOP = {0: 5 / 12, 1: 1 / 3, 2: 1 / 4}

# published reconciliation results for rates (2, 4) with aggregate evidence
# rate 9; sampled to one decimal, hence the loose comparison tolerance
TABLE3_PUBLISHED = {
    "means": {"b1": 2.4, "b2": 4.8, "agg2_1": 7.2},
    "vars": {"b1": 1.9, "b2": 3.0, "agg2_1": 3.6},
}


def _check(checks: list, name: str, ok: bool, detail: str):
    checks.append({"check": name, "passed": bool(ok), "detail": detail})


def _print_checks(checks: list, quiet: bool):
    if quiet:
        return
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"  [{status}] {c['check']}: {c['detail']}")


def _write_demo_record(out_dir: Path, h: Hierarchy, joint: CountJoint,
                       summaries: dict[str, MarginalSummary]):
    """Store an exact joint as series "series" of a probCount_exact output dir."""
    record = {"method": "probCount_exact", "alpha": 0.1,
              "nodes": {k: s.to_dict() for k, s in summaries.items()},
              **_write_artifact(out_dir, h, "probCount_exact", "series", joint)}
    (out_dir / "summaries.json").write_text(
        json.dumps({"series": record}, indent=1, sort_keys=True))


def demo_minimal_table2(out_dir: Path, seed: int, quiet: bool) -> list[dict]:
    h = build_temporal_hierarchy(2, [2])
    base = BaseForecastSet(
        bottom=[Tabulated(np.array([0.5, 0.5])), Tabulated(np.array([0.5, 0.5]))],
        upper=[Tabulated(np.array([0.5, 0.2, 0.3]))],
    )
    joint = conditioning.reconcile_exact(h, base)
    checks = []
    if not quiet:
        print("reconciled cell probabilities (bottom pair):")
    cell_probs = {tuple(atom): float(p)
                  for atom, p in zip(joint.bottom_support, joint.probabilities)}
    for cell, expected in TABLE2_CELLS.items():
        got = cell_probs.get(cell, 0.0)
        if not quiet:
            print(f"  b={cell}: {got:.6f} (expected {expected:.6f})")
        _check(checks, f"cell {cell}", abs(got - expected) < 1e-10,
               f"{got:.12f} vs {expected:.12f} (tol 1e-10)")
    summaries = summarize(joint, h, alpha=0.1)
    top = summaries["agg2_1"].pmf
    for k, expected in TABLE2_TOP.items():
        _check(checks, f"aggregate mass at {k}", abs(float(top.pmf(k)) - expected) < 1e-10,
               f"{float(top.pmf(k)):.12f} vs {expected:.12f} (tol 1e-10)")
    _write_demo_record(out_dir, h, joint, summaries)
    return checks


def demo_poisson_table3(out_dir: Path, seed: int, quiet: bool) -> list[dict]:
    h = build_temporal_hierarchy(2, [2])
    base = BaseForecastSet(
        bottom=[Poisson(2.0), Poisson(4.0)],
        upper=[Poisson(9.0)],
    )
    bu = summarize(conditioning.bottom_up_exact(h, base), h)
    exact_joint = conditioning.reconcile_exact(h, base)
    exact = summarize(exact_joint, h)
    mc = summarize(conditioning.reconcile_mcmc(h, base, n_chains=4, n_samples=10_000,
                                               seed=seed), h)

    if not quiet:
        print(f"{'node':>8} {'bu mean':>8} {'rec mean':>9} {'delta':>7}"
              f" {'bu var':>8} {'rec var':>8} {'delta':>7}")
        for label in ("b1", "b2", "agg2_1"):
            print(f"{label:>8} {bu[label].mean:>8.3f} {exact[label].mean:>9.3f}"
                  f" {exact[label].mean - bu[label].mean:>7.3f}"
                  f" {bu[label].variance:>8.3f} {exact[label].variance:>8.3f}"
                  f" {exact[label].variance - bu[label].variance:>7.3f}")

    checks = []
    pub_mean, pub_var = TABLE3_PUBLISHED["means"], TABLE3_PUBLISHED["vars"]
    for label in ("b1", "b2", "agg2_1"):
        _check(checks, f"published mean {label}",
               abs(exact[label].mean - pub_mean[label]) <= 0.1,
               f"exact {exact[label].mean:.4f} vs published {pub_mean[label]} (tol 0.1)")
        _check(checks, f"published var {label}",
               abs(exact[label].variance - pub_var[label]) <= 0.1,
               f"exact {exact[label].variance:.4f} vs published {pub_var[label]} (tol 0.1)")
        _check(checks, f"mcmc mean {label}",
               abs(mc[label].mean - exact[label].mean) <= 0.1,
               f"mcmc {mc[label].mean:.4f} vs exact {exact[label].mean:.4f} (tol 0.1)")
    corr = conditioning.correlation(exact_joint, h, 1, 2)
    _check(checks, "bottoms negatively correlated", corr < 0, f"corr = {corr:.4f}")
    _check(checks, "bottom means increase",
           exact["b1"].mean > bu["b1"].mean and exact["b2"].mean > bu["b2"].mean,
           "aggregate evidence above the bottom-up total pulls both bottoms up")
    _check(checks, "variances decrease",
           all(exact[k].variance < bu[k].variance for k in ("b1", "b2", "agg2_1")),
           "conditioning adds information at every node")

    _write_demo_record(out_dir, h, exact_joint, exact)
    return checks


def demo_hierarchy421(out_dir: Path, seed: int, quiet: bool) -> list[dict]:
    h = build_temporal_hierarchy(4, [2, 4])
    rates = {"b1": 1.0, "b2": 1.0, "b3": 1.0, "b4": 1.0,
             "agg2_1": 2.0, "agg2_2": 2.0, "agg4_1": 4.0}
    base = BaseForecastSet(
        bottom=[Poisson(rates[l]) for l in h.bottom_labels],
        upper=[Poisson(rates[l]) for l in h.upper_labels],
    )
    exact_joint = conditioning.reconcile_exact(h, base)
    exact = summarize(exact_joint, h)
    mc = summarize(conditioning.reconcile_mcmc(h, base, n_chains=4, n_samples=10_000,
                                               seed=seed), h)
    checks = []
    if not quiet:
        print(f"{'node':>8} {'base mean':>9} {'exact mean':>10} {'mcmc mean':>10}")
        for label in h.node_labels:
            print(f"{label:>8} {rates[label]:>9.3f} {exact[label].mean:>10.3f}"
                  f" {mc[label].mean:>10.3f}")
    for label in h.node_labels:
        _check(checks, f"mcmc vs exact mean {label}",
               abs(mc[label].mean - exact[label].mean) <= 0.1,
               f"mcmc {mc[label].mean:.4f} vs exact {exact[label].mean:.4f} (tol 0.1)")

    # with coherent means the Gaussian reconciliation is a fixed point
    gauss = [GaussianForecast(rates[l], rates[l]) for l in h.node_labels]
    rec = mint.reconcile_gaussian(h, gauss)
    means = np.array([rates[l] for l in h.node_labels])
    _check(checks, "minT keeps coherent means",
           bool(np.allclose(rec.mean, means, atol=1e-8)),
           f"max deviation {np.abs(rec.mean - means).max():.2e} (tol 1e-8)")

    _write_demo_record(out_dir, h, exact_joint, exact)
    return checks


DEMOS = {
    "minimal_table2": demo_minimal_table2,
    "poisson_table3": demo_poisson_table3,
    "hierarchy421": demo_hierarchy421,
}
DEMO_NAMES = tuple(DEMOS)


def demo(name: str, out_dir=None, seed: int | None = None, quiet: bool = False) -> bool:
    """Run a named demo; prints checks, writes files, returns overall pass.

    `seed` (default: RECONC_SEED, else 0) must be a non-negative integer.
    """
    if name not in DEMOS:
        raise ValueError(f"unknown demo {name!r}; expected one of {DEMO_NAMES}")
    if seed is None:
        seed = _env_seed() or 0
    _integer("seed", seed, minimum=0)
    out = Path(out_dir) if out_dir is not None else Path(f"demo_{name}")
    out.mkdir(parents=True, exist_ok=True)
    if not quiet:
        print(f"demo {name} (seed {seed}) -> {out}")
    checks = DEMOS[name](out, seed, quiet)
    (out / "checks.json").write_text(json.dumps(checks, indent=1))
    _print_checks(checks, quiet)
    return all(c["passed"] for c in checks)
