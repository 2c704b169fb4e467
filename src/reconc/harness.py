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
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
from scipy import special

from . import conditioning, mint, scoring
from .conditioning import BaseForecastSet, CountJoint, MarginalSummary, summarize
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
    ReconcError,
    SeriesTooShort,
    UndefinedScale,
    UndefinedSkill,
)
from .hierarchy import Hierarchy, aggregate, build_temporal_hierarchy
from .schema import COUNT, INT, NUMBER, STRING, Array, Forms, Object, Range, Row, loads, walk
from .scoring import ScoreReport

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


def _table(cls, child: str, null=(), **kinds) -> Object:
    """A row per field of `cls` named in `kinds`, of that JSON type and the field's
    default (required where it has none); null reads as the key left out where the
    default is None or the key is in `null`."""
    rows = []
    for f in fields(cls):
        if f.name in kinds:
            default = f.default if f.default_factory is MISSING else f.default_factory()
            rows.append(Row(f.name, kinds[f.name], required=default is MISSING,
                            null=default is None or f.name in null,
                            default=None if default is MISSING else default))
    return Object(*rows, child=child)


def _hierarchy_source(section: dict) -> str:
    """The form of a hierarchy section: the one source it names."""
    has_file = "a_matrix_file" in section
    if has_file == ("bottom_period_count" in section or "factors" in section):
        raise ValueError("hierarchy needs exactly one source: bottom_period_count+factors "
                         "or a_matrix_file")
    return "a_matrix_file" if has_file else "factors"


_AT_LEAST_0 = INT._replace(range=Range(0))

#: an experiment config; a `hierarchy` names exactly one source
CONFIG = _table(
    ExperimentConfig, "{}", null=("output_dir",),
    hierarchy=Forms(_hierarchy_source, {
        "factors": Object(Row("bottom_period_count", COUNT, required=True),
                          Row("factors", Array(COUNT, "an array of integers"), required=True),
                          child="hierarchy.{}"),
        "a_matrix_file": Object(Row("a_matrix_file", STRING, required=True),
                                child="hierarchy.{}"),
    }),
    method=STRING, forecasts=STRING, observations=STRING, test_length=COUNT, output_dir=STRING,
    sampler=_table(SamplerSettings, "sampler.{}", chains=COUNT, draws=COUNT,
                   burn_in=_AT_LEAST_0, thin=COUNT, seed=_AT_LEAST_0),
    scoring=_table(ScoringSettings, "scoring.{}",
                   alpha=NUMBER._replace(range=Range(0, 1, open=True)), baseline=STRING),
    methods=Object(child="methods.{}", rest=STRING),
)

#: `scoring` keys of older configs, each ignored with one DeprecationWarning
DEPRECATED_SCORING_KEYS = ("es_batch", "seed")

#: smallest variance of a reconciled Gaussian node, as stored and as scored
_GAUSSIAN_VAR_FLOOR = 1e-12


def _env_seed() -> int | None:
    """RECONC_SEED checked as a sampler seed; None where it is unset."""
    text = os.environ.get("RECONC_SEED")
    if text is None:
        return None
    try:
        value = int(text)
    except ValueError:
        value = text  # refused by name
    walk(_AT_LEAST_0, value, "RECONC_SEED")
    return value


def _read_json(path):
    """A JSON input file, read as UTF-8 after any byte-order mark by `schema.loads`,
    which refuses a repeated key naming the file."""
    return loads(Path(path).read_text(encoding="utf-8-sig"), path)


def load_config(path) -> ExperimentConfig:
    """Parse an experiment config JSON file, read by `_read_json`.

    The DEPRECATED_SCORING_KEYS are dropped, each with one DeprecationWarning;
    then the config is walked against CONFIG, which refuses by name each value
    and key it does not allow. RECONC_SEED, checked as the sampler seed is,
    overrides that seed. A seed is mandatory whenever the method stores
    sampled draws (probCount_mcmc, truncated).
    """
    path = Path(path)
    raw = _read_json(path)
    scoring = raw.get("scoring") if isinstance(raw, dict) else None
    if isinstance(scoring, dict):
        for key in DEPRECATED_SCORING_KEYS:
            if key in scoring:
                warnings.warn(f"scoring.{key} is deprecated and ignored: the energy score "
                              "is computed in closed form", DeprecationWarning, stacklevel=2)
        raw["scoring"] = {k: v for k, v in scoring.items() if k not in DEPRECATED_SCORING_KEYS}
    walk(CONFIG, raw, "config")
    section = raw["hierarchy"]
    if "a_matrix_file" in section:
        h = Hierarchy.from_dict(_read_json(path.parent / section["a_matrix_file"]))
    else:
        h = build_temporal_hierarchy(section["bottom_period_count"], section["factors"])
    sampler = SamplerSettings(**raw.get("sampler", {}))
    env_seed = _env_seed()
    if env_seed is not None:
        sampler.seed = env_seed
    method = raw.get("method")
    if method is not None and method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {tuple(METHODS)}")
    if method is not None and METHODS[method].store is _store_draws and sampler.seed is None:
        raise ValueError(f"method {method!r} is stochastic: a sampler seed is mandatory")
    given = {row.key: raw[row.key] for row in CONFIG.rows
             if row.null and raw.get(row.key) is not None}
    return ExperimentConfig(hierarchy=h, sampler=sampler,
                            scoring=ScoringSettings(**raw.get("scoring", {})),
                            methods=raw.get("methods", {}), base_dir=path.parent, **given)


# ---------------------------------------------------------------------------
# observations and temporal aggregation

def _check_series_id(sid: str):
    if not sid or any(c in sid for c in "/\\\0"):
        raise ValueError(f"series id {sid!r} is empty or not filename-safe")


def _csv_integer(path, line: int, rec: dict, column: str) -> int:
    """`int(rec[column])`, refused by a ValueError naming the file, line and column."""
    try:
        return int(rec[column])
    except (TypeError, ValueError):  # TypeError: a short row reads None
        raise ValueError(f"{path}, line {line}, column {column!r}: expected an integer, "
                         f"got {rec[column]!r}") from None


def read_observations(path) -> dict[str, np.ndarray]:
    """Read a series_id,t,value CSV into per-series integer arrays.

    The file is read as UTF-8 after any byte-order mark. A missing column,
    or a t or value that is not an integer, is refused by file, line and column.

    Raises:
        ObservationGap: a series' sorted times skip or repeat a period.
    """
    rows: dict[str, list[tuple[int, int]]] = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        for column in ("series_id", "t", "value"):
            if column not in (reader.fieldnames or ()):
                raise ValueError(f"{path}, line 1: no {column!r} column in the header "
                                 f"{reader.fieldnames}")
        for rec in reader:
            rows.setdefault(rec["series_id"], []).append(
                (_csv_integer(path, reader.line_num, rec, "t"),
                 _csv_integer(path, reader.line_num, rec, "value")))
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
    """Read a forecast JSON file, normalized to {series: {label: entry}}.

    The file is nested, {series: {label: entry}}, when every value is an
    object with neither a "dist" nor a "samples" key; otherwise it is one
    series' {label: entry} map, read as series "series".
    """
    raw = _read_json(path)
    if not isinstance(raw, dict) or not raw:
        raise ValueError("forecast file must be a non-empty JSON object")
    nested = all(isinstance(v, dict) and "dist" not in v and "samples" not in v
                 for v in raw.values())
    out = raw if nested else {"series": raw}
    for sid in out:
        _check_series_id(sid)
    return out


def _parse_entry(parse, entries: dict[str, dict], label: str):
    """`parse(entries[label])`, its refusal naming the node."""
    try:
        return parse(entries[label])
    except ValueError as exc:
        raise ValueError(f"node {label!r}: {exc}") from exc
    except ReconcError as exc:
        raise type(exc)(f"node {label!r}: {exc}") from exc


def _count_forecast_set(h: Hierarchy, entries: dict[str, dict]) -> BaseForecastSet:
    bottom = []
    for label in h.bottom_labels:
        if label not in entries:
            raise MissingForecast(f"count reconciliation needs bottom forecast {label!r}")
        bottom.append(_parse_entry(count_pmf_from_dict, entries, label))
    upper = [_parse_entry(count_pmf_from_dict, entries, label) if label in entries else None
             for label in h.upper_labels]
    return BaseForecastSet(bottom, upper)


def _gaussian_forecasts(h: Hierarchy, entries: dict[str, dict]) -> list[GaussianForecast]:
    out = []
    for label in h.node_labels:
        if label not in entries:
            raise MissingForecast(f"Gaussian reconciliation needs forecast {label!r}")
        out.append(_parse_entry(gaussian_from_dict, entries, label))
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


def _narrowest(values: np.ndarray) -> np.ndarray:
    """A non-negative integer array in the narrowest unsigned dtype that holds it, else as is."""
    if values.dtype.kind not in "iu" or values.min(initial=0) < 0:
        return values
    return values.astype(np.min_scalar_type(values.max(initial=0)), copy=False)


def _store_draws(out_dir: Path, h: Hierarchy, sid: str, joint: CountJoint) -> dict:
    """Sampler draws as a CSV, one equal-weight atom per row in draw order; the record
    keys name the file and hold the sampler diagnostics where the joint has them."""
    fname = f"samples_{sid}.csv"
    header = io.StringIO()
    csv.writer(header).writerow(h.bottom_labels)
    with open(out_dir / fname, "wb") as fh:
        fh.write(header.getvalue().encode() + _csv_body(joint.draws))
    if joint.diagnostics is None:
        return {"samples_file": fname}
    return {"samples_file": fname, "diagnostics": joint.diagnostics.to_dict()}


def _store_npz(out_dir: Path, h: Hierarchy, sid: str, joint) -> dict:
    """The joint's arrays by field name, each `_narrowest`, in a compressed .npz; the record
    key names the file."""
    fname = f"joint_{sid}.npz"
    np.savez_compressed(out_dir / fname, **{name: _narrowest(value)
                                            for name, value in vars(joint).items()
                                            if isinstance(value, np.ndarray)})
    return {"joint_file": fname}


def _store_nothing(out_dir: Path, h: Hierarchy, sid: str, diagnostics: dict) -> dict:
    """No joint: the record keys are the diagnostics."""
    return {"diagnostics": diagnostics}


def _count_summaries(joint: CountJoint, h: Hierarchy, alpha: float):
    return {k: s.to_dict() for k, s in summarize(joint, h, alpha).items()}, joint


def _reconcile_exact(h, entries, sampler, alpha, seed):
    """Summaries of the exact node marginals; the artifact is their diagnostics."""
    marginals, diagnostics = conditioning.exact_marginals(h, _count_forecast_set(h, entries))
    return ({label: MarginalSummary.of(label, pmf, alpha).to_dict()
             for label, pmf in marginals.items()}, diagnostics.to_dict())


def _reconcile_mcmc(h, entries, sampler, alpha, seed):
    joint = conditioning.reconcile_mcmc(
        h, _count_forecast_set(h, entries), n_chains=sampler.chains, n_samples=sampler.draws,
        burn_in=sampler.burn_in, seed=seed, thin=sampler.thin)
    return _count_summaries(joint, h, alpha)


def _reconcile_truncated(h, entries, sampler, alpha, seed):
    joint = mint.reconcile_truncated(h, _gaussian_forecasts(h, entries), mint.HierarchyVariance(),
                                     n_samples=sampler.chains * sampler.draws, seed=seed)
    return _count_summaries(joint, h, alpha)


def _reconcile_mint(h, entries, sampler, alpha, seed, spec):
    rec = mint.reconcile_gaussian(h, _gaussian_forecasts(h, entries), spec())
    return {label: _gaussian_node_summary(
        rec.mean[i], max(rec.covariance[i, i], _GAUSSIAN_VAR_FLOOR), alpha)
        for i, label in enumerate(h.node_labels)}, rec


def _base_forecasts(h, entries, sampler, alpha, seed):
    """Each node's own forecast; the artifact holds the tail mass its tabulation cut off."""
    summaries, dropped = {}, {}
    for label in h.node_labels:
        if label not in entries:
            raise MissingForecast(f"base method needs a forecast for node {label!r}")
        if isinstance(entries[label], dict) and entries[label].get("dist") == "gaussian":
            g = _parse_entry(gaussian_from_dict, entries, label)
            summaries[label] = _gaussian_node_summary(g.mean, g.variance, alpha)
            continue
        pmf = _parse_entry(count_pmf_from_dict, entries, label)
        table, dropped[label] = pmf, 0.0
        if not isinstance(pmf, Tabulated):
            weights = pmf.pmf(np.arange(pmf.quantile_truncate() + 1))
            table = Tabulated.from_weights(weights)
            dropped[label] = max(1.0 - float(weights.sum()), 0.0)
        summaries[label] = {**MarginalSummary.of(label, table, alpha).to_dict(),
                            "mean": float(pmf.mean()), "variance": float(pmf.variance())}
    return summaries, {"dropped_mass": dropped}


class Method(NamedTuple):
    """How a method reconciles one series and stores the artifact."""

    reconcile: Callable  # (h, entries, sampler, alpha, seed) -> (node summaries, artifact)
    store: Callable  # (out_dir, h, sid, artifact) -> every record key of the artifact


#: every method by name; one that stores draws samples them, so it needs a seed
METHODS = {
    "probCount_exact": Method(_reconcile_exact, _store_nothing),
    "probCount_mcmc": Method(_reconcile_mcmc, _store_draws),
    "normal": Method(partial(_reconcile_mint, spec=mint.HierarchyVariance), _store_npz),
    "structural_scaling": Method(partial(_reconcile_mint, spec=mint.StructuralScaling),
                                 _store_npz),
    "truncated": Method(_reconcile_truncated, _store_draws),
    "base": Method(_base_forecasts, _store_nothing),
}


def reconcile_series(h: Hierarchy, method: str, entries: dict[str, dict],
                     sampler: SamplerSettings, alpha: float, seed: int):
    """Reconcile one series by `METHODS[method]`; returns (node summaries, artifact)."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    return METHODS[method].reconcile(h, entries, sampler, alpha, seed)


def run_reconcile(cfg: ExperimentConfig, quiet: bool = False) -> Path:
    """Run the configured method on every series; write outputs; return dir.

    A forecast label that is not a node of the hierarchy is refused, naming
    its series, before any series is reconciled. A ValueError or ReconcError
    raised while reconciling a series keeps its type and names that series,
    and the node where it comes from parsing that node's forecast entry.
    """
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

    nodes = set(h.node_labels)
    for sid in sorted(forecasts):
        unknown = sorted(set(forecasts[sid]) - nodes)
        if unknown:
            raise ValueError(f"series {sid!r}: forecast label {unknown[0]!r} is not a node "
                             "of the hierarchy")
    seed0 = cfg.sampler.seed if cfg.sampler.seed is not None else 0
    all_summaries = {}
    for idx, sid in enumerate(sorted(forecasts)):
        series_seed = seed0 + idx
        try:
            summaries, artifact = reconcile_series(
                h, cfg.method, forecasts[sid], cfg.sampler, cfg.scoring.alpha, series_seed,
            )
        except (ValueError, ReconcError) as exc:
            raise type(exc)(f"series {sid!r}: {exc}") from exc
        all_summaries[sid] = {"method": cfg.method, "alpha": cfg.scoring.alpha,
                              "nodes": summaries,
                              **METHODS[cfg.method].store(out_dir, h, sid, artifact)}
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
            GaussianForecast(marginal["mean"], max(marginal["var"], _GAUSSIAN_VAR_FLOOR)), y)
    return scoring.rps_discrete(count_pmf_from_dict(marginal), y)


def run_score(cfg: ExperimentConfig, quiet: bool = False) -> ScoreReport:
    """Score every configured method directory and write the report files.

    Each series is checked once, before any method's outputs are read: it
    must hold the test window plus two training periods, and h must be
    temporal. Every score comes from `summaries.json`, never a stored joint.
    The energy score, at exponent 2, is sum_i (E[X_i] - y_i)^2 over the
    stored node means: there its two spread terms cancel exactly.
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
    series_ids = sorted(obs)
    truths = {}  # per series: (node actuals, training block sums per level)
    for sid in series_ids:
        values = obs[sid]
        if len(values) < test_len + 2:
            raise SeriesTooShort(f"series {sid!r} is too short to score")
        truths[sid] = aggregate(h, values[-test_len:]), temporal_aggregate(values[:-test_len], h)
    alpha = cfg.scoring.alpha
    levels = node_levels(h)
    ends = np.cumsum([count for _, count, _ in h.level_sizes])  # levels are contiguous
    level_spans = [(name, slice(end - count, end))
                   for (name, count, _), end in zip(h.level_sizes, ends)]
    report = ScoreReport()
    no_scale = 0

    for method in sorted(cfg.methods):
        method_dir = cfg.resolve(cfg.methods[method])
        all_summaries = json.loads((method_dir / "summaries.json").read_text())
        for sid in series_ids:
            if sid not in all_summaries:
                raise MissingActuals(f"method {method!r} has no reconciled output for series {sid!r}")
            stored = all_summaries[sid]["nodes"]
            missing = [label for label in h.node_labels if label not in stored]
            if missing:
                raise MissingActuals(f"method {method!r} has no reconciled output for node "
                                     f"{missing[0]!r} of series {sid!r}")
            nodes = [stored[label] for label in h.node_labels]
            y_nodes, train_levels = truths[sid]
            for node, (level, horizon), y in zip(nodes, levels, y_nodes):
                report.add(sid, level, horizon, "rps", method, _node_rps(node, int(y)))
                lo, hi = node["interval"]
                report.add(sid, level, horizon, "mis", method, scoring.mis(lo, hi, float(y), alpha))
            for level_name, span in level_spans:
                medians = [node["median"] for node in nodes[span]]
                try:
                    value = scoring.mase(y_nodes[span], medians, train_levels[level_name])
                except UndefinedScale:
                    no_scale += 1
                    continue
                report.add(sid, level_name, "all", "mase", method, value)
            means = np.array([node["mean"] for node in nodes])
            report.add(sid, "hierarchy", "all", "energy_score", method,
                       np.sum((means - y_nodes) ** 2))

    if no_scale:
        warnings.warn(f"{no_scale} MASE cell(s) skipped: constant or single-block "
                      "training level, no scale", stacklevel=2)
    _add_skill_rows(report, cfg, h, series_ids)
    out_dir = cfg.resolve(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report.to_csv(out_dir / "scores.csv")
    report.skill_to_csv(out_dir / "skill.csv")
    report.to_json(out_dir / "scores.json")
    if not quiet:
        print(format_skill_table(report))
    return report


def _add_skill_rows(report: ScoreReport, cfg: ExperimentConfig, h: Hierarchy, series_ids):
    """Add each method's skill against the baseline per metric and level.

    Skill is taken per series and horizon, averaged over horizons then
    series; a cell missing for the method or the baseline is skipped.
    """
    baseline = cfg.scoring.baseline
    methods = [m for m in sorted(cfg.methods) if m != baseline]
    if baseline not in cfg.methods or not methods:
        return
    cells = {(r["series"], r["level"], r["horizon"], r["metric"], r["method"]): r["value"]
             for r in report.rows}

    def add_skill(metric: str, level: str, method: str, horizons) -> float:
        per_series, undefined = [], 0
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
            warnings.warn(f"{undefined} undefined skill cell(s) for {metric}/{level}/{method} "
                          "(both metrics zero) reported as 0",
                          stacklevel=4)  # the caller of run_score
        skill = float(np.mean(per_series)) if per_series else float("nan")
        report.add_skill(metric, level, method, baseline, skill)
        return skill

    for method in methods:
        for metric in ("mase", "rps", "mis"):
            level_skills = []  # a loop: before 3.12 a comprehension adds a frame to stacklevel
            for level_name, count, _ in h.level_sizes:
                horizons = ["all"] if metric == "mase" else list(range(1, count + 1))
                level_skills.append(add_skill(metric, level_name, method, horizons))
            report.add_skill(metric, "average", method, baseline,
                             float(np.nanmean(level_skills)))
        add_skill("energy_score", "hierarchy", method, ["all"])


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
    """Store an exact joint's full grid as series "series" of a probCount_exact output dir."""
    record = {"method": "probCount_exact", "alpha": 0.1,
              "nodes": {k: s.to_dict() for k, s in summaries.items()},
              **_store_npz(out_dir, h, "series", joint)}
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
    walk(_AT_LEAST_0, seed, "seed")
    out = Path(out_dir) if out_dir is not None else Path(f"demo_{name}")
    out.mkdir(parents=True, exist_ok=True)
    if not quiet:
        print(f"demo {name} (seed {seed}) -> {out}")
    checks = DEMOS[name](out, seed, quiet)
    (out / "checks.json").write_text(json.dumps(checks, indent=1))
    _print_checks(checks, quiet)
    return all(c["passed"] for c in checks)
