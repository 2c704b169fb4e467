"""Spans around the public functions of reconc, recorded from outside the library.

`Tracer.install` replaces each traced function or method with a wrapper that
records a span (name, start, end, parent span, round, series id) and restores
the originals on `uninstall`. Spans stay in memory until `write` is called at
the end of the run. Counters that need a function's arguments or result
(cells enumerated, MCMC iterations, rows scanned, ...) are taken by the same
wrappers after the span has closed, so they are not part of any span time.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
from scipy import stats

#: every span name, in report order; each gives .calls, .s and .errors
SPAN_NAMES = (
    "harness.read_observations",
    "harness.forecasts",
    "harness.reconcile_series",
    "harness.run_reconcile",
    "harness.run_score",
    "distributions.pmf",
    "conditioning.reconcile_exact",
    "conditioning.bottom_up_exact",
    "conditioning.condition_on_upper",
    "conditioning.reconcile_mcmc",
    "conditioning.summarize",
    "mint.reconcile_gaussian",
    "mint.reconcile_truncated",
    "scoring.rps",
    "scoring.mis",
    "scoring.mase",
    "scoring.energy_score",
    "scoring.skill_score",
    "scoring.ScoreReport.values",
    "scoring.report_write",
)

#: posterior mass above which an enumerated cell counts as live
LIVE_CELL_MASS = 1e-12


@dataclass(slots=True)
class Span:
    index: int
    name: str
    parent: int  # index of the enclosing span, -1 at top level
    round: int  # the round (one batch of series) this span serves
    series: str | None
    nested: bool  # an enclosing span has the same name
    start: float = 0.0
    end: float = 0.0
    error: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.round = -1
        #: per-series seed -> series id, for the run_reconcile call in progress
        self.series_by_seed: dict[int, str] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self.mcmc_acceptance: list[float] = []
        self.mcmc_rhat_max = 0.0
        self.mcmc_ess_per_s: list[float] = []
        self._stack: list[Span] = []
        self._open: dict[str, int] = defaultdict(int)
        self._awaiting_series: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, series_of=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            series = series_of(args, kwargs) if series_of is not None else None
            if series is None and parent is not None:
                series = parent.series
            span = Span(len(tracer.spans), name, parent.index if parent else -1,
                        tracer.round, series, tracer._open[name] > 0)
            tracer.spans.append(span)
            tracer._stack.append(span)
            tracer._open[name] += 1
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                tracer._open[name] -= 1
                if span.series is None and name.startswith(("scoring.", "distributions.")):
                    tracer._awaiting_series.append(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return traced

    def begin_round(self, index: int):
        self.round = index
        self._awaiting_series.clear()

    def _assign_series(self, series: str):
        """run_score computes a series' scores, then adds them under its id."""
        for span in self._awaiting_series:
            span.series = series
        self._awaiting_series.clear()

    # -- installing ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self):
        from reconc import conditioning, distributions, harness, mint, scoring

        def wrap(owner, attr, name, **hooks):
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr), **hooks))

        def seed_series(args, kwargs):
            seed = kwargs["seed"] if "seed" in kwargs else args[5]
            return self.series_by_seed.get(seed)

        wrap(harness, "read_observations", "harness.read_observations")
        wrap(harness, "read_forecasts", "harness.forecasts")
        wrap(harness, "empirical_poisson_forecasts", "harness.forecasts")
        wrap(harness, "reconcile_series", "harness.reconcile_series", series_of=seed_series)
        wrap(harness, "run_reconcile", "harness.run_reconcile")
        wrap(harness, "run_score", "harness.run_score")
        # harness imports summarize by name, so both references are wrapped
        wrap(harness, "summarize", "conditioning.summarize", after=self._after_summarize)
        wrap(conditioning, "summarize", "conditioning.summarize", after=self._after_summarize)
        wrap(conditioning, "reconcile_exact", "conditioning.reconcile_exact",
             after=self._after_reconcile_exact)
        wrap(conditioning, "bottom_up_exact", "conditioning.bottom_up_exact",
             after=self._after_bottom_up)
        wrap(conditioning, "condition_on_upper", "conditioning.condition_on_upper")
        wrap(conditioning, "reconcile_mcmc", "conditioning.reconcile_mcmc",
             after=self._after_mcmc)
        wrap(mint, "reconcile_gaussian", "mint.reconcile_gaussian")
        wrap(mint, "reconcile_truncated", "mint.reconcile_truncated")
        for cls in (distributions.Poisson, distributions.NegBinomial, distributions.Tabulated):
            for attr in ("pmf", "cdf", "quantile"):
                wrap(cls, attr, "distributions.pmf")
        wrap(distributions.CountPmf, "log_pmf_table", "distributions.pmf")
        wrap(scoring, "rps_discrete", "scoring.rps")
        wrap(scoring, "rps_gaussian_cc", "scoring.rps")
        wrap(scoring, "mis", "scoring.mis")
        wrap(scoring, "mase", "scoring.mase")
        wrap(scoring, "energy_score", "scoring.energy_score", after=self._after_energy)
        wrap(scoring, "skill_score", "scoring.skill_score")
        wrap(scoring.ScoreReport, "values", "scoring.ScoreReport.values",
             series_of=lambda args, kwargs: kwargs.get("series"), after=self._after_values)
        for attr in ("to_csv", "skill_to_csv", "to_json"):
            wrap(scoring.ScoreReport, attr, "scoring.report_write")

        add = scoring.ScoreReport.add

        def add_with_series(report, series, *args, **kwargs):
            self._assign_series(series)
            return add(report, series, *args, **kwargs)

        self._patch(scoring.ScoreReport, "add", add_with_series)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- counters ------------------------------------------------------------

    def _after_summarize(self, span, args, kwargs, joint):
        source = args[0]
        atoms = source.bottom_support if hasattr(source, "bottom_support") else source.draws
        self.counters["conditioning.summarize_atoms"] += len(atoms)

    def _after_bottom_up(self, span, args, kwargs, joint):
        self.counters["conditioning.cells"] += len(joint.probabilities)

    def _after_reconcile_exact(self, span, args, kwargs, joint):
        self.counters["exact.cells"] += len(joint.probabilities)
        self.counters["exact.live_cells"] += int((joint.probabilities > LIVE_CELL_MASS).sum())

    def _after_mcmc(self, span, args, kwargs, joint):
        d = joint.diagnostics
        per_chain = d.n_kept // d.n_chains
        self.counters["conditioning.mcmc_iters"] += d.burn_in + per_chain * d.thin
        self.mcmc_acceptance.extend(np.asarray(d.acceptance_rates, dtype=float).tolist())
        rhat = np.asarray(d.rhat, dtype=float)
        rhat = rhat[np.isfinite(rhat)]  # an infinite R-hat fails the run's checks instead
        if rhat.size:
            self.mcmc_rhat_max = max(self.mcmc_rhat_max, float(rhat.max()))
        chains = joint.draws.reshape(d.n_chains, per_chain, -1)
        ess = [bulk_ess(chains[:, :, j]) for j in range(chains.shape[2])]
        ess = [e for e in ess if np.isfinite(e)]
        if ess:
            self.mcmc_ess_per_s.append(min(ess) / span.duration)

    def _after_energy(self, span, args, kwargs, result):
        self.counters["scoring.energy_rows"] += len(args[0]) + len(args[1])

    def _after_values(self, span, args, kwargs, result):
        self.counters["scoring.ScoreReport.values.rows_scanned"] += len(args[0].rows)

    # -- reporting -----------------------------------------------------------

    def self_times(self, name: str) -> list[float]:
        """Per span of `name`: its duration minus the part covered by its children."""
        children = defaultdict(list)
        for span in self.spans:
            if span.parent >= 0:
                children[span.parent].append((span.start, span.end))
        out = []
        for span in self.spans:
            if span.name != name:
                continue
            covered, reach = 0.0, span.start
            for start, end in sorted(children[span.index]):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            out.append(span.duration - covered)
        return out

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; sums are per traced round."""
        per_round = 1.0 / max(rounds, 1)
        outer = defaultdict(list)
        for span in self.spans:
            if not span.nested:
                outer[span.name].append(span)
        out = {}
        for name in SPAN_NAMES:
            spans = outer[name]
            out[f"{name}.calls"] = (len(spans) * per_round, "count")
            out[f"{name}.s"] = (sum(s.duration for s in spans) * per_round, "s")
            out[f"{name}.errors"] = (sum(s.error for s in spans) * per_round, "count")
        series_ms = [s.duration * 1e3 for s in outer["harness.reconcile_series"]]
        out["harness.reconcile_series.p50_ms"] = (
            float(np.median(series_ms)) if series_ms else 0.0, "ms")
        for name in ("harness.run_reconcile", "harness.run_score"):
            out[f"{name}.self_s"] = (sum(self.self_times(name)) * per_round, "s")

        c = self.counters
        out["conditioning.cells"] = (c["conditioning.cells"] * per_round, "count")
        out["conditioning.live_cell_frac"] = (
            c["exact.live_cells"] / c["exact.cells"] if c["exact.cells"] else 0.0, "ratio")
        iters = c["conditioning.mcmc_iters"]
        mcmc_s = sum(s.duration for s in outer["conditioning.reconcile_mcmc"])
        out["conditioning.mcmc_iters"] = (iters * per_round, "count")
        out["conditioning.mcmc_us_per_iter"] = (mcmc_s * 1e6 / iters if iters else 0.0, "us")
        out["conditioning.mcmc_acceptance"] = (
            float(np.mean(self.mcmc_acceptance)) if self.mcmc_acceptance else 0.0, "ratio")
        out["conditioning.mcmc_rhat_max"] = (self.mcmc_rhat_max, "ratio")
        out["conditioning.mcmc_min_ess_per_s"] = (
            float(np.median(self.mcmc_ess_per_s)) if self.mcmc_ess_per_s else 0.0, "1/s")
        out["conditioning.summarize_atoms"] = (
            c["conditioning.summarize_atoms"] * per_round, "count")
        out["scoring.energy_rows"] = (c["scoring.energy_rows"] * per_round, "count")
        out["scoring.ScoreReport.values.rows_scanned"] = (
            c["scoring.ScoreReport.values.rows_scanned"] * per_round, "count")
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "i": s.index, "name": s.name, "parent": s.parent, "round": s.round,
                    "series": s.series, "start": s.start - self._t0,
                    "end": s.end - self._t0, "error": s.error,
                }) + "\n")


def bulk_ess(chains: np.ndarray) -> float:
    """Bulk effective sample size of one coordinate; chains has shape (chains, draws).

    Rank-normalized split-chain ESS (Vehtari, Gelman, Simpson, Carpenter and
    Buerkner 2021) with Geyer's initial monotone sequence. NaN when every
    draw is equal.
    """
    n_chains, n_draws = chains.shape
    half = n_draws // 2
    x = np.concatenate([chains[:, :half], chains[:, half: 2 * half]]).astype(float)
    if half < 4 or np.ptp(x) == 0:
        return float("nan")
    ranks = stats.rankdata(x, method="average").reshape(x.shape)
    z = stats.norm.ppf((ranks - 0.375) / (x.size + 0.25))
    m, n = z.shape
    centred = z - z.mean(axis=1, keepdims=True)
    nfft = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centred, n=nfft, axis=1)
    acov = np.fft.irfft(spectrum * np.conj(spectrum), n=nfft, axis=1)[:, :n] / n
    within = (acov[:, 0] * n / (n - 1)).mean()
    var_plus = within * (n - 1) / n + z.mean(axis=1).var(ddof=1)
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    # Geyer: sum adjacent pairs while positive, forcing them non-increasing
    pair_sums = rho[: n - n % 2].reshape(-1, 2).sum(axis=1)
    stop = np.nonzero(pair_sums <= 0)[0]
    pair_sums = pair_sums[: stop[0] if stop.size else pair_sums.size]
    pair_sums = np.minimum.accumulate(pair_sums)
    tau = -1.0 + 2.0 * pair_sums.sum()
    return float(m * n / max(tau, 1.0 / np.log10(m * n)))
