"""The benchmark's tracer (`perfbench/tracing.py`) still fits the library.

The tracer wraps functions by patching module and class attributes by name.
A wrapped name that the library no longer has makes `install` fail. A
function that the library binds at import time, in a table say, is called
past its wrapper, so its span count reads 0.
"""

import json
from pathlib import Path

from helpers import write_config
from reconc import harness

H2 = {"bottom_period_count": 2, "factors": [2]}
FORECASTS = {"b1": {"dist": "poisson", "lambda": 2}, "b2": {"dist": "poisson", "lambda": 4},
             "agg2_1": {"dist": "poisson", "lambda": 9}}

#: spans that a run of every method plus one score call must open
CALLED = ("harness.reconcile_series", "conditioning.reconcile_mcmc", "conditioning.summarize",
          "mint.reconcile_gaussian", "mint.reconcile_truncated", "harness.run_score",
          "scoring.rps")


def test_the_benchmark_tracer_sees_every_traced_layer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracing import Tracer

    (tmp_path / "fc.json").write_text(json.dumps(FORECASTS))
    rows = "".join(f"series,{t},{v}\n" for t, v in enumerate([1, 3, 2, 5, 3, 6]))
    (tmp_path / "obs.csv").write_text("series_id,t,value\n" + rows)
    tracer = Tracer()
    tracer.install()
    try:
        method_dirs = {}
        for method in harness.METHODS:
            cfg = harness.load_config(write_config(
                tmp_path / f"cfg_{method}.json", hierarchy=H2, method=method,
                forecasts="fc.json", output_dir=f"out_{method}"))
            tracer.series_by_seed = {cfg.sampler.seed: "series"}  # the one series' seed
            method_dirs[method] = str(harness.run_reconcile(cfg, quiet=True))
        harness.run_score(harness.load_config(write_config(
            tmp_path / "cfg_score.json", hierarchy=H2, methods=method_dirs,
            output_dir="scores")), quiet=True)
    finally:
        tracer.uninstall()

    metrics = tracer.metrics(rounds=1)
    assert [name for name in CALLED if not metrics[f"{name}.calls"][0]] == []
    series = [span.series for span in tracer.spans if span.name == "harness.reconcile_series"]
    assert series == ["series"] * len(harness.METHODS)
