"""reconc benchmark: reconcile + score workloads, end to end or traced by layer.

    python3 perfbench/run.py --workload mcmc_monthly --seed 1 --seconds 50 --trace 0

Runs from the root of a source checkout and imports the library from its
`src/`. Load is one process with no extra threads, in a closed loop: a round
(one batch of generated series, reconciled by every method of the workload
and then scored) starts only when the previous one has returned. With
`--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics from spans around the library's
public functions. Every run writes a run record to `.bench_out/`.
"""

from __future__ import annotations

import os

# pinned before numpy loads: one process, no BLAS/OpenMP worker threads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# the configured per-round seeds must apply
os.environ.pop("RECONC_SEED", None)

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import checks
from tracing import Tracer
from workloads import WORKLOADS, write_round

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

#: fresh interpreters timed per run for setup_s; the median is reported
SETUP_REPEATS = 3

SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
import reconc.cli
t1 = time.perf_counter()
reconc.cli.harness.load_config(sys.argv[1])
print(t1 - t0)
"""


@dataclass
class RoundResult:
    index: int
    series: int
    reconcile_s: float = 0.0
    score_s: float = 0.0
    ok_series: int = 0
    attempted: int = 0
    failed: int = 0
    artifact_bytes: int = 0
    #: failed correctness checks: the library returned a wrong output
    problems: list[str] = field(default_factory=list)
    #: exceptions the library raised; `unexpected` holds those outside ReconcError
    errors: list[str] = field(default_factory=list)
    unexpected: int = 0
    #: generated series redrawn because MASE had no scale on them
    redrawn: int = 0


def run_round(wl, seed: int, index: int, rdir: Path, tracer=None) -> RoundResult:
    """Generate, reconcile with every method, score and check one batch."""
    from reconc import harness
    from reconc.errors import ConvergenceWarning, ReconcError

    inputs = write_round(wl, seed, index, rdir)
    score_cfg = harness.load_config(inputs.score_config)
    h = score_cfg.hierarchy
    res = RoundResult(index, len(inputs.series), redrawn=inputs.redrawn)
    failed_ops: dict[str, set[str]] = {sid: set() for sid in inputs.series}

    def record_error(stage: str, exc: Exception):
        res.errors.append(f"{stage}: {type(exc).__name__}: {exc}")
        if not isinstance(exc, ReconcError):
            res.unexpected += 1

    for method in wl.methods:
        cfg = harness.load_config(inputs.method_configs[method])
        if tracer is not None:
            tracer.series_by_seed = {inputs.sampler_seed + i: sid
                                     for i, sid in enumerate(inputs.series)}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            try:
                harness.run_reconcile(cfg, quiet=True)
                raised = None
            except Exception as exc:  # a raising method fails every series it was given
                raised = exc
            res.reconcile_s += time.perf_counter() - start
        if raised is not None:
            record_error(method, raised)
            for sid in inputs.series:
                failed_ops[sid].add(method)
            continue
        summaries = json.loads((inputs.method_dirs[method] / "summaries.json").read_text())
        for sid in inputs.series:
            found = (checks.summary_problems(h, method, summaries[sid], inputs.method_dirs[method])
                     if sid in summaries else ["no summary written"])
            if found:
                failed_ops[sid].add(method)
                res.problems.extend(f"{method}/{sid}: {p}" for p in found)
        if any(issubclass(w.category, ConvergenceWarning) for w in caught) and not any(
                "R-hat" in p for p in res.problems if p.startswith(method + "/")):
            res.problems.append(f"{method}: ConvergenceWarning raised")
            for sid in inputs.series:
                failed_ops[sid].add(method)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # undefined skill cells are reported as 0 by design
        start = time.perf_counter()
        try:
            report = harness.run_score(score_cfg, quiet=True)
        except Exception as exc:  # the batch is one run_score call: all its series fail
            report = None
            record_error("score", exc)
        res.score_s = time.perf_counter() - start
    if report is None:
        for sid in inputs.series:
            failed_ops[sid].add("score")
    else:
        per_series, batch = checks.score_problems(report, inputs.series)
        res.problems.extend(f"score: {p}" for p in batch)
        for sid, found in per_series.items():
            if found or batch:
                failed_ops[sid].add("score")
            res.problems.extend(f"score/{sid}: {p}" for p in found)

    for d in [*inputs.method_dirs.values(), inputs.score_dir]:
        if d.is_dir():
            res.artifact_bytes += sum(f.stat().st_size for f in d.iterdir() if f.is_file())
    res.attempted = len(inputs.series) * (len(wl.methods) + 1)
    res.failed = sum(len(ops) for ops in failed_ops.values())
    res.ok_series = sum(not ops for ops in failed_ops.values())
    shutil.rmtree(rdir, ignore_errors=True)
    return res


def run_traced_round(wl, seed: int, index: int, work: Path, tracer) -> RoundResult:
    tracer.begin_round(index)
    tracer.install()
    try:
        return run_round(wl, seed, index, work / f"traced{index}", tracer)
    finally:
        tracer.uninstall()


def keep_going(started: float, rounds: int, seconds: float) -> bool:
    """Start another round only if it should end within half a round of the budget."""
    elapsed = time.perf_counter() - started
    return elapsed + 0.5 * elapsed / rounds < seconds


def measure_setup(config: Path) -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters that import reconc.cli and load the config."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls, imports = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(config)], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=120,
                              check=True)
        walls.append(time.perf_counter() - start)
        imports.append(float(proc.stdout.strip()))
    return walls, imports


def throughput(rounds: list[RoundResult]) -> float:
    """Median over rounds of series without a failed operation per busy second."""
    return statistics.median(r.ok_series / (r.reconcile_s + r.score_s) for r in rounds)


def end_to_end(rounds: list[RoundResult], setup_walls: list[float]) -> dict:
    # a round with a failed operation has no valid stage time; a failing
    # run_score returns early, so counting it would flatter the median
    timed = [r for r in rounds if r.failed == 0] or rounds
    attempted = sum(r.attempted for r in rounds)
    return {
        "series_per_s": (throughput(rounds), "series/s"),
        "reconcile_s": (statistics.median(r.reconcile_s for r in timed), "s"),
        "score_s": (statistics.median(r.score_s for r in timed), "s"),
        "setup_s": (statistics.median(setup_walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "artifact_mb": (statistics.median(r.artifact_bytes for r in timed) / 1e6, "MB"),
        "ok_rate": (1.0 - sum(r.failed for r in rounds) / attempted, "ratio"),
    }


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def run_record(args, wl) -> dict:
    import numpy
    import reconc
    import scipy

    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": wl.sizes(),
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "reconc": reconc.__version__},
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "reconc_seed_env": os.environ.get("RECONC_SEED"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "reconc" / "__init__.py").is_file():
        print(f"error: no reconc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import reconc

    if Path(reconc.__file__).resolve().parent != SRC / "reconc":
        print(f"error: imported reconc from {reconc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = WORK / f"{wl.name}-{args.seed}-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    record = run_record(args, wl)
    rounds: list[RoundResult] = []
    try:
        setup_inputs = write_round(wl, args.seed, 0, work / "setup")
        setup_walls, import_times = measure_setup(setup_inputs.method_configs[wl.methods[0]])
        record["setup"] = {"wall_s": setup_walls, "import_s": import_times}

        started = time.perf_counter()
        if args.trace:
            tracer = Tracer()
            traced: list[RoundResult] = []
            while not rounds or keep_going(started, len(rounds), args.seconds):
                index = len(rounds)
                # each round runs untraced and traced on the same inputs; the
                # order alternates so that drift in machine speed cancels
                if index % 2:
                    traced.append(run_traced_round(wl, args.seed, index, work, tracer))
                rounds.append(run_round(wl, args.seed, index, work / f"plain{index}"))
                if not index % 2:
                    traced.append(run_traced_round(wl, args.seed, index, work, tracer))
            plain_rate = throughput(rounds)
            metrics = tracer.metrics(len(traced))
            metrics["cli.import_s"] = (statistics.median(import_times), "s")
            metrics["trace.overhead_ratio"] = (
                throughput(traced) / plain_rate if plain_rate > 0 else 0.0, "ratio")
            rounds += traced
            tracer.write(OUT / f"{wl.name}-seed{args.seed}.spans.jsonl")
        else:
            while not rounds or keep_going(started, len(rounds), args.seconds):
                rounds.append(run_round(wl, args.seed, len(rounds),
                                        work / f"round{len(rounds)}"))
            metrics = end_to_end(rounds, setup_walls)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):  # other runs may share it
            WORK.rmdir()

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    correct = not any(r.problems or r.unexpected for r in rounds)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record["sizes"]["series"] = sum(r.series for r in rounds)
    record["sizes"]["redrawn_undefined_mase"] = sum(r.redrawn for r in rounds)
    record["rounds"] = [asdict(r) for r in rounds]
    record["result"] = result
    out_file = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))
    for r in rounds:
        for line in r.errors + r.problems:
            print(f"round {r.index}: {line}", file=sys.stderr)
        if r.redrawn:
            print(f"round {r.index}: redrew {r.redrawn} series with no MASE scale",
                  file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
