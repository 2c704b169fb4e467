"""Write the library's reference output tree, or compare two such trees.

    PYTHONPATH=src python tests/same_outputs.py write OUT_DIR
    python tests/same_outputs.py compare OLD_DIR NEW_DIR \\
        [--tol PATTERN=VALUE ...] [--allow-added PATTERN ...]

`write` runs every method of `harness.METHODS` with the builtin forecaster
on the synthetic observations of `helpers.write_synthetic_observations`,
once per hierarchy of `HIERARCHIES` (2, 6 and 12 bottoms). It scores the
methods that reconciled in one `run_score` call per hierarchy, then runs the
three demos at seed 7. A method that raises a `ReconcError` leaves its
message in `<hierarchy>/<method>/error.txt`. To compare two versions of the
library, write one tree with each (point PYTHONPATH at each `src/`).

`compare` walks both trees and exits 1 on any difference it does not allow.
Files that are not byte-equal are compared field by field: JSON values by
key path, CSV cells by row and column, `.npz` arrays by name, and exact
joints (`bottom_support` plus `probabilities`) by the total variation
between them. A field is named `<file>:<path>`, a CSV cell
`<file>:<row>[<text cells>]/<column>`; a JSON list item that is an object
carries its text values in brackets the same way. A numeric difference passes only
under `--tol PATTERN=VALUE`, PATTERN a glob on the field name, and only if
it is at most VALUE x max(1, |old|, |new|). There, numeric lists of unequal length are zero-padded, as a pmf whose
tail was trimmed. Fields and files that only the new tree has pass only
under `--allow-added PATTERN`.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from fnmatch import fnmatch
from pathlib import Path

import numpy as np

HIERARCHIES = {
    "m2": {"bottom_period_count": 2, "factors": [2]},
    "m6": {"bottom_period_count": 6, "factors": [2, 3, 6]},
    "m12": {"bottom_period_count": 12, "factors": [2, 3, 4, 6, 12]},
}
DEMO_SEED = 7


def write_tree(out: Path):
    from helpers import write_config, write_synthetic_observations
    from reconc import harness
    from reconc.errors import ReconcError

    os.environ.pop("RECONC_SEED", None)  # it would override the configured seeds
    for name, hierarchy in HIERARCHIES.items():
        root = out / name
        root.mkdir(parents=True)
        write_synthetic_observations(root / "obs.csv")
        method_dirs = {}
        for method in harness.METHODS:
            cfg = write_config(root / f"cfg_{method}.json", hierarchy=hierarchy,
                               method=method, output_dir=method)
            try:
                harness.run_reconcile(harness.load_config(cfg), quiet=True)
            except ReconcError as exc:
                (root / method).mkdir(exist_ok=True)
                (root / method / "error.txt").write_text(f"{type(exc).__name__}: {exc}\n")
                continue
            method_dirs[method] = method
        cfg = write_config(root / "cfg_score.json", hierarchy=hierarchy,
                           methods=method_dirs, output_dir="scores")
        harness.run_score(harness.load_config(cfg), quiet=True)
    for name in harness.DEMO_NAMES:
        harness.demo(name, out_dir=out / "demos" / name, seed=DEMO_SEED, quiet=True)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


class Comparison:
    def __init__(self, tolerances: dict[str, float], allow_added: list[str]):
        self.tolerances = tolerances
        self.allow_added = allow_added
        self.failures: list[str] = []
        self.added: list[str] = []
        self.tolerated: dict[str, list] = {}  # pattern -> [fields, largest difference]

    def _tolerance(self, key: str) -> tuple[str | None, float]:
        for pattern, tol in self.tolerances.items():
            if fnmatch(key, pattern):
                return pattern, tol
        return None, 0.0

    def difference(self, key: str, diff: float, scale: float, detail: str):
        """Record a numeric difference between values of magnitude up to `scale`."""
        if diff == 0:
            return
        pattern, tol = self._tolerance(key)
        if pattern is not None and diff <= tol * max(1.0, scale):
            entry = self.tolerated.setdefault(pattern, [0, 0.0])
            entry[0] += 1
            entry[1] = max(entry[1], diff)
        else:
            self.failures.append(f"{key}: {detail}")

    def new_only(self, key: str):
        if any(fnmatch(key, pattern) for pattern in self.allow_added):
            self.added.append(key)
        else:
            self.failures.append(f"{key}: only in the new tree")

    def values(self, key: str, a, b):
        if isinstance(a, dict) and isinstance(b, dict):
            for k in sorted(set(a) | set(b)):
                sub = f"{key}/{k}"
                if k not in b:
                    self.failures.append(f"{sub}: only in the old tree")
                elif k not in a:
                    self.new_only(sub)
                else:
                    self.values(sub, a[k], b[k])
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                padded = (self._tolerance(key)[0] is not None
                          and all(_is_number(v) for v in a + b))
                if not padded:
                    self.failures.append(f"{key}: length {len(a)} != {len(b)}")
                    return
                a = a + [0] * (len(b) - len(a))
                b = b + [0] * (len(a) - len(b))
            for i, (x, y) in enumerate(zip(a, b)):
                label = ("[" + "/".join(v for v in x.values() if isinstance(v, str)) + "]"
                         if isinstance(x, dict) else "")
                self.values(f"{key}/{i}{label}", x, y)
        elif _is_number(a) and _is_number(b):
            if a == b or (math.isnan(a) and math.isnan(b)):
                return
            diff = abs(a - b) if math.isfinite(a) and math.isfinite(b) else math.inf
            self.difference(key, diff, max(abs(a), abs(b)), f"{a!r} != {b!r}")
        elif a != b:
            self.failures.append(f"{key}: {a!r} != {b!r}")

    def csv_files(self, key: str, a: Path, b: Path):
        with open(a, newline="") as fa, open(b, newline="") as fb:
            rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
        if not rows_a or not rows_b or rows_a[0] != rows_b[0] or len(rows_a) != len(rows_b):
            self.failures.append(f"{key}: header or row count differs")
            return
        header = rows_a[0]
        for i, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
            label = "/".join(cell for cell in ra if _parse_number(cell) is None)
            for column, x, y in zip(header, ra, rb):
                nx, ny = _parse_number(x), _parse_number(y)
                if nx is not None and ny is not None:
                    self.values(f"{key}:{i}[{label}]/{column}", nx, ny)
                elif x != y:
                    self.failures.append(f"{key}:{i}[{label}]/{column}: {x!r} != {y!r}")

    def npz_files(self, key: str, a: Path, b: Path):
        with np.load(a, allow_pickle=False) as xa, np.load(b, allow_pickle=False) as xb:
            arrays_a = {name: xa[name] for name in xa.files}
            arrays_b = {name: xb[name] for name in xb.files}
        if sorted(arrays_a) != sorted(arrays_b):
            self.failures.append(f"{key}: arrays {sorted(arrays_a)} != {sorted(arrays_b)}")
            return
        if {"bottom_support", "probabilities"} <= set(arrays_a):
            tv = _total_variation(arrays_a, arrays_b)
            self.difference(f"{key}:joint", tv, 1.0, f"total variation {tv:.3g}")
            return
        for name, va in arrays_a.items():
            vb = arrays_b[name]
            if va.shape != vb.shape or va.dtype != vb.dtype:
                self.failures.append(f"{key}:{name}: shape or dtype differs")
                continue
            diff = float(np.max(np.abs(va - vb), initial=0.0))
            scale = float(np.max(np.abs([va, vb]), initial=0.0))
            self.difference(f"{key}:{name}", diff, scale, f"largest difference {diff:.3g}")

    def files(self, rel: str, a: Path, b: Path):
        if a.read_bytes() == b.read_bytes():
            return
        if a.suffix == ".json":
            self.values(rel + ":", json.loads(a.read_text()), json.loads(b.read_text()))
        elif a.suffix == ".csv":
            self.csv_files(rel, a, b)
        elif a.suffix == ".npz":
            self.npz_files(rel, a, b)
        else:
            self.failures.append(f"{rel}: contents differ")


def _total_variation(a: dict, b: dict) -> float:
    """Total variation distance between two exact joints given as atom arrays."""
    support_a, support_b = a["bottom_support"], b["bottom_support"]
    if support_a.shape[1] != support_b.shape[1]:
        return 1.0
    dims = np.maximum(support_a.max(axis=0), support_b.max(axis=0)) + 1
    size = int(np.prod(dims))
    masses = [np.bincount(np.ravel_multi_index(s.T, dims), weights=p, minlength=size)
              for s, p in ((support_a, a["probabilities"]), (support_b, b["probabilities"]))]
    return 0.5 * float(np.abs(masses[0] - masses[1]).sum())


def compare_trees(old: Path, new: Path, comparison: Comparison) -> int:
    """Compare every file of two trees; returns the number of files compared."""
    old_files = {p.relative_to(old).as_posix() for p in old.rglob("*") if p.is_file()}
    new_files = {p.relative_to(new).as_posix() for p in new.rglob("*") if p.is_file()}
    for rel in sorted(old_files - new_files):
        comparison.failures.append(f"{rel}: only in the old tree")
    for rel in sorted(new_files - old_files):
        comparison.new_only(rel)
    for rel in sorted(old_files & new_files):
        comparison.files(rel, old / rel, new / rel)
    return len(old_files & new_files)


def _tolerance_arg(text: str) -> tuple[str, float]:
    pattern, _, value = text.rpartition("=")
    if not pattern:
        raise argparse.ArgumentTypeError(f"expected PATTERN=VALUE, got {text!r}")
    return pattern, float(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_write = sub.add_parser("write", help="write the reference output tree")
    p_write.add_argument("out", type=Path, help="directory to create")
    p_cmp = sub.add_parser("compare", help="compare two reference output trees")
    p_cmp.add_argument("old", type=Path)
    p_cmp.add_argument("new", type=Path)
    p_cmp.add_argument("--tol", type=_tolerance_arg, action="append", default=[],
                       metavar="PATTERN=VALUE", help="tolerance on matching numeric fields")
    p_cmp.add_argument("--allow-added", action="append", default=[], metavar="PATTERN",
                       help="fields or files that only the new tree may have")
    args = parser.parse_args(argv)

    if args.command == "write":
        if args.out.exists():
            parser.error(f"{args.out} exists")
        write_tree(args.out)
        return 0
    comparison = Comparison(dict(args.tol), args.allow_added)
    n_files = compare_trees(args.old, args.new, comparison)
    print(f"{n_files} files in both trees")
    for pattern, (count, largest) in comparison.tolerated.items():
        print(f"within tolerance {pattern}: {count} fields, largest absolute difference {largest:.3g}")
    if comparison.added:
        print(f"only in the new tree (allowed): {len(comparison.added)}, e.g. {comparison.added[0]}")
    for line in comparison.failures:
        print(f"DIFFERS {line}")
    print("same outputs" if not comparison.failures
          else f"{len(comparison.failures)} differences")
    return 1 if comparison.failures else 0


if __name__ == "__main__":
    sys.exit(main())
