"""Seeded mutations of valid inputs, generated from the input tables.

Each valid input file (config, forecast file, hierarchy file) is walked
alongside its table (`harness.CONFIG`, `distributions.FORECAST_ENTRY` per
entry, `hierarchy.HIERARCHY_FILE`). At every value the walk meets, each
mutation that fits the value's type is applied in turn: drop the key, null,
a value of another JSON type, `true` for a number, NaN and a negative number
where the table states a range or an integer, a non-integer for an integer,
and an unknown key in an object; and a UTF-8 byte-order mark before each
file. A forecast parameter has no range in its table, because its
distribution checks its domain; those checks are tested in
`test_distributions.py` and `test_cli.py`.

Each mutated input must either exit 2 with a message that names every part
of the mutated key path, or exit 0 with outputs equal to those of the valid
input, and then only by a rule the table states: a key that is not required
reads as its default when left out (every such key of the valid inputs
holds its default, or is one the run does not read), a null reads as the key
left out where the row allows null, an object with a `rest` type takes any
key of that type, and a file is read after its byte-order mark. The
replacement values are drawn from a seeded numpy generator, so the cases
are fixed.
"""

import contextlib
import copy
import io
import json
import math
import warnings

import numpy as np
import pytest

from helpers import key_paths
from reconc import distributions, harness, hierarchy, schema
from reconc.cli import main

UNKNOWN = "zz_unknown"
H2 = {"bottom_period_count": 2, "factors": [2]}
COUNT_FORECASTS = {
    "s1": {"b1": {"dist": "poisson", "lambda": 2.0}, "b2": {"dist": "negbin", "r": 2.0, "p": 0.5},
           "agg2_1": {"dist": "tabulated", "probs": [0.25, 0.25, 0.25, 0.25]}},
    "s2": {"b1": {"samples": [0, 2, 1, 0, 4]}, "b2": {"dist": "poisson", "lambda": 1.0},
           "agg2_1": {"dist": "poisson", "lambda": 3.0}},
}
GAUSSIAN_FORECASTS = {"s1": {label: {"dist": "gaussian", "mean": 2.0, "var": 1.5}
                             for label in ("b1", "b2", "agg2_1")}}
FILE_FORECASTS = {"s1": {"b1": {"dist": "poisson", "lambda": 2.0},
                         "b2": {"dist": "poisson", "lambda": 1.0},
                         "u1": {"dist": "poisson", "lambda": 3.0}}}
HIERARCHY_FILE = {"m": 2, "labels": ["u1", "b1", "b2"], "A": [[1, 1]]}


def base_config(method: str, hierarchy_section: dict) -> dict:
    """A 2-bottom config that names every config key, each optional one at its default."""
    return {"hierarchy": hierarchy_section, "method": method, "forecasts": "fc.json",
            "observations": "obs.csv", "test_length": 2, "output_dir": "out",
            "sampler": {"chains": 4, "draws": 10000, "burn_in": None, "thin": 10, "seed": None},
            "scoring": {"alpha": 0.1, "baseline": "normal"},
            "methods": {"probCount_exact": "out"}}


#: name -> {file name: valid content}
BASES = {
    "count": {"cfg.json": base_config("probCount_exact", H2), "fc.json": COUNT_FORECASTS},
    "gaussian": {"cfg.json": base_config("normal", H2), "fc.json": GAUSSIAN_FORECASTS},
    "file": {"cfg.json": base_config("probCount_exact", {"a_matrix_file": "h.json"}),
             "fc.json": FILE_FORECASTS, "h.json": HIERARCHY_FILE},
}


def sites(kind, value, path=(), parts=(), name=lambda key: [key], row=None):
    """Yield (path, kind, row, parts) for `value` and each value inside it, walked
    alongside `kind`; `parts` are the strings a refusal at that path must hold."""
    yield path, kind, row, list(parts)
    if isinstance(kind, schema.Forms):
        kind = kind.forms[kind.pick(value)]
    if isinstance(kind, schema.Object):
        rows = {r.key: r for r in kind.rows}
        for key, item in value.items():
            yield from sites(rows[key].kind if key in rows else kind.rest, item, path + (key,),
                             [*parts, *name(key)], name, rows.get(key))
    elif isinstance(kind, schema.Array):
        for k, item in enumerate(value):
            yield from sites(kind.item, item, path + (k,),
                             [*parts] + ([] if kind.each else [f"[{k}]"]), name)


def wrong_type(kind, rng):
    if isinstance(kind, schema.Value):
        pool = [5, [1]] if kind.types == schema.STRING.types else ["2", "x"]
    else:
        pool = ["2", {"a": 1}] if isinstance(kind, schema.Array) else [["x"], "x", 3]
    return pool[rng.integers(len(pool))]


def mutations(kind, row, rng):
    """Yield (label, change, benign by a stated rule) for a value of `kind` at `row`."""
    if row is not None:
        yield "drop", ("drop",), not row.required
    yield "null", ("set", None), row is not None and row.null
    yield "wrong type", ("set", wrong_type(kind, rng)), False
    if isinstance(kind, schema.Object):
        rest = isinstance(kind.rest, schema.Value)
        yield "unknown key", ("add", "x" if rest else 1), rest
    elif isinstance(kind, schema.Value) and kind.types != schema.STRING.types:
        yield "true", ("set", True), False
        if kind.range is not None or kind.types == schema.INT.types:
            yield "NaN", ("set", math.nan), False
        if kind.range is not None and kind.range.low >= 0:
            yield "negative", ("set", -int(rng.integers(1, 100))), False
        if kind.types == schema.INT.types:
            yield "non-integer", ("set", int(rng.integers(1, 5)) + 0.5), False


def apply(doc, path, change):
    """A copy of `doc` with `change` made at `path`."""
    doc = copy.deepcopy(doc)
    if not path and change[0] == "set":
        return change[1]
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if change[0] == "add":
        (parent[path[-1]] if path else doc)[UNKNOWN] = change[1]
    elif change[0] == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = change[1]
    return doc


def file_sites(fname, doc):
    if fname == "cfg.json":
        return sites(harness.CONFIG, doc)
    if fname == "h.json":
        return sites(hierarchy.HIERARCHY_FILE, doc)
    return (site for sid, nodes in doc.items() for label, entry in nodes.items()
            for site in sites(distributions.FORECAST_ENTRY, entry, (sid, label),
                              [f"series {sid!r}", f"node {label!r}"], lambda key: [repr(key)]))


def picks_a_form(forecasts: dict, path) -> bool:
    """Whether the entry at path[:2] still names a form by `dist` or `samples`."""
    entry = forecasts[path[0]][path[1]]
    return distributions.FORECAST_ENTRY.pick(entry) in distributions.FORECAST_ENTRY.forms


def cases():
    rng = np.random.default_rng(20220)
    out = []
    for base, files in BASES.items():
        for fname, doc in files.items():
            for path, kind, row, parts in file_sites(fname, doc):
                for label, change, benign in mutations(kind, row, rng):
                    named = parts + [UNKNOWN] if label == "unknown key" else parts
                    mutated = apply(doc, path, change)
                    if fname == "fc.json" and len(path) == 3 and not picks_a_form(mutated, path):
                        named = parts[:2] + ["'dist'"]  # no form: refused by its form key
                    text = ".".join(map(str, path)) or "root"
                    out.append(pytest.param(base, fname, mutated, named, benign,
                                            id=f"{base}-{fname}-{text}-{label}"))
            out.append(pytest.param(base, fname, "\ufeff" + json.dumps(doc), [], True,
                                    id=f"{base}-{fname}-BOM"))
    return out


def run(root, base, replace: dict):
    """Reconcile a base's files with `replace` swapped in: (exit code, stderr, outputs)."""
    root.mkdir()
    (root / "obs.csv").write_text("series_id,t,value\n")
    for fname, doc in {**BASES[base], **replace}.items():
        (root / fname).write_text(doc if isinstance(doc, str) else json.dumps(doc),
                                  encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["reconcile", "--config", str(root / "cfg.json"), "--quiet"])
    outputs = {}
    for path in sorted((root / "out").iterdir()) if code == 0 else ():
        if path.suffix == ".npz":  # the archive's member times vary
            with np.load(path) as arrays:
                outputs[path.name] = {k: (arrays[k].dtype.str, arrays[k].shape,
                                          arrays[k].tobytes()) for k in arrays.files}
        else:
            outputs[path.name] = path.read_bytes()
    return code, err.getvalue(), outputs


@pytest.fixture(scope="module")
def base_outputs(tmp_path_factory):
    out = {}
    for base in BASES:
        code, err, outputs = run(tmp_path_factory.mktemp("base") / base, base, {})
        assert (code, err) == (0, ""), err
        assert "summaries.json" in outputs
        out[base] = outputs
    return out


@pytest.mark.parametrize("base, fname, mutated, parts, benign", cases())
def test_mutated_input_is_refused_by_path_or_benign(tmp_path, base_outputs, base, fname,
                                                    mutated, parts, benign):
    code, err, outputs = run(tmp_path / "run", base, {fname: mutated})
    if code == 0:
        assert benign, "exit 0 where no rule of the table makes the mutation benign"
        assert outputs == base_outputs[base]
        return
    assert code == 2, err
    for part in parts:
        assert part in err, f"{part!r} not named in {err!r}"


def test_every_row_of_every_table_is_mutated():
    tables = {"cfg.json": harness.CONFIG, "h.json": hierarchy.HIERARCHY_FILE,
              "fc.json": distributions.FORECAST_ENTRY}
    for fname, table in tables.items():
        mutated = set()
        for files in BASES.values():
            for path, _, _, _ in file_sites(fname, files[fname]) if fname in files else ():
                keys = path[2:] if fname == "fc.json" else path  # past the series and node
                mutated.add(".".join(key for key in keys if isinstance(key, str)))
        assert set(key_paths(table)) <= mutated, (fname, set(key_paths(table)) - mutated)
