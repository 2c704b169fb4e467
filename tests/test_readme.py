"""README's library example runs as written, and its config example loads."""

import re
from pathlib import Path

from helpers import GROUND_TRUTH, key_paths
from reconc import distributions, harness, hierarchy, schema

README = Path(__file__).resolve().parent.parent / "README.md"


def code_block(heading: str, language: str) -> str:
    """The first `language` code block under the README heading `heading`, of any level."""
    section = re.split(rf"\n#+ {re.escape(heading)}\n", README.read_text(encoding="utf-8"),
                       maxsplit=1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quick_start_runs_as_written(capsys):
    exec(compile(code_block("Library quick start", "python"), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    summaries = {line.split()[0]: line.split()[1:3] for line in lines[:3]}
    assert summaries == {
        label: [str(round(GROUND_TRUTH["means"][label], 3)),
                str(round(GROUND_TRUTH["vars"][label], 3))]
        for label in ("agg2_1", "b1", "b2")}
    assert lines[3].startswith("[")  # the split R-hat per bottom


def test_config_file_example_loads(tmp_path, monkeypatch):
    monkeypatch.delenv("RECONC_SEED", raising=False)
    path = tmp_path / "cfg.json"
    path.write_text(code_block("Config file", "json"))
    cfg = harness.load_config(path)
    assert cfg.hierarchy.m == 12 and cfg.method == "probCount_mcmc"
    assert cfg.sampler == harness.SamplerSettings(chains=4, draws=10000, burn_in=None, thin=10,
                                                  seed=1)


def section(heading: str) -> str:
    """The README text under `heading` up to the next heading of any level."""
    text = README.read_text(encoding="utf-8")
    return re.split(r"\n#+ ", re.split(rf"\n#+ {re.escape(heading)}\n", text, maxsplit=1)[1],
                    maxsplit=1)[0]


TABLES = (harness.CONFIG, distributions.FORECAST_ENTRY, hierarchy.HIERARCHY_FILE)
CONFIG_ROW = r"\n  \| `([\w.]+)` \| ([^\n]*)"


def test_readme_names_every_key_of_the_input_tables_and_no_other():
    text = section("Config file") + section("File formats")
    listed = {path for path, _ in re.findall(CONFIG_ROW, section("Config file"))}
    assert listed == set(key_paths(harness.CONFIG))  # the config table: one line per path
    json_keys = set(re.findall(r'"(\w+)"\s*:', text))
    dotted = set(re.findall(r"`((?:hierarchy|sampler|scoring|methods)\.[a-z_]+)`", text))
    named = json_keys | {path.rsplit(".", 1)[-1] for path in listed | dotted}
    keys = {path.rsplit(".", 1)[-1] for table in TABLES for path in key_paths(table)}
    assert keys <= named
    # a methods key names a method; the deprecated scoring keys are named only to say so
    assert named - keys <= set(harness.METHODS) | set(harness.DEPRECATED_SCORING_KEYS)


def test_readme_config_table_states_each_row():
    cells = {path: [c.strip() for c in line.split("|")]
             for path, line in re.findall(CONFIG_ROW, section("Config file"))}
    for path, row in key_paths(harness.CONFIG).items():
        kind = row.kind
        if isinstance(kind, schema.Object):
            words = "object" if kind.rest is None else f"object of {kind.rest.phrase[2:]}s"
        else:
            words = kind.phrase.split(" ", 1)[1]
        item = kind.item if isinstance(kind, schema.Array) else kind
        type_cell, range_cell, default_cell = cells[path][:3]
        assert type_cell == words + (" or null" if row.null else ""), path
        assert range_cell == str(getattr(item, "range", None) or ""), path
        assert default_cell.startswith("required") == row.required, path
        if isinstance(row.default, (int, float, str)):
            assert default_cell.strip("`") == str(row.default), path
