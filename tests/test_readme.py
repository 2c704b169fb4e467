"""README's library example runs as written, and its config example loads."""

import re
from pathlib import Path

from helpers import GROUND_TRUTH
from reconc import harness

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
