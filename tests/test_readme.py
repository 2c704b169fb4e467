"""README's library example runs as written."""

import re
from pathlib import Path

from helpers import GROUND_TRUTH

README = Path(__file__).resolve().parent.parent / "README.md"


def python_block(heading: str) -> str:
    """The first Python code block under a `## heading` of README."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quick_start_runs_as_written(capsys):
    exec(compile(python_block("Library quick start"), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    summaries = {line.split()[0]: line.split()[1:3] for line in lines[:3]}
    assert summaries == {
        label: [str(round(GROUND_TRUTH["means"][label], 3)),
                str(round(GROUND_TRUTH["vars"][label], 3))]
        for label in ("agg2_1", "b1", "b2")}
    assert lines[3].startswith("[")  # the split R-hat per bottom
