"""Print the line count of each module of the package, and in total.

    python tests/line_count.py [SRC_DIR]

SRC_DIR defaults to this repository's `src/reconc`; point it at another
checkout's to compare two versions. Per module, `wc -l` is the count of
newline characters. Its lines are then split four ways: `docstring` lines
lie within a module, class or function docstring (by `ast`), `blank` lines
hold only whitespace, `comment` lines hold only a comment (by `tokenize`),
and every other line is `code`.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

COLUMNS = ("wc -l", "docstring", "blank", "comment", "code")


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers within the docstring of the module and of each class and function."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def split(text: str) -> tuple[int, ...]:
    """(wc -l, docstring, blank, comment, code) line counts of one module's source."""
    docstrings = docstring_lines(ast.parse(text))
    code_tokens = set()  # lines that hold some token other than a comment
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                              tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER):
            code_tokens.update(range(token.start[0], token.end[0] + 1))
    counts = dict.fromkeys(COLUMNS[1:], 0)
    for number, line in enumerate(text.splitlines(), start=1):
        if number in docstrings:
            counts["docstring"] += 1
        elif not line.strip():
            counts["blank"] += 1
        elif number not in code_tokens:
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return (text.count("\n"), *counts.values())


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "reconc"
    rows = [(path.name, split(path.read_text(encoding="utf-8")))
            for path in sorted(src.glob("*.py"))]
    rows.append(("total", tuple(map(sum, zip(*(counts for _, counts in rows))))))
    width = max(len(name) for name, _ in rows)
    print(f"{'module':<{width}}" + "".join(f"{c:>11}" for c in COLUMNS))
    for name, counts in rows:
        print(f"{name:<{width}}" + "".join(f"{n:>11}" for n in counts))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
