"""Count the lines and the code lines of each module under src/.

A code line is a line that is not blank, not only a comment and not part
of a docstring (the string that opens a module, class or function).  Run
from the repository root:

    python3 tests/code_lines.py [DIR]

It prints each module's lines and code lines, then the totals.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of code lines in the Python source text."""
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(text)))


def main(root: str = "src") -> None:
    total = code = 0
    for path in sorted(Path(root).rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        n, c = len(text.splitlines()), code_lines(text)
        total, code = total + n, code + c
        print(f"{str(path):40} {n:6} {c:6}")
    print(f"{'total':40} {total:6} {code:6}")


if __name__ == "__main__":
    main(*sys.argv[1:])
