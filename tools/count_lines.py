#!/usr/bin/env python3
"""Print the line counts of a package's Python files: raw lines, and code
lines, which are the lines that are not blank, not only a comment and not
part of a docstring.

    python tools/count_lines.py [DIR]      # DIR defaults to src/ordstat

It prints one row per file and a total row, and always exits 0.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def line_counts(text: str) -> tuple[int, int]:
    """(raw lines, code lines) of one Python source."""
    lines = text.splitlines()
    other = {n for n, line in enumerate(lines, 1) if not line.strip()}
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        row, col = tok.start
        if tok.type == tokenize.COMMENT and not lines[row - 1][:col].strip():
            other.add(row)
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                other.update(range(first.lineno, first.end_lineno + 1))
    return len(lines), len(lines) - len(other)


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src/ordstat")
    total_raw = total_code = 0
    for path in sorted(root.rglob("*.py")):
        raw, code = line_counts(path.read_text(encoding="utf-8"))
        total_raw, total_code = total_raw + raw, total_code + code
        print(f"{raw:6d} {code:6d}  {path}")
    print(f"{total_raw:6d} {total_code:6d}  total (raw, code) in {root}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
