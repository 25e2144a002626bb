#!/usr/bin/env python3
"""Size of the ``topobelief`` package: code lines and ``wc -l`` lines per module.

A code line holds at least one token that is not a comment, and is not part
of a docstring (the leading string of a module, class or function body).
Blank, comment-only and docstring lines are left out; every line of a
multi-line token other than a docstring counts.

    python scripts/code_size.py [package-dir]

The package directory defaults to ``src/topobelief`` next to this script.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by every docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docstrings = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path(__file__).parent.parent / "src" / "topobelief"
    rows = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        rows.append((path.name, code_lines(source), source.count("\n")))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'code':>5}  {'wc -l':>5}")
    for name, code, total in rows:
        print(f"{name:<{width}}  {code:>5}  {total:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
