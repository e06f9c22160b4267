"""Print the size of the ``nodalcat`` package: lines and code lines.

Code lines leave out blank lines, comment lines and docstrings (a string
that is the first statement of a module, class or function).  Standard
library only.

    python3 tools/loc.py [package directory, default src/nodalcat]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(lines, code lines) of one Python source text."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent / "src" / "nodalcat")
    lines = code = 0
    for path in sorted(root.rglob("*.py")):
        a, b = count(path.read_text(encoding="utf-8"))
        lines, code = lines + a, code + b
    print(f"{root.name}: {lines} lines, {code} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
