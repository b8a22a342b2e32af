"""Print the size of each src/csamp module: `wc -l` lines and code lines.

A code line is a non-blank line that holds a code token; comments and
docstrings (the leading string of a module, class or function body) are
left out.  Run from anywhere: `python tools/code_lines.py [package_dir]`.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "csamp"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(wc -l lines, code lines) of one module's source."""
    skip = docstring_lines(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return source.count("\n"), len(code)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    total_lines = total_code = 0
    for path in sorted(package.glob("*.py")):
        lines, code = count(path.read_text())
        total_lines, total_code = total_lines + lines, total_code + code
        print(f"{path.name:16s} {lines:6,d} {code:6,d}")
    print(f"{'total':16s} {total_lines:6,d} {total_code:6,d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
