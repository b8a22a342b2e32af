"""Print the size of each src/csamp module: `wc -l` lines, code lines and
raise sites; then the settable options.

A code line is a non-blank line that holds a code token; comments and
docstrings (the leading string of a module, class or function body) are
left out.  A raise site is a `raise` statement of an input fault: one that
names ValueError, UsageError or InstanceFormatError (the input rules of
model.INPUT_RULES raise from one site).  The settable options, printed
for a package with a cli module, are the rows of each subcommand's option
table (cli._COMMANDS) and the fields of RecoverySettings and GridConfig.
Run from anywhere: `python tools/code_lines.py [package_dir]`.
"""

from __future__ import annotations

import ast
import importlib
import io
import sys
import tokenize
from dataclasses import fields
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "csamp"
INPUT_FAULTS = {"ValueError", "UsageError", "InstanceFormatError"}
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


def raise_sites(tree: ast.AST) -> int:
    """The raise statements of tree whose exception names an INPUT_FAULTS
    class, called or bare."""
    sites = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            sites += isinstance(exc, ast.Name) and exc.id in INPUT_FAULTS
    return sites


def count(source: str) -> tuple[int, int, int]:
    """(wc -l lines, code lines, raise sites) of one module's source."""
    tree = ast.parse(source)
    skip = docstring_lines(tree)
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return source.count("\n"), len(code), raise_sites(tree)


def options(package: Path) -> dict[str, int]:
    """The number of settable options of each subcommand and settings class
    of package, imported from its parent directory."""
    sys.path.insert(0, str(package.resolve().parent))
    cli = importlib.import_module(f"{package.resolve().name}.cli")
    counts = {command: len(rows) for command, (_, rows, _) in cli._COMMANDS.items()}
    counts.update({cls.__name__: len(fields(cls))
                   for cls in (cli.RecoverySettings, cli.GridConfig)})
    return counts


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    totals = [0, 0, 0]
    for path in sorted(package.glob("*.py")):
        sizes = count(path.read_text())
        totals = [t + v for t, v in zip(totals, sizes)]
        print(f"{path.name:16s}" + "".join(f" {v:6,d}" for v in sizes))
    print(f"{'total':16s}" + "".join(f" {v:6,d}" for v in totals))
    if (package / "cli.py").exists():
        print("settable options")
        for name, n in options(package).items():
            print(f"{name:17s}{n:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
