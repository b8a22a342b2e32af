"""Run pytest and print each src/csamp statement that never executed.

coverage.py is not a dependency, so this is a stdlib line tracer
(sys.settrace): it records the lines that run in csamp's frames while
pytest runs in this process, then lists, per module, the statements none
of whose own lines ran.  A statement's own lines are the lines of its
header (for a compound statement, up to its first body statement; its
decorators included), else all of its lines; docstrings are not
statements here.  Code that runs only in worker processes (sweeps with
workers > 1) or in a subprocess is not seen, and so is listed.

Run from the repo root, with pytest's arguments:
`python tools/unrun_lines.py tests/test_cli.py tests/test_experiments.py -q`.
It prints `path:line: source` per unrun statement and a count.  It exits
with pytest's status where that is nonzero, else with 1 if a statement never
ran and 0 if every one did, so `python tools/unrun_lines.py tests --ignore
tests/test_acceptance.py -q` exiting 0 says the quick suite runs every
statement.  Tracing makes the tests several times slower.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "csamp"


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _code_lines(code) -> set[int]:
    """The lines that hold bytecode, in code and the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def statements(source: str) -> dict[int, set[int]]:
    """{first line: own lines} of each statement of one module's source that
    compiles to bytecode (a nonlocal declaration does not)."""
    code = _code_lines(compile(source, "<module>", "exec"))
    out: dict[int, set[int]] = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or _is_docstring(node):
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = [child for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt)]
        end = min(child.lineno for child in body) - 1 if body else node.end_lineno
        own = set(range(start, max(end, node.lineno) + 1))
        if own & code:
            out[start] = own
    return out


def trace_pytest(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status on args, and the lines run per csamp file."""
    import pytest

    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    status, ran = trace_pytest(argv)
    report = []
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        seen = ran.get(str(path), set())
        for first, own in sorted(statements(source).items()):
            total += 1
            if not own & seen:
                report.append(f"{path.relative_to(SRC.parent)}:{first}: "
                              f"{lines[first - 1].strip()}")
    unrun = len(report)
    report.append(f"{unrun} of {total} statements in {PACKAGE.relative_to(SRC.parent)} never ran")
    try:
        print("\n".join(report), flush=True)
    except BrokenPipeError:  # the reader closed the pipe early (`| head`): end quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status or int(unrun > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
