"""README's library sketch is code that readers copy; it must keep running
against the public API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs(capsys):
    section = README.read_text().split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README}:Library sketch", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2
