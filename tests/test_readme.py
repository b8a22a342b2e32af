"""README's library sketch and CLI examples are code that readers copy; the
sketch must keep running against the public API, and every example command
must keep parsing."""

import re
import shlex
from pathlib import Path

from csamp.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs(capsys):
    section = README.read_text().split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README}:Library sketch", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2


def test_cli_examples_parse():
    # the csamp commands of the sh blocks, backslash-continued lines joined
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("csamp ")]
    assert len(commands) >= 9
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)
