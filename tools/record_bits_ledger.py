"""Re-record the bits ledger, tests/data/bits_ledger.json.

Run it with the csamp to record on the path, in the environment the tests
run in: `PYTHONPATH=src python tools/record_bits_ledger.py [out.json]`.
It writes the environment fingerprint and every digest that
tests/test_bits_ledger.py computes, and prints the names of the digests
that moved against the file it replaces.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

TEST = Path(__file__).resolve().parent.parent / "tests" / "test_bits_ledger.py"


def main(argv: list[str]) -> int:
    spec = importlib.util.spec_from_file_location("test_bits_ledger", TEST)
    ledger = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ledger)
    path = Path(argv[0]) if argv else ledger.LEDGER
    old = json.loads(path.read_text())["digests"] if path.exists() else {}
    new = ledger.digests()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"environment": ledger.environment(), "digests": new},
                               indent=1) + "\n")
    moved = [name for name in new if old.get(name) != new[name]]
    print(f"wrote {len(new)} digests to {path}; moved or new: {len(moved)}")
    for name in moved:
        print(f"  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
