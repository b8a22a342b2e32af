"""The benchmark's tracer (perfbench/tracer.py) rebinds csamp functions by
name; a name it lists that csamp no longer has breaks every traced run."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves_on_csamp(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # its dataclasses look it up
    spec.loader.exec_module(tracer)
    missing = [f"csamp.{module}.{attr}" for module, attr, *_ in tracer.TARGETS
               if not callable(getattr(importlib.import_module(f"csamp.{module}"), attr, None))]
    assert not missing
