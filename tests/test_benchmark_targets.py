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


def test_traced_run_keeps_rows_and_restores_csamp(monkeypatch):
    # a traced run_grids gives the untraced rows, records spans, and leaves
    # every csamp name and DenoiserParams.__init__ as it found them
    import csamp.cli  # noqa: F401  (the tracer looks it up in sys.modules)
    from csamp.denoiser import DenoiserParams
    from csamp.experiments import GridConfig, run_grids

    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    before = {name: dict(vars(module)) for name, module in sys.modules.items()
              if name == "csamp" or name.startswith("csamp.")}
    init = DenoiserParams.__init__
    cfg = GridConfig(n=24, m_ratios=(0.5,), k_ratios=(0.2, 0.4), trials=2, base_seed=7)
    plain = run_grids(cfg)
    trace = tracer.Trace()
    with tracer.traced(trace):
        traced = run_grids(cfg)
    assert [sweep.rows for sweep in traced] == [sweep.rows for sweep in plain]
    assert any(stats.calls for stats in trace.spans.values())
    changed = [f"{name}.{attr}" for name, attrs in before.items()
               for attr, value in attrs.items() if vars(sys.modules[name])[attr] is not value]
    assert not changed
    assert DenoiserParams.__init__ is init
