"""Outside-in tracer for csamp: timing spans around each module's public
functions, installed by replacing module attributes and restored on exit.

Every wrapped call is a span with a parent (the innermost enclosing span).
Spans are folded into per-name aggregates as they close: calls, busy time
(summed duration) and self time (duration minus the part covered by child
spans).  Solve spans also keep their individual durations, and a few hooks
read counts off results (iterations, convergence) or shapes (matvec work).
Nothing inside src/ is edited; only names are rebound while a trace runs.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

SOLVE_SPANS = ("amp.camp_recover", "bamp.cbamp_recover", "bossamp.cbossamp_recover")


@dataclass
class SpanStats:
    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    durations: list = field(default_factory=list)


class Trace:
    """Aggregated spans and counters of one traced stretch of work."""

    def __init__(self):
        self.spans: dict[str, SpanStats] = {}
        self.counts: dict[str, float] = {}
        self._stack: list[list[float]] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn, on_result=None):
        stats = self.spans.setdefault(name, SpanStats())
        keep = name in SOLVE_SPANS
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats.calls += 1
                stats.busy += elapsed
                stats.self_time += elapsed - children[0]
                if keep:
                    stats.durations.append(elapsed)
            if on_result is not None:
                on_result(self, args, out)
            return out

        return traced


# --- hooks: counts read off arguments and results ---------------------------

def _matvec_work(trace: Trace, shape, iterations: int) -> None:
    """Two matvecs per part-iteration (A.T @ z and A @ x): 2*M*N flops each;
    each streams A (8*M*N bytes) plus its input and output vectors."""
    m, n = shape
    trace.count("kernel.matvec_flops", iterations * 2 * 2 * m * n)
    trace.count("kernel.matvec_bytes", iterations * 2 * 8 * (m * n + m + n))


def _step_hook(trace, args, out):
    _matvec_work(trace, np.shape(args[0]), 1)


def _amp_part_hook(trace, args, out):
    _matvec_work(trace, np.shape(args[0]), out.iterations)


def _solve_hook(layer):
    def hook(trace, args, out):
        trace.count(f"{layer}.iterations", out.iterations)
        trace.count(f"{layer}.converged", int(out.converged))
    return hook


# (module, attribute, span name, result hook); the span name's prefix is the
# layer.  detect_em_cbamp is left out because it only forwards to detect_em.
TARGETS = (
    ("experiments", "run_phase_transition", "experiments.run_phase_transition", None),
    ("experiments", "run_support_phase_transition",
     "experiments.run_support_phase_transition", None),
    ("experiments", "run_nmse_sweep", "experiments.run_nmse_sweep", None),
    ("experiments", "run_algorithm", "experiments.run_algorithm", None),
    ("experiments", "trial_rng", "experiments.trial_rng", None),
    ("cli", "denoiser_validation_rows", "cli.denoiser_validation_rows", None),
    ("cli", "oracle_validation_rows", "cli.oracle_validation_rows", None),
    ("model", "make_instance", "model.make_instance", None),
    ("model", "nmse", "model.nmse", None),
    ("amp", "camp_recover", "amp.camp_recover", _solve_hook("amp")),
    ("amp", "amp_recover", "amp.amp_recover", _amp_part_hook),
    ("amp", "soft_threshold", "amp.soft_threshold", None),
    ("bamp", "cbamp_recover", "bamp.cbamp_recover", _solve_hook("bamp")),
    ("bamp", "bamp_recover", "bamp.bamp_recover", None),
    ("bamp", "bamp_step", "bamp.bamp_step", _step_hook),
    ("bossamp", "cbossamp_recover", "bossamp.cbossamp_recover", _solve_hook("bossamp")),
    ("bossamp", "likelihood_update", "bossamp.likelihood_update", None),
    ("bossamp", "prior_update", "bossamp.prior_update", None),
    ("denoiser", "denoise", "denoiser.denoise", None),
    ("denoiser", "denoise_deriv", "denoiser.denoise_deriv", None),
    ("denoiser", "denoise_numeric", "denoiser.denoise_numeric", None),
    ("denoiser", "exact_mmse", "denoiser.exact_mmse", None),
    ("support", "detect_em", "support.detect_em", None),
    ("support", "detect_prior_based", "support.detect_prior_based", None),
    ("support", "support_metrics", "support.support_metrics", None),
)

LAYERS = ("experiments", "cli", "model", "amp", "bamp", "bossamp", "denoiser", "support")


@contextmanager
def traced(trace: Trace):
    """Rebind every csamp reference to the target functions (including the
    copies other modules imported by name) to traced wrappers; the
    DenoiserParams constructor is traced through its class __init__."""
    import csamp  # noqa: F401  (loads every submodule)

    modules = [m for name, m in sys.modules.items()
               if name == "csamp" or name.startswith("csamp.")]
    undo = []
    try:
        for mod_name, attr, span, hook in TARGETS:
            original = getattr(sys.modules[f"csamp.{mod_name}"], attr)
            wrapper = trace.wrap(span, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        params_cls = sys.modules["csamp.denoiser"].DenoiserParams
        init = params_cls.__init__
        undo.append((params_cls, "__init__", init))
        params_cls.__init__ = trace.wrap("denoiser.DenoiserParams", init)
        yield trace
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


# --- reduction to per-layer metrics ------------------------------------------

def _pct(values, q):
    return float(np.percentile(values, q)) * 1e3 if values else 0.0


def layer_metrics(trace: Trace, wall: float) -> dict[str, float]:
    """Per-layer numbers of one traced rep whose wall time was `wall`."""
    spans = trace.spans
    counts = trace.counts

    def calls(*names):
        return sum(spans[n].calls for n in names if n in spans)

    def busy(*names):
        return sum(spans[n].busy for n in names if n in spans)

    out: dict[str, float] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, stats in spans.items():
        layer_self[name.split(".", 1)[0]] += stats.self_time
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    out["experiments.trials"] = calls("experiments.trial_rng")
    out["model.make_instance.calls"] = calls("model.make_instance")
    out["model.make_instance.busy_s"] = busy("model.make_instance")
    out["model.nmse.busy_s"] = busy("model.nmse")
    for layer, solve in zip(("amp", "bamp", "bossamp"), SOLVE_SPANS):
        solves = calls(solve)
        durations = spans[solve].durations if solve in spans else []
        out[f"{layer}.solves"] = solves
        out[f"{layer}.iterations"] = counts.get(f"{layer}.iterations", 0)
        out[f"{layer}.converged_share"] = (
            counts.get(f"{layer}.converged", 0) / solves if solves else 0.0
        )
        out[f"{layer}.solve_ms_p50"] = _pct(durations, 50)
        out[f"{layer}.solve_ms_p90"] = _pct(durations, 90)
    out["amp.soft_threshold.busy_s"] = busy("amp.soft_threshold")
    steps = calls("bamp.bamp_step")
    out["bamp.step.calls"] = steps
    out["bamp.step.self_us"] = (
        spans["bamp.bamp_step"].self_time / steps * 1e6 if steps else 0.0
    )
    out["bossamp.exchange.calls"] = calls("bossamp.likelihood_update")
    out["bossamp.exchange.busy_s"] = busy("bossamp.likelihood_update",
                                          "bossamp.prior_update")
    out["denoiser.calls"] = calls("denoiser.denoise", "denoiser.denoise_deriv")
    out["denoiser.params.busy_s"] = busy("denoiser.DenoiserParams")
    out["denoiser.denoise.busy_s"] = busy("denoiser.denoise")
    out["denoiser.deriv.busy_s"] = busy("denoiser.denoise_deriv")
    out["denoiser.exact_mmse.calls"] = calls("denoiser.exact_mmse")
    out["denoiser.exact_mmse.busy_s"] = busy("denoiser.exact_mmse")
    out["denoiser.numeric.calls"] = calls("denoiser.denoise_numeric")
    out["denoiser.numeric.busy_s"] = busy("denoiser.denoise_numeric")
    out["support.detect.calls"] = calls("support.detect_em", "support.detect_prior_based")
    out["support.detect.busy_s"] = busy("support.detect_em", "support.detect_prior_based")
    out["support.metrics.busy_s"] = busy("support.support_metrics")
    out["kernel.matvec_flops"] = counts.get("kernel.matvec_flops", 0)
    out["kernel.matvec_bytes"] = counts.get("kernel.matvec_bytes", 0)
    out["trace.coverage"] = sum(layer_self.values()) / wall if wall > 0 else 0.0
    return out


# metrics that must repeat exactly from one traced rep to the next
EXACT_COUNTS = (
    "experiments.trials", "model.make_instance.calls",
    "amp.solves", "amp.iterations", "bamp.solves", "bamp.iterations",
    "bossamp.solves", "bossamp.iterations", "bamp.step.calls",
    "bossamp.exchange.calls", "denoiser.calls", "denoiser.exact_mmse.calls",
    "denoiser.numeric.calls", "support.detect.calls",
    "kernel.matvec_flops", "kernel.matvec_bytes",
)
