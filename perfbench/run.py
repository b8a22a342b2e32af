"""csamp benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload desk-grids --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a checkout; the package is imported from the
checkout's src/ directory.  With --trace 0 it times reps of the workload's
full result with tracing off and reports the end-to-end metrics; with
--trace 1 it alternates untraced and traced reps and reports per-layer
metrics.  Either way it runs the correctness gates and prints, as its last
line, {"correct", "attempted", "failed", "metrics"} as one JSON object.
--smoke shrinks every workload so a run takes seconds.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before anything can load numpy
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 5
MIN_REPS = 3          # untraced reps of a --trace 0 run
MIN_TRACED_PAIRS = 2  # untraced + traced pairs of a --trace 1 run
COVERAGE_TOL = 0.05

# Executed in-process before measuring and, as setup_s, in fresh interpreters:
# import csamp, then one solve per solver at the desk point (256, 77, 20) and
# one call of each oracle, so every layer is loaded and warm.
WARMUP = """
import csamp
from csamp.experiments import run_algorithm, trial_rng
inst, _ = csamp.make_instance(77, 256, 20, trial_rng(0, 0, 0))
for algo in ("amp", "cbamp", "cbossamp"):
    run_algorithm(algo, inst, 20, csamp.RecoverySettings())
csamp.denoise_numeric(0.5, csamp.DenoiserParams(beta=0.1, gamma=0.5, s2=0.5))
small, _ = csamp.make_instance(6, 10, 2, trial_rng(0, 0, 0))
csamp.exact_mmse(small.A, small.y.re, small.prior, 0.0)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("desk-grids", "paper-snr", "validate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny workloads, one rep each: a check, not a measurement")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def measure_setup(reps: int) -> list[float]:
    """Wall time of fresh interpreters that import csamp and run the warm-up."""
    code = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{WARMUP}"
    times = []
    for _ in range(reps):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                       stdout=subprocess.DEVNULL, cwd=ROOT)
        times.append(perf_counter() - start)
    return times


def fingerprint() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        rev = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "csamp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def reference_time(samples: int = 5, loop: int = 200_000) -> float:
    """Median time of a fixed pure-Python loop that never touches csamp.

    On a shared machine the speed of a core drifts by tens of percent for
    seconds to minutes at a time; timing this loop next to every piece gives
    the speed the piece ran at."""
    times = []
    for _ in range(samples):
        start = perf_counter()
        total = 0
        for i in range(loop):
            total += i
        times.append(perf_counter() - start)
    return statistics.median(times)


def run_rep(pieces, reference: bool = False):
    """One rep: every piece once, each timed.

    Returns (results, piece times, wall, ratios).  With reference=True each
    ratio is a piece time divided by the mean of the reference times taken
    just before and just after that piece; otherwise ratios is None."""
    results, times, refs = [], [], []
    start = perf_counter()
    for _name, call in pieces:
        if reference:
            refs.append(reference_time())
        t = perf_counter()
        results.append(call())
        times.append(perf_counter() - t)
    wall = perf_counter() - start
    if not reference:
        return results, times, wall, None
    refs.append(reference_time())
    ratios = [t / ((a + b) / 2.0) for t, a, b in zip(times, refs, refs[1:])]
    return results, times, wall, ratios


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "csamp" / "__init__.py").is_file():
        print(f"error: no csamp package under {SRC}; run inside a csamp checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_times = [] if args.trace else measure_setup(1 if args.smoke else SETUP_REPS)
    exec(WARMUP, {})

    import gates
    import tracer
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    pieces = workload.pieces()
    min_reps = 1 if args.smoke else MIN_TRACED_PAIRS if args.trace else MIN_REPS
    untraced = {name: [] for name, _ in pieces}
    untraced_ref = {name: [] for name, _ in pieces}
    results, untraced_walls, traced_walls, layer_reps = [], [], [], []

    deadline = perf_counter() + args.seconds
    while True:
        # one untraced rep, followed under --trace 1 by one traced rep
        step_start = perf_counter()
        out, times, _wall, ratios = run_rep(pieces, reference=True)
        results.append(out)
        untraced_walls.append(sum(times))
        for (name, _call), t, r in zip(pieces, times, ratios):
            untraced[name].append(t)
            untraced_ref[name].append(r)
        if args.trace:
            trace = tracer.Trace()
            with tracer.traced(trace):
                out, _times, wall, _ratios = run_rep(pieces)
            results.append(out)
            traced_walls.append(wall)
            layer_reps.append(tracer.layer_metrics(trace, wall))
        step = perf_counter() - step_start
        if len(untraced_walls) >= min_reps and (args.smoke or perf_counter() + step > deadline):
            break

    samples = workload.sample_instances()
    checks = [
        gates.repeatable(results),
        gates.exchange_off_bitwise(samples),
        gates.denoiser_on_pseudo_data(samples),
        *workload.gates(results[0]),
    ]
    summary = workload.summarize(results[0])
    reps = len(results)

    piece_medians = {name: statistics.median(ts) for name, ts in untraced.items()}
    if args.trace:
        layers = {}
        for name in layer_reps[0]:
            values = [rep[name] for rep in layer_reps]
            exact = name in tracer.EXACT_COUNTS
            layers[name] = values[0] if exact else statistics.median(values)
        layers["trace.overhead_share"] = (
            statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0)
        unequal = [n for n in tracer.EXACT_COUNTS
                   if any(rep[n] != layer_reps[0][n] for rep in layer_reps)]
        checks.append(gates.Gate("trace counts repeat across traced reps",
                                 len(tracer.EXACT_COUNTS), not unequal,
                                 ", ".join(unequal) or "all equal"))
        coverage = layers["trace.coverage"]
        checks.append(gates.Gate("layer self times sum to the traced wall time",
                                 len(layer_reps), abs(coverage - 1.0) <= COVERAGE_TOL,
                                 f"coverage = {coverage:.4f}"))
        metrics = {name: {"value": value, "unit": unit}
                   for name, unit, value in _with_units(layers)}
    else:
        metrics = {
            "wall_ref": {"value": sum(statistics.median(v) for v in untraced_ref.values()),
                         "unit": "ref"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MiB"},
            "quality": {"value": summary.quality, "unit": "score"},
        }

    attempted = summary.solves * reps + sum(g.ops for g in checks)
    failed = summary.failed * reps + sum(g.ops for g in checks if not g.passed)
    correct = all(g.passed for g in checks)
    env = fingerprint()

    print(f"workload {args.workload} seed {args.seed} reps {reps} "
          f"(untraced {len(untraced_walls)}, traced {len(traced_walls)})")
    for name, median in piece_medians.items():
        print(f"piece {name} median {median:.4f} s over {len(untraced[name])}")
    print(f"result wall_s = {sum(piece_medians.values()):.6g} s")
    for name, (value, unit) in summary.named.items():
        print(f"result {name} = {value:.6g} {unit}")
    print(f"result failed_share = {failed / attempted:.6g} share "
          f"({failed} of {attempted} operations)")
    for g in checks:
        print(f"gate {'PASS' if g.passed else 'FAIL'} {g.name}: {g.detail}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print("fingerprint " + json.dumps(env, sort_keys=True))

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


def _with_units(layers):
    for name, value in layers.items():
        if name.endswith("_s"):
            unit = "s"
        elif name.endswith("_us"):
            unit = "us"
        elif "_ms_" in name:
            unit = "ms"
        elif name.endswith("_share") or name == "trace.coverage":
            unit = "share"
        elif name.endswith("_flops"):
            unit = "flop"
        elif name.endswith("_bytes"):
            unit = "byte"
        else:
            unit = "count"
        yield name, unit, value


if __name__ == "__main__":
    sys.exit(main())
