"""The bits ledger: SHA-256 digests of a fixed set of small outputs, against
the digests recorded in tests/data/bits_ledger.json.

A refactor that claims "same outputs" passes this unedited.  The digests
cover the sweep CSVs (the bytes of each written file), the oracle and
denoiser validation rows, the bytes of every field of batched solves on a
chunk that holds a K = 0 draw, and the bytes of one N=1000 instance draw.
They hold in the environment they were recorded in (numpy and scipy
versions, BLAS thread setting); a different environment fails with that
said, never a skip.  After a change that moves
results on purpose, re-record with `PYTHONPATH=src python
tools/record_bits_ledger.py` and list each moved digest.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import scipy

from csamp.cli import denoiser_validation_rows, oracle_validation_rows
from csamp.experiments import (
    KNOWN_ALGORITHMS,
    GridConfig,
    _solve_chunk,
    run_grids,
    run_nmse_sweep,
    trial_rng,
    write_csv,
)
from csamp.model import (
    LIKELIHOOD_VARIANTS,
    PART_VARIANCES,
    ComplexVector,
    RecoveryError,
    RecoverySettings,
    make_instance,
)

LEDGER = Path(__file__).resolve().parent / "data" / "bits_ledger.json"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# the four exchange switches, and a beta floor below the default
SETTINGS = {
    **{f"{lv}/{pv}": RecoverySettings(likelihood_variant=lv, part_variance=pv)
       for lv in LIKELIHOOD_VARIANTS for pv in PART_VARIANCES},
    "beta_floor=1e-14": RecoverySettings(beta_floor=1e-14),
}


def environment() -> dict:
    """What the digests depend on besides the code."""
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            **{var: os.environ.get(var) for var in THREAD_VARS}}


def _file_digest(directory: str, *writers) -> str:
    """Digest of the bytes of the CSV files that the writers (each called
    with a path) write, in order."""
    h = hashlib.sha256()
    for j, write in enumerate(writers):
        path = os.path.join(directory, f"{j}.csv")
        write(path)
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _rows_writer(columns, rows):
    return lambda path: write_csv(path, columns, rows, {})


def _outputs_digest(outputs) -> str:
    """Digest of the tobytes() of every field of each output, in order."""
    h = hashlib.sha256()
    for out in outputs:
        if isinstance(out, RecoveryError):
            h.update(f"RecoveryError: {out}".encode())
            continue
        for f in fields(out):
            value = getattr(out, f.name)
            h.update(f.name.encode())
            for part in (value.re, value.im) if isinstance(value, ComplexVector) else (value,):
                h.update(b"none" if part is None else np.asarray(part).tobytes())
    return h.hexdigest()


def _chunk():
    """Four draws sharing (M, N) = (24, 64), each under its own prior: K = 6,
    0 (noiseless, no data), 3 and 9, the nonzero ones at 20 dB."""
    draws = [make_instance(24, 64, k, trial_rng(7, 0, j), snr=None if k == 0 else 100.0,
                           noiseless=k == 0)[0] for j, k in enumerate((6, 0, 3, 9))]
    return draws, [6, 0, 3, 9]


def _instance_digest() -> str:
    """Digest of the tobytes() of A, x, w, y and sigma_w2 of one paper-size
    draw, whose sign matrix spans several of gen_matrix's row blocks."""
    inst, sigma_w2 = make_instance(300, 1000, 60, trial_rng(5, 0, 0), snr=100.0,
                                   noiseless=False)
    h = hashlib.sha256(inst.A.tobytes())
    for vec in (inst.x_true, inst.w, inst.y):
        h.update(vec.re.tobytes())
        h.update(vec.im.tobytes())
    h.update(np.float64(sigma_w2).tobytes())
    return h.hexdigest()


def digests() -> dict:
    """{name: SHA-256 hex digest} of every output the ledger covers."""
    out = {}
    with tempfile.TemporaryDirectory() as directory:
        for sigma_x2 in (1.0, 0.3):
            for name, settings in SETTINGS.items():
                cfg = GridConfig(n=32, m_ratios=(0.2, 0.4, 0.6, 0.8),
                                 k_ratios=(0.2, 0.4, 0.6, 0.8), trials=3, base_seed=5,
                                 sigma_x2=sigma_x2, settings=settings)
                out[f"run_grids {name} sigma_x2={sigma_x2}"] = _file_digest(
                    directory, *(result.to_csv for result in run_grids(cfg)))
        for name, settings in SETTINGS.items():
            out[f"run_nmse_sweep {name}"] = _file_digest(directory, run_nmse_sweep(
                64, 4, [20, 32], [10.0, 30.0], 4, base_seed=5, settings=settings).to_csv)
        for label, noiseless in (("noiseless", True), ("20 dB", False)):
            rows, _ = oracle_validation_rows(trials=40, seed=5, noiseless=noiseless)
            out[f"oracle_validation_rows {label}"] = _file_digest(directory, _rows_writer(
                ["algorithm", "part", "mse", "oracle_mse", "margin"], rows))
        rows, _ = denoiser_validation_rows()
        out["denoiser_validation_rows"] = _file_digest(directory, _rows_writer(
            ["u", "beta", "gamma", "closed_form", "quadrature", "abs_diff"], rows))
    draws, ks = _chunk()
    for algo in KNOWN_ALGORITHMS:
        for name, settings in SETTINGS.items():
            out[f"_solve_chunk {algo} {name}"] = _outputs_digest(
                _solve_chunk(algo, draws, ks, settings))
    out["make_instance (300, 1000, 60) 20 dB"] = _instance_digest()
    return out


def test_every_output_keeps_its_bytes():
    recorded = json.loads(LEDGER.read_text())
    now = digests()
    assert list(now) == list(recorded["digests"])
    moved = [name for name in now if now[name] != recorded["digests"][name]]
    if recorded["environment"] != environment():
        pytest.fail(f"the environment moved, not the code: the ledger was recorded under "
                    f"{recorded['environment']}, this run has {environment()}, and "
                    f"{len(moved)} of {len(now)} digests differ here; they hold only "
                    f"where they were recorded")
    assert not moved, f"{len(moved)} of {len(now)} outputs moved: {moved}"
