"""Problem types, synthetic instance generation and error metrics.

The measurement model is y = A x + w with a real M x N matrix A (M < N for
compressed sensing), a complex signal x and complex noise w.  Because A is
real, the real and imaginary parts decouple into two real systems sharing A,
so complex vectors are stored as two parallel real vectors throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BETA_FLOOR = 1e-12   # smallest effective noise variance a denoiser or detector uses
GAMMA_CLAMP = 1e-12  # distance from {0, 1} of a clamped zero-probability

# The working-set budget of a batch of trials.  A sweep's chunk holds as many
# consecutive trials as fit this many bytes of A, and at least one
# (experiments); exact_mmse enumerates the supports of as many trials at once
# as fit it with their evidence matrices (about four at N=10).  Solving a
# chunk in one loop amortises the per-call numpy overhead that dominates an
# iteration at N=256: the desk-grid cells (at most 474 KB of A per chunk) ran
# 1.7x faster.  At N=1000 the matmuls dominate instead: chunks of three
# 1.2 MB matrices ran 16% slower (they overflow a 2 MiB per-core L2) and a
# whole cell at once raised peak memory by a third for no gain, so there each
# trial runs alone.
CHUNK_BYTES = 1 << 20

# The draw budget of gen_matrix: it fills A a block of rows at a time from at
# most this many int64 sign draws (256 KiB), and at least one row, so that a
# draw holds only the matrix it returns and one block of signs: 32 rows at
# N=1000, and one block for every matrix with N <= 256.  A paper-snr rep's
# allocation peak (tracemalloc) was 2.67 MiB at this budget, 3.33 MiB at
# CHUNK_BYTES and 4.69 MiB with one full-size draw.
SIGN_DRAWS = 1 << 15


# the values of RecoverySettings' two likelihood switches, the solvers and the
# support detectors; the CLI's choices too
LIKELIHOOD_VARIANTS = ("own-beta", "printed-cross-beta")
PART_VARIANCES = ("half", "full")
KNOWN_ALGORITHMS = ("amp", "cbamp", "cbossamp")
KNOWN_DETECTORS = ("em", "prior")


# --- input rules ---------------------------------------------------------------
#
# Each input quantity is declared once, in INPUT_RULES, under the name it
# enters by: its tests in order, each with the message of its failure ({name}
# and {value} filled in).  Every entry point checks its inputs through
# _checked, so a quantity reads the same rule and message wherever it enters.
# An infinite tolerance would stop every solve at once, an infinite floor,
# factor or slab variance make every beta, divergence limit or estimate
# meaningless, an infinite snr run noiseless under a noisy label, an infinite
# threshold count every trial a success and an infinite lam (or tol) zero
# every estimate (or pass every grid): each must be finite.

def _every(test):
    """test, an elementwise test, of every entry of a scalar, list or array."""
    return lambda v: bool(test(np.asarray(v, dtype=float)).all())


_FINITE = (lambda v: abs(v) < np.inf, "{name} must be finite")
_INTEGER = (lambda v: isinstance(v, (int, np.integer)), "{name} must be an integer, got {value!r}")
_COUNT = (_INTEGER, (lambda v: v >= 1, "{name} must be >= 1"))
_INDEX = (_INTEGER, (lambda v: v >= 0, "{name} must be nonnegative"))
_POSITIVE = ((lambda v: v > 0.0, "{name} must be positive"), _FINITE)
_NONNEGATIVE = ((_every(lambda a: (a >= 0.0) & (a < np.inf)), "{name} must be finite and >= 0"),)
_PROBABILITY = ((_every(lambda a: (a >= 0.0) & (a <= 1.0)), "{name} entries must lie in [0, 1]"),)
_DATA = ((_every(np.isfinite), "non-finite pseudo-data {name}"),)
_FRACTION = ((lambda v: 0.0 < v <= 1.0, "{name} {value} outside (0, 1]"),)
_NONEMPTY = ((lambda v: len(v) > 0, "{name} must be non-empty"),)
_VECTORS = (_NONNEGATIVE, _PROBABILITY, _DATA, _NONEMPTY)  # the kinds that test a list whole


def _one_of(choices) -> tuple:
    return ((lambda v: v in choices, "unknown {name} {value!r}"),)


INPUT_RULES = {
    **dict.fromkeys(("n", "m", "M", "N", "t_max", "trials", "workers", "m_list"), _COUNT),
    **dict.fromkeys(("k", "base_seed", "seed", "cell", "trial"), _INDEX),
    **dict.fromkeys(("sigma_x2", "s2", "eps_tol", "beta_floor", "success_threshold", "lam"),
                    _POSITIVE),
    **dict.fromkeys(("sigma_w2", "sigma_w2_part", "beta", "beta_r", "beta_i"), _NONNEGATIVE),
    **dict.fromkeys(("gamma0", "gamma", "gamma_r", "gamma_i"), _PROBABILITY),
    **dict.fromkeys(("level", "m_ratios", "k_ratios"), _FRACTION),
    **dict.fromkeys(("u", "u_r", "u_i"), _DATA),
    "snr": ((lambda v: v > 0.0, "noisy grids need a positive linear {name}"), _FINITE),
    "snr_db_list": (_FINITE,),
    "gamma_clamp": ((lambda v: 0.0 < v < 0.5, "{name} must lie in (0, 0.5)"),),
    "divergence_factor": ((lambda v: v > 1.0, "{name} must exceed 1"), _FINITE),
    "tol": ((lambda v: v >= 0.0, "{name} {value} must be >= 0"), _FINITE),
    "likelihood_variant": _one_of(LIKELIHOOD_VARIANTS),
    "part_variance": _one_of(PART_VARIANCES),
    "algorithm": _one_of(KNOWN_ALGORITHMS),
    "algorithms": _NONEMPTY,
    "detector": _one_of(KNOWN_DETECTORS),
}


def _checked(**values) -> None:
    """Check each value by its quantity's INPUT_RULES entry: a ValueError
    with the message of the first test that fails.  None stands for a value
    not given; a list or tuple of a scalar kind has each entry checked, as
    name[j], by its list's rule, and must be non-empty; a flag --name takes
    name's rule."""
    for name, value in values.items():
        rules = INPUT_RULES[name.lstrip("-").split("[")[0]]
        if isinstance(value, (list, tuple)) and rules not in _VECTORS:
            _checked(**{f"{name}[{j}]": v for j, v in enumerate(value)})
            rules = _NONEMPTY  # the list itself
        if value is not None:
            for test, message in rules:
                if not test(value):
                    raise ValueError(message.format(name=name, value=value))


class RecoveryError(RuntimeError):
    """Raised when an iterative recovery produces non-finite iterates."""


def _as_float_vector(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class ComplexVector:
    """Complex vector stored as parallel real/imaginary parts."""

    re: np.ndarray
    im: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "re", _as_float_vector(self.re, "re"))
        object.__setattr__(self, "im", _as_float_vector(self.im, "im"))
        if self.re.shape != self.im.shape:
            raise ValueError(
                f"real/imaginary length mismatch: {self.re.size} vs {self.im.size}"
            )

    def __len__(self) -> int:
        return self.re.size

    @classmethod
    def zeros(cls, n: int) -> "ComplexVector":
        return cls(np.zeros(n), np.zeros(n))

    def norm_sq(self) -> float:
        return float(self.re @ self.re + self.im @ self.im)

    def support(self) -> np.ndarray:
        """Boolean mask of components with |x_n| > 0 (either part; NaN is not)."""
        return (np.abs(self.re) > 0.0) | (np.abs(self.im) > 0.0)


@dataclass(frozen=True)
class BernoulliGaussianPrior:
    """Spike-and-slab prior: zero w.p. gamma0, else CN(0, sigma_x2).

    gamma0 may be a scalar (broadcast to length n when known) or a
    per-component vector.  Each part of a nonzero component is real
    Gaussian with variance sigma_x2 / 2.
    """

    gamma0: np.ndarray
    sigma_x2: float = 1.0

    def __post_init__(self):
        gamma0 = np.atleast_1d(np.asarray(self.gamma0, dtype=float))
        if gamma0.ndim != 1:
            raise ValueError("gamma0 must be scalar or 1-D")
        _checked(gamma0=gamma0, sigma_x2=self.sigma_x2)
        object.__setattr__(self, "gamma0", gamma0)
        object.__setattr__(self, "sigma_x2", float(self.sigma_x2))

    @property
    def s2(self) -> float:
        """Per-part slab variance sigma_x2 / 2."""
        return self.sigma_x2 / 2.0

    def gamma0_vector(self, n: int) -> np.ndarray:
        """gamma0 broadcast to length n."""
        if self.gamma0.size == 1:
            return np.full(n, self.gamma0[0])
        if self.gamma0.size != n:
            raise ValueError(f"gamma0 has length {self.gamma0.size}, expected {n}")
        return self.gamma0.copy()


@dataclass(frozen=True)
class RecoverySettings:
    """Loop parameters shared by all iterative solvers.

    likelihood_variant selects which part's effective-noise variance enters
    the activity likelihood exchange ("own-beta" follows the loop as stated,
    "printed-cross-beta" the standalone formula).  part_variance selects the
    slab-variance slot of that likelihood: "half" uses the per-part sigma_x2/2,
    "full" the complex sigma_x2.
    """

    t_max: int = 100
    eps_tol: float = 1e-4
    beta_floor: float = BETA_FLOOR
    gamma_clamp: float = GAMMA_CLAMP
    divergence_factor: float = 1e6
    likelihood_variant: str = "own-beta"
    part_variance: str = "half"

    def __post_init__(self):
        _checked(**vars(self))


@dataclass(frozen=True)
class ProblemInstance:
    """One recovery problem: matrix, true signal, noise and measurement."""

    A: np.ndarray
    x_true: ComplexVector
    w: ComplexVector
    y: ComplexVector
    prior: BernoulliGaussianPrior

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2:
            raise ValueError("A must be a 2-D matrix")
        object.__setattr__(self, "A", A)
        m, n = A.shape
        if len(self.x_true) != n:
            raise ValueError(f"x_true has length {len(self.x_true)}, expected {n}")
        if len(self.w) != m or len(self.y) != m:
            raise ValueError("w and y must have length M")

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class RecoveryOutput:
    """Result of a complex recovery: estimate plus per-part diagnostics.

    u_r/u_i and beta_r/beta_i are the final decoupled-model pseudo-data and
    effective noise variances consumed by support detection.  gamma_r/gamma_i
    are the final working zero-probabilities (the prior itself for solvers
    that never update them, None for plain AMP).
    """

    x_hat: ComplexVector
    u_r: np.ndarray
    u_i: np.ndarray
    beta_r: float
    beta_i: float
    gamma_r: np.ndarray | None
    gamma_i: np.ndarray | None
    iterations: int
    converged: bool
    diverged: bool = False


def gen_matrix(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Random sign matrix with entries +-1/sqrt(M); columns have unit norm.

    Entry (i, j) is -c or +c, c = 1/sqrt(M), as the (i, j)-th of M*N draws
    of rng.integers(0, 2) in C order is 0 or 1.  The draws are made a block
    of rows at a time (SIGN_DRAWS) and looked up straight into A; the blocks
    take the stream exactly as one (M, N) call does, so A, the generator's
    state afterwards and every later draw equal those of
    (rng.integers(0, 2, (m, n)) * 2 - 1) / np.sqrt(m).
    """
    _checked(m=m, n=n)
    c = 1.0 / np.sqrt(m)
    signs = np.array([-c, c])
    A = np.empty((m, n))
    rows = max(1, SIGN_DRAWS // n)
    for i in range(0, m, rows):
        block = A[i:i + rows]
        signs.take(rng.integers(0, 2, size=block.shape), out=block, mode="clip")
    return A


def _check_support_size(k: int, n: int, noiseless: bool = True) -> None:
    """K nonzeros fit in a signal of length N, and a noisy draw has some: with
    K = 0, Ax is zero whatever is drawn (K checked by its rule first)."""
    if k > n:
        raise ValueError(f"need 0 <= K <= N, got K={k}, N={n}")
    if k == 0 and not noiseless:
        raise ValueError("Ax is zero; SNR calibration undefined")


def gen_signal_exact_k(
    n: int, k: int, sigma_x2: float, rng: np.random.Generator
) -> ComplexVector:
    """Signal with exactly k nonzeros on a uniform random support.

    Nonzero entries are circularly-symmetric complex Gaussian with variance
    sigma_x2, i.e. each part is N(0, sigma_x2 / 2); the two parts share the
    support by construction.
    """
    _checked(k=k, sigma_x2=sigma_x2)
    _check_support_size(k, n)
    x_r = np.zeros(n)
    x_i = np.zeros(n)
    if k > 0:
        supp = rng.choice(n, size=k, replace=False)
        part_std = np.sqrt(sigma_x2 / 2.0)
        x_r[supp] = part_std * rng.standard_normal(k)
        x_i[supp] = part_std * rng.standard_normal(k)
    return ComplexVector(x_r, x_i)


def _noise_for(ax_r, ax_i, snr: float, rng: np.random.Generator):
    """(w, sigma_w2): complex Gaussian noise calibrated from the realized
    parts of Ax, so that ||Ax||^2 / E||w||^2 = snr exactly for this instance:
    sigma_w2 = ||Ax||^2 / (M snr), each part of w N(0, sigma_w2 / 2); snr
    as make_instance checks it."""
    m = len(ax_r)
    energy = float(ax_r @ ax_r + ax_i @ ax_i)
    if energy == 0.0:
        raise ValueError("Ax is zero; SNR calibration undefined")
    sigma_w2 = energy / (m * snr)
    part_std = np.sqrt(sigma_w2 / 2.0)
    w = ComplexVector(part_std * rng.standard_normal(m), part_std * rng.standard_normal(m))
    return w, sigma_w2


def nmse(x_hat: ComplexVector, x: ComplexVector) -> float:
    """Squared recovery error normalized by the true signal energy."""
    if len(x_hat) != len(x):
        raise ValueError("length mismatch")
    denom = x.norm_sq()
    if denom == 0.0:
        raise ValueError("true signal is zero; NMSE undefined")
    d_r = x_hat.re - x.re
    d_i = x_hat.im - x.im
    return float(d_r @ d_r + d_i @ d_i) / denom


def _check_noise(snr, noiseless: bool) -> None:
    """A noisy draw (noiseless=False) takes an snr and a noiseless one none."""
    if noiseless == (snr is not None):
        raise ValueError("a noiseless instance takes no snr" if noiseless
                         else "snr required when noiseless=False")


def make_instance(
    m: int,
    n: int,
    k: int,
    rng: np.random.Generator,
    sigma_x2: float = 1.0,
    snr: float | None = None,
    noiseless: bool = True,
    gamma0: float | None = None,
) -> tuple[ProblemInstance, float]:
    """Generate a full exact-K instance; returns (instance, sigma_w2).

    gamma0 defaults to 1 - K/N, the activity rate matching the exact-K draw.
    A noisy instance (noiseless=False) takes an snr and K >= 1, a noiseless
    one no snr.  Every input, and K <= N, is checked before the first draw.
    """
    _check_noise(snr, noiseless)
    _checked(m=m, n=n, k=k, sigma_x2=sigma_x2, snr=snr, gamma0=gamma0)
    _check_support_size(k, n, noiseless)
    A = gen_matrix(m, n, rng)
    x = gen_signal_exact_k(n, k, sigma_x2, rng)
    ax_r, ax_i = A @ x.re, A @ x.im  # once for both the noise and y
    if noiseless:
        w, sigma_w2 = ComplexVector.zeros(m), 0.0
    else:
        w, sigma_w2 = _noise_for(ax_r, ax_i, snr, rng)
    y = ComplexVector(ax_r + w.re, ax_i + w.im)
    if gamma0 is None:
        gamma0 = 1.0 - k / n
    prior = BernoulliGaussianPrior(gamma0=gamma0, sigma_x2=sigma_x2)
    return ProblemInstance(A=A, x_true=x, w=w, y=y, prior=prior), sigma_w2


# --- plain-text instance files -------------------------------------------
#
# The layout, which save_instance writes and load_instance reads.  After a
# '#'-comment line come the header, one "key value" line per INSTANCE_HEADER
# entry (key, parse), each value checked by its INPUT_RULES entry but the
# seed, any integer (-1 where none was given); then "gamma0" and its N values
# on one line; then each INSTANCE_SECTIONS entry (name, (rows, width), what a
# row is called), a header key standing for its value: a line holding only
# the name, then one line of values per row.  x, w and y hold "re im" pairs.
# Blank and '#' lines are skipped anywhere.
INSTANCE_HEADER = (("M", int), ("N", int), ("sigma_x2", float), ("sigma_w2", float),
                   ("seed", int))
INSTANCE_SECTIONS = (
    ("A", ("M", "N"), "matrix row {}"),
    ("x", ("N", 2), "x[{}]"),
    ("w", ("M", 2), "w[{}]"),
    ("y", ("M", 2), "y[{}]"),
)


class InstanceFormatError(ValueError):
    """Malformed instance file; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def save_instance(
    path, inst: ProblemInstance, sigma_w2: float = 0.0, seed: int | None = None
) -> None:
    """Write inst in the layout above; a seed of None is written as -1."""
    head = {"M": inst.m, "N": inst.n, "sigma_x2": inst.prior.sigma_x2,
            "sigma_w2": sigma_w2, "seed": -1 if seed is None else seed}
    blocks = {"A": inst.A}
    for name, vec in (("x", inst.x_true), ("w", inst.w), ("y", inst.y)):
        blocks[name] = np.column_stack((vec.re, vec.im))
    # str of the parsed value: an np.int64 seed as its digits, a float as its repr
    lines = ["# csamp problem instance v1"]
    lines += [f"{key} {parse(head[key])}" for key, parse in INSTANCE_HEADER]
    lines.append("gamma0 " + " ".join(repr(float(g)) for g in inst.prior.gamma0_vector(inst.n)))
    for name, _, _ in INSTANCE_SECTIONS:
        lines.append(name)
        lines += [" ".join(repr(float(v)) for v in row) for row in blocks[name]]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_instance(path) -> tuple[ProblemInstance, float, int]:
    """Parse an instance file; returns (instance, sigma_w2, seed).  A fault is
    an InstanceFormatError naming its line."""
    with open(path) as fh:
        # (line_no, tokens) with comments/blank lines dropped
        rows = [(i, line.split()) for i, line in enumerate(fh, 1)
                if line.strip() and not line.lstrip().startswith("#")]
    lines = iter(rows)

    def take() -> tuple[int, list[str]]:
        for row in lines:  # the next row, if there is one
            return row
        raise InstanceFormatError(rows[-1][0] if rows else 0, "unexpected end of file")

    def check(ln, **values):  # _checked, a fault reported at line ln
        try:
            _checked(**values)
        except ValueError as exc:
            raise InstanceFormatError(ln, str(exc)) from None

    head = {}
    for key, parse in INSTANCE_HEADER:
        ln, toks = take()
        if len(toks) != 2 or toks[0] != key:
            raise InstanceFormatError(ln, f"expected '{key} <value>'")
        try:
            head[key] = parse(toks[1])
        except ValueError:
            what = "integer" if parse is int else "numeric"
            raise InstanceFormatError(ln, f"bad {what} value for {key}: {toks[1]!r}")
        if key != "seed":
            check(ln, **{key: head[key]})

    ln, toks = take()
    if toks[0] != "gamma0" or len(toks) != head["N"] + 1:
        raise InstanceFormatError(ln, f"expected 'gamma0' with {head['N']} values")
    try:
        gamma0 = np.array([float(t) for t in toks[1:]])
    except ValueError:
        raise InstanceFormatError(ln, "bad numeric value in gamma0")
    check(ln, gamma0=gamma0)
    prior = BernoulliGaussianPrior(gamma0=gamma0, sigma_x2=head["sigma_x2"])

    blocks = {}
    for name, dims, row_name in INSTANCE_SECTIONS:
        ln, toks = take()
        if toks != [name]:
            raise InstanceFormatError(ln, f"expected section marker '{name}'")
        blocks[name] = block = np.empty([head.get(d, d) for d in dims])
        for i, row in enumerate(block):
            ln, toks = take()
            what = row_name.format(i)
            if len(toks) != row.size:
                raise InstanceFormatError(ln, f"expected {row.size} values for {what}")
            try:
                row[:] = [float(t) for t in toks]
            except ValueError:
                raise InstanceFormatError(ln, f"bad numeric value in {what}")
            if not np.all(np.isfinite(row)):
                raise InstanceFormatError(ln, f"non-finite value in {what}")

    for ln, _ in lines:  # a row left over
        raise InstanceFormatError(ln, "trailing content after sections")

    # each part a C-contiguous copy, not a strided column of its block
    x, w, y = (ComplexVector(blocks[k][:, 0].copy(), blocks[k][:, 1].copy()) for k in "xwy")
    inst = ProblemInstance(A=blocks["A"], x_true=x, w=w, y=y, prior=prior)
    return inst, head["sigma_w2"], head["seed"]
