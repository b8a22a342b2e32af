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


def _checked_gamma0(gamma0) -> np.ndarray:
    """gamma0 as a 1-D float array, its entries in [0, 1] (NaN rejected)."""
    g = np.atleast_1d(np.asarray(gamma0, dtype=float))
    if g.ndim != 1:
        raise ValueError("gamma0 must be scalar or 1-D")
    if not np.all((g >= 0.0) & (g <= 1.0)):
        raise ValueError("gamma0 entries must lie in [0, 1]")
    return g


def _checked_sigma_x2(sigma_x2) -> float:
    if not sigma_x2 > 0.0:
        raise ValueError("sigma_x2 must be positive")
    return float(sigma_x2)


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
        object.__setattr__(self, "gamma0", _checked_gamma0(self.gamma0))
        object.__setattr__(self, "sigma_x2", _checked_sigma_x2(self.sigma_x2))

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


# the values of RecoverySettings' two likelihood switches, and the CLI's choices
LIKELIHOOD_VARIANTS = ("own-beta", "printed-cross-beta")
PART_VARIANCES = ("half", "full")


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
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")
        if not self.eps_tol > 0.0:
            raise ValueError("eps_tol must be positive")
        if not self.beta_floor > 0.0:
            raise ValueError("beta_floor must be positive")
        if not 0.0 < self.gamma_clamp < 0.5:
            raise ValueError("gamma_clamp must lie in (0, 0.5)")
        if not self.divergence_factor > 1.0:
            raise ValueError("divergence_factor must exceed 1")
        if self.likelihood_variant not in LIKELIHOOD_VARIANTS:
            raise ValueError(f"unknown likelihood_variant {self.likelihood_variant!r}")
        if self.part_variance not in PART_VARIANCES:
            raise ValueError(f"unknown part_variance {self.part_variance!r}")


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

    def residual_norm(self) -> float:
        """max-norm of y - (A x + w); zero up to rounding by construction."""
        r_r = self.y.re - (self.A @ self.x_true.re + self.w.re)
        r_i = self.y.im - (self.A @ self.x_true.im + self.w.im)
        return max(np.max(np.abs(r_r), initial=0.0), np.max(np.abs(r_i), initial=0.0))


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
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be >= 1")
    c = 1.0 / np.sqrt(m)
    signs = np.array([-c, c])
    A = np.empty((m, n))
    rows = max(1, SIGN_DRAWS // n)
    for i in range(0, m, rows):
        block = A[i:i + rows]
        signs.take(rng.integers(0, 2, size=block.shape), out=block, mode="clip")
    return A


def gen_signal_exact_k(
    n: int, k: int, sigma_x2: float, rng: np.random.Generator
) -> ComplexVector:
    """Signal with exactly k nonzeros on a uniform random support.

    Nonzero entries are circularly-symmetric complex Gaussian with variance
    sigma_x2, i.e. each part is N(0, sigma_x2 / 2); the two parts share the
    support by construction.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= K <= N, got K={k}, N={n}")
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
    sigma_w2 = ||Ax||^2 / (M snr), each part of w N(0, sigma_w2 / 2)."""
    if not snr > 0.0:
        raise ValueError("snr must be positive")
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
    """
    _checked_sigma_x2(sigma_x2)
    A = gen_matrix(m, n, rng)
    x = gen_signal_exact_k(n, k, sigma_x2, rng)
    ax_r, ax_i = A @ x.re, A @ x.im  # once for both the noise and y
    if noiseless:
        w, sigma_w2 = ComplexVector.zeros(m), 0.0
    else:
        if snr is None:
            raise ValueError("snr required when noiseless=False")
        w, sigma_w2 = _noise_for(ax_r, ax_i, snr, rng)
    y = ComplexVector(ax_r + w.re, ax_i + w.im)
    if gamma0 is None:
        gamma0 = 1.0 - k / n
    prior = BernoulliGaussianPrior(gamma0=gamma0, sigma_x2=sigma_x2)
    return ProblemInstance(A=A, x_true=x, w=w, y=y, prior=prior), sigma_w2


# --- plain-text instance files -------------------------------------------
#
# Format: '#'-comment header, then "key value" lines (M, N, sigma_x2,
# sigma_w2, seed, gamma0 with N values), then sections "A" (M rows of N
# entries), and "x", "w", "y" as "re im" pairs per line.

class InstanceFormatError(ValueError):
    """Malformed instance file; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def save_instance(
    path, inst: ProblemInstance, sigma_w2: float = 0.0, seed: int | None = None
) -> None:
    m, n = inst.m, inst.n
    lines = ["# csamp problem instance v1"]
    lines.append(f"M {m}")
    lines.append(f"N {n}")
    lines.append(f"sigma_x2 {float(inst.prior.sigma_x2)!r}")
    lines.append(f"sigma_w2 {float(sigma_w2)!r}")
    lines.append(f"seed {seed if seed is not None else -1}")
    gamma0 = inst.prior.gamma0_vector(n)
    lines.append("gamma0 " + " ".join(repr(float(g)) for g in gamma0))
    lines.append("A")
    for row in inst.A:
        lines.append(" ".join(repr(float(v)) for v in row))
    for name, vec in (("x", inst.x_true), ("w", inst.w), ("y", inst.y)):
        lines.append(name)
        for re, im in zip(vec.re, vec.im):
            lines.append(f"{float(re)!r} {float(im)!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_instance(path) -> tuple[ProblemInstance, float, int]:
    """Parse an instance file; returns (instance, sigma_w2, seed)."""
    with open(path) as fh:
        raw = fh.readlines()

    # (line_no, tokens) with comments/blank lines dropped
    rows = [
        (i + 1, line.split())
        for i, line in enumerate(raw)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    pos = 0

    def take() -> tuple[int, list[str]]:
        nonlocal pos
        if pos >= len(rows):
            last = rows[-1][0] if rows else 0
            raise InstanceFormatError(last, "unexpected end of file")
        row = rows[pos]
        pos += 1
        return row

    def take_scalar(key: str, kind=float):
        ln, toks = take()
        if len(toks) != 2 or toks[0] != key:
            raise InstanceFormatError(ln, f"expected '{key} <value>'")
        try:
            return kind(toks[1])
        except ValueError:
            what = "integer" if kind is int else "numeric"
            raise InstanceFormatError(ln, f"bad {what} value for {key}: {toks[1]!r}")

    def take_dimension(key: str) -> int:
        value = take_scalar(key, int)
        if value < 1:
            raise InstanceFormatError(rows[pos - 1][0], f"{key} must be >= 1")
        return value

    def checked(check, value):
        """check(value), a fault in it reported at the line just taken."""
        try:
            return check(value)
        except ValueError as exc:
            raise InstanceFormatError(rows[pos - 1][0], str(exc)) from None

    m = take_dimension("M")
    n = take_dimension("N")
    sigma_x2 = checked(_checked_sigma_x2, take_scalar("sigma_x2"))
    sigma_w2 = take_scalar("sigma_w2")
    if not 0.0 <= sigma_w2 < np.inf:
        raise InstanceFormatError(rows[pos - 1][0], "sigma_w2 must be finite and >= 0")
    seed = take_scalar("seed", int)

    ln, toks = take()
    if not toks or toks[0] != "gamma0" or len(toks) != n + 1:
        raise InstanceFormatError(ln, f"expected 'gamma0' with {n} values")
    try:
        gamma0 = np.array([float(t) for t in toks[1:]])
    except ValueError:
        raise InstanceFormatError(ln, "bad numeric value in gamma0")
    gamma0 = checked(_checked_gamma0, gamma0)

    def take_marker(name: str) -> None:
        ln, toks = take()
        if toks != [name]:
            raise InstanceFormatError(ln, f"expected section marker '{name}'")

    def take_floats(count: int, ln_hint: str) -> np.ndarray:
        ln, toks = take()
        if len(toks) != count:
            raise InstanceFormatError(ln, f"expected {count} values for {ln_hint}")
        try:
            values = np.array([float(t) for t in toks])
        except ValueError:
            raise InstanceFormatError(ln, f"bad numeric value in {ln_hint}")
        if not np.all(np.isfinite(values)):
            raise InstanceFormatError(ln, f"non-finite value in {ln_hint}")
        return values

    take_marker("A")
    A = np.empty((m, n))
    for i in range(m):
        A[i] = take_floats(n, f"matrix row {i}")

    parts = {}
    for name, length in (("x", n), ("w", m), ("y", m)):
        take_marker(name)
        re = np.empty(length)
        im = np.empty(length)
        for i in range(length):
            re[i], im[i] = take_floats(2, f"{name}[{i}]")
        parts[name] = ComplexVector(re, im)

    if pos != len(rows):
        raise InstanceFormatError(rows[pos][0], "trailing content after sections")

    prior = BernoulliGaussianPrior(gamma0=gamma0, sigma_x2=sigma_x2)
    inst = ProblemInstance(A=A, x_true=parts["x"], w=parts["w"], y=parts["y"], prior=prior)
    return inst, sigma_w2, seed
