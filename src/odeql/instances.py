"""Seeded test-problem factory with controllable conditioning.

Two mutually exclusive generation modes:

* dense mode (default): the similarity V is built as Q1 S Q2* with random
  unitaries and singular values log-uniform in [1, kappa_V] with both
  extremes pinned, so kappa_V is exact by construction; eigenvalues are
  sampled from the requested profile inside the closed left half-disk.
* sparse mode (sparsity s set): A starts from a random pattern with at most
  s entries per row and column (a union of s permutations), whose one eig
  gives V; A and its eigenvalues are then shifted so every eigenvalue has
  strictly negative real part and rescaled to ||A|| <= 1; kappa_V cannot
  be requested in this mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy

from .errors import ParameterError
from .numerics import Instance, make_instance, spectral_norm
from .taylor import half_disk_samples

EIG_PROFILES = ("uniform-half-disk", "boundary", "pure-imaginary", "scalar")

# Margin pushed between the spectrum and the imaginary axis in sparse mode.
SHIFT_MARGIN = 1e-6

# Relative margin of the unit-norm rescale: ||A|| lands just under 1 even when the
# norm estimate is a hair low, so ceil(T ||A||) = T at integer T (emulate's m = 5/10/20).
UNIT_NORM_MARGIN = 1e-7

# Largest kappa_V of dense mode: above it V V_inv can miss I by more than
# validate's N kappa eps bar (over 300 seeds at N in {2, 4, 8}, none fails at
# 1e9 or 1e10; seed 122 at N=2 fails at 1e11 and 1e12).
KAPPA_V_MAX = 1e10


def check_seed(seed) -> None:
    """Refuse a seed that is not a non-negative integer where it enters, not
    later in numpy's default_rng, whose error names no input."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed}")


@dataclass(frozen=True)
class GenSpec:
    """Recipe for one test problem.

    kappa_V prescribes the exact condition number of V, in [1, KAPPA_V_MAX];
    eig_profile picks the eigenvalues, and eig_value is the one eigenvalue of
    the "scalar" profile, given with it and no other; unit_norm rescales
    them so that ||A|| <= 1. These four apply to dense mode only: sparsity
    switches to the sparse mode, which measures kappa_V, draws its own
    spectrum and always rescales to ||A|| <= 1, so it takes kappa_V=None and
    refuses an eig_profile or eig_value. b_mode selects a zero or random
    unit-norm inhomogeneity.
    """

    N: int
    kappa_V: float | None = 1.0
    eig_profile: str = "uniform-half-disk"
    eig_value: complex | None = None
    sparsity: int | None = None
    b_mode: str = "zero"
    seed: int = 0
    unit_norm: bool = False

    def __post_init__(self):
        for name in ("N", "kappa_V", "sparsity", "seed"):
            if isinstance(getattr(self, name), (bool, np.bool_)):
                raise ParameterError(f"{name} must be a number, got a bool")
        check_seed(self.seed)
        if not isinstance(self.N, (int, np.integer)):
            raise ParameterError(f"N must be an integer, got {self.N!r}")
        if self.sparsity is not None and not isinstance(self.sparsity, (int, np.integer)):
            raise ParameterError(f"sparsity must be an integer, got {self.sparsity!r}")
        if self.N < 1:
            raise ParameterError(f"N must be >= 1, got {self.N}")
        if self.eig_profile not in EIG_PROFILES:
            raise ParameterError(
                f"eig_profile must be one of {EIG_PROFILES}, got {self.eig_profile!r}")
        if self.eig_value is not None and not np.isfinite(self.eig_value):
            raise ParameterError(f"eig_value must be finite, got {self.eig_value}")
        if self.b_mode not in ("zero", "random"):
            raise ParameterError(f"b_mode must be 'zero' or 'random', got {self.b_mode!r}")
        if self.sparsity is not None:
            if self.sparsity < 1 or self.sparsity > self.N:
                raise ParameterError(f"sparsity must lie in 1..N, got {self.sparsity}")
            if self.kappa_V is not None:
                raise ParameterError(
                    "sparse mode measures kappa_V instead of prescribing it; "
                    "set kappa_V=None when sparsity is given (the two modes are "
                    "mutually exclusive)")
            dense_only = [name for name, given in (
                ("eig_profile", self.eig_profile != "uniform-half-disk"),
                ("eig_value", self.eig_value is not None)) if given]
            if dense_only:
                raise ParameterError(
                    "sparse mode draws its own spectrum; dense-mode fields given: "
                    + ", ".join(dense_only))
        else:
            if self.kappa_V is None or not 1.0 <= self.kappa_V <= KAPPA_V_MAX:
                raise ParameterError(f"kappa_V must lie in [1, KAPPA_V_MAX = "
                                     f"{KAPPA_V_MAX:g}], got {self.kappa_V}")
            if (self.eig_value is None) == (self.eig_profile == "scalar"):
                raise ParameterError("eig_value is given exactly when eig_profile is "
                                     f"'scalar', got {self.eig_profile!r} and {self.eig_value}")


def random_unitary(n: int, rng) -> np.ndarray:
    """Haar-ish random unitary: QR of a complex Gaussian with phase fixing."""
    Z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def _sample_eigenvalues(spec: GenSpec, rng) -> np.ndarray:
    n = spec.N
    if spec.eig_profile == "scalar":
        lam = complex(spec.eig_value)
        if lam.real > 0:
            raise ParameterError(f"eigenvalue must satisfy Re <= 0, got {lam}")
        return np.full(n, lam, dtype=complex)
    if spec.eig_profile == "uniform-half-disk":
        return half_disk_samples(n, rng)
    if spec.eig_profile == "boundary":
        theta = rng.uniform(0.5 * math.pi, 1.5 * math.pi, size=n)
        return np.exp(1j * theta)
    # pure-imaginary
    return 1j * rng.uniform(-1.0, 1.0, size=n)


def _singular_values(n: int, kappa: float, rng) -> np.ndarray:
    if n == 1:
        if abs(kappa - 1.0) > 1e-12:
            raise ParameterError("a 1x1 similarity always has kappa_V = 1")
        return np.ones(1)
    inner = np.exp(rng.uniform(0.0, math.log(kappa), size=max(0, n - 2))) \
        if kappa > 1 else np.ones(max(0, n - 2))
    return np.concatenate([[kappa], np.sort(inner)[::-1], [1.0]])


def _sparse_pattern(n: int, s: int, rng) -> scipy.sparse.csr_matrix:
    """Union of s permutations (one of them the identity, so the later
    eigenvalue shift hits existing entries): at most s per row and column."""
    rows = [np.arange(n)]
    cols = [np.arange(n)]
    for _ in range(s - 1):
        rows.append(np.arange(n))
        cols.append(rng.permutation(n))
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = rng.normal(size=rows.size) + 1j * rng.normal(size=rows.size)
    M = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    M.sum_duplicates()
    return M


def _unit_rescale(M, *arrays) -> tuple:
    """The arrays divided by ||M|| (1 + UNIT_NORM_MARGIN) if ||M|| > 1."""
    norm = spectral_norm(M, tol=1e-8)
    if not norm > 1.0:
        return arrays
    return tuple(a / (norm * (1.0 + UNIT_NORM_MARGIN)) for a in arrays)


def generate(spec: GenSpec) -> Instance:
    """Build a validated Instance from a GenSpec (deterministic per seed)."""
    rng = np.random.default_rng(spec.seed)

    if spec.sparsity is not None:
        A0 = _sparse_pattern(spec.N, spec.sparsity, rng)
        eigvals, V = np.linalg.eig(A0.toarray())  # the shift and scale below keep V
        shift = float(eigvals.real.max()) + SHIFT_MARGIN
        A = A0 - shift * scipy.sparse.eye(spec.N, format="csr")
        eigvals -= shift
        A.data, eigvals = _unit_rescale(A, A.data, eigvals)
        x_in, b = _states(spec, rng)
        label = f"gen(N={spec.N},s={spec.sparsity},seed={spec.seed})"
        return make_instance(V, eigvals, b, x_in, A=A, label=label)

    eigvals = _sample_eigenvalues(spec, rng)
    if spec.N == 1:
        V = np.ones((1, 1), dtype=complex)
        V_inv = V.copy()
        _singular_values(1, spec.kappa_V, rng)  # validates kappa_V == 1
        kappa = 1.0
    else:
        Q1 = random_unitary(spec.N, rng)
        Q2 = random_unitary(spec.N, rng)
        sigma = _singular_values(spec.N, spec.kappa_V, rng)
        V = (Q1 * sigma) @ Q2.conj().T
        V_inv = (Q2 / sigma) @ Q1.conj().T
        kappa = float(spec.kappa_V)

    if spec.unit_norm:
        (eigvals,) = _unit_rescale((V * eigvals) @ V_inv, eigvals)

    x_in, b = _states(spec, rng)
    label = (f"gen(N={spec.N},kappa={spec.kappa_V:g},profile={spec.eig_profile},"
             f"seed={spec.seed})")
    return make_instance(V, eigvals, b, x_in, V_inv=V_inv, kappa_V=kappa,
                         label=label)


def _states(spec: GenSpec, rng) -> tuple[np.ndarray, np.ndarray]:
    x_in = rng.normal(size=spec.N) + 1j * rng.normal(size=spec.N)
    x_in /= np.linalg.norm(x_in)
    if spec.b_mode == "random":
        b = rng.normal(size=spec.N) + 1j * rng.normal(size=spec.N)
        b /= np.linalg.norm(b)
    else:
        b = np.zeros(spec.N, dtype=complex)
    return x_in, b
