"""Complex linear-algebra primitives and the high-accuracy ODE reference oracle.

Everything here is pure and operates on immutable inputs: plain complex128
numpy vectors for states and scipy CSR matrices (or dense arrays) for
operators. The reference solution of ``dx/dt = A x + b`` is evaluated through
the exponential of the augmented matrix ``[[A, b], [0, 0]]`` acting on
``(x_in, 1)``, which never inverts A and is exact also for singular A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConvergenceError, DimensionError, ParameterError

# Fixed start-vector seed so norm estimates are reproducible run to run.
POWER_SEED = 0xC0FFEE

# Default accuracy of the matrix exponential kernel; small enough that
# oracle error is negligible against every bound this package tests.
DEFAULT_EXP_TOL = 1e-13


def as_state(v, name: str = "vector") -> np.ndarray:
    """Validate and convert to a 1-D complex128 state vector."""
    arr = np.asarray(v, dtype=complex)
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionError(f"{name} must be a nonempty 1-D vector")
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{name} contains non-finite entries")
    return arr


def _adjoint(M):
    if sp.issparse(M):
        return M.conj().T.tocsr()
    return np.conj(M.T)


def _sigma_max(apply_op, apply_adj, n: int, tol: float, max_iter: int, seed: int) -> float:
    """Largest singular value of a linear map given as (apply, adjoint apply).

    Power iteration on the Gram operator with a deterministic seeded start.
    Stops when the estimate is stable to a fraction of tol on two consecutive
    iterations; raises ConvergenceError (with last iterate and residual)
    after max_iter.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    x /= np.linalg.norm(x)

    sigma = 0.0
    stable = 0
    for _ in range(max_iter):
        y = apply_op(x)
        sigma_new = float(np.linalg.norm(y))
        if sigma_new == 0.0:
            return 0.0
        z = apply_adj(y)
        z_norm = np.linalg.norm(z)
        if z_norm == 0.0:
            return sigma_new
        change = abs(sigma_new - sigma) / sigma_new
        x = z / z_norm
        sigma = sigma_new
        stable = stable + 1 if change <= 0.05 * tol else 0
        if stable >= 2:
            return sigma
    raise ConvergenceError(
        f"power iteration did not stabilize to {tol:g} within {max_iter} iterations",
        last_iterate=x,
        residual=change,
    )


def spectral_norm(M, tol: float = 1e-6, max_iter: int = 10_000, seed: int = POWER_SEED) -> float:
    """Largest singular value of a dense or sparse complex matrix.

    Power iteration on M^dagger M with a deterministic seeded start vector;
    relative accuracy tol, at most max_iter iterations.
    """
    if not 0.0 < tol <= 1e-2:
        raise ParameterError(f"tol must lie in (0, 1e-2], got {tol}")
    if sp.issparse(M):
        data = M.data
    else:
        M = np.asarray(M)
        data = M
    if not np.all(np.isfinite(data)):
        raise ParameterError("matrix contains non-finite entries")
    n = M.shape[1]
    if min(M.shape) == 0:
        return 0.0
    MH = _adjoint(M)
    return _sigma_max(lambda x: M @ x, lambda y: MH @ y, n, tol, max_iter, seed)


def _operator_norm1(A):
    """(A ready for ``A @ x``, ||A||_1); raise ParameterError on non-finite entries."""
    if sp.issparse(A):
        scale = sp.linalg.norm(A, 1)
    else:
        A = np.asarray(A, dtype=complex)
        scale = np.linalg.norm(A, 1)
    if not math.isfinite(float(scale)):
        raise ParameterError("matrix contains non-finite entries")
    return A, float(scale)


def _exp_stepper(A, scale: float, t: float, tol: float):
    """The map v -> exp(A t) v for one fixed (A, t), inputs already checked.

    The substep count s = ceil(|t| ||A||_1), the substep dt = t/s and the
    per-substep cutoff tol/(2s) are fixed here once, so a caller that applies
    the same propagator many times pays for them once. Each substep sums the
    series until the running term is below the cutoff relative to the
    accumulated result, plus two safety terms.
    """
    if t == 0.0 or scale == 0.0:
        return np.copy

    steps = max(1, math.ceil(abs(t) * scale))
    dt = t / steps
    cutoff = tol / (2.0 * steps)
    max_terms = 120

    def step(v: np.ndarray) -> np.ndarray:
        w = v
        for _ in range(steps):
            term = w.copy()
            acc = w.copy()
            converged = False
            for j in range(1, max_terms + 1):
                term = (dt / j) * (A @ term)
                acc += term
                if np.linalg.norm(term) <= cutoff * np.linalg.norm(acc):
                    # two extra terms at essentially zero cost close the tail
                    for jj in (j + 1, j + 2):
                        term = (dt / jj) * (A @ term)
                        acc += term
                    converged = True
                    break
            if not converged:
                raise ConvergenceError(
                    f"exp series did not reach tol={tol:g} within {max_terms} terms "
                    f"(substep norm {abs(dt) * scale:.3g})",
                    last_iterate=acc,
                    residual=float(np.linalg.norm(term)),
                )
            w = acc
        return w

    return step


def exp_action(A, t: float, v: np.ndarray, tol: float = DEFAULT_EXP_TOL) -> np.ndarray:
    """exp(A t) v by truncated Taylor series with scaling.

    The action is split into s substeps with ||A t / s||_1 <= 1, and each
    substep sums the series until the running term is below tol/(2s) of the
    accumulated result (plus two safety terms). Only matrix-vector products
    are used, so A may be sparse, dense, or anything supporting ``A @ x``.
    """
    v = as_state(v, "v")
    if not math.isfinite(t):
        raise ParameterError(f"time must be finite, got {t}")
    if t == 0.0:
        return v.copy()
    A, scale = _operator_norm1(A)
    return _exp_stepper(A, scale, t, tol)(v)


def _augmented(A, b: np.ndarray, x_in: np.ndarray):
    """Operator and start vector whose exponential action carries the ODE.

    Returns M = [[A, b], [0, 0]] and (x_in, 1), so that exp(M t)(x_in, 1)
    holds x(t) in its leading block and keeps its last entry exactly 1; when
    b = 0 it returns A and x_in unchanged.
    """
    if not np.any(b):
        return A, x_in
    n = x_in.size
    if sp.issparse(A):
        aug = sp.bmat(
            [[A, sp.csr_matrix(b.reshape(n, 1))], [None, sp.csr_matrix((1, 1), dtype=complex)]],
            format="csr",
        )
    else:
        aug = np.zeros((n + 1, n + 1), dtype=complex)
        aug[:n, :n] = np.asarray(A, dtype=complex)
        aug[:n, n] = b
    return aug, np.concatenate([x_in, [1.0 + 0.0j]])


def evolve(A, b, x_in, t: float, tol: float = DEFAULT_EXP_TOL) -> np.ndarray:
    """Solution of dx/dt = A x + b at time t >= 0 from x(0) = x_in.

    Computed as exp(M t) (x_in, 1) restricted to the leading block, where
    M = [[A, b], [0, 0]]; equivalently exp(A t) x_in + t phi_1(A t) b. This
    avoids A^{-1} entirely and is exact for singular A.
    """
    x_in = as_state(x_in, "x_in")
    b = as_state(b, "b")
    n = x_in.size
    if b.size != n:
        raise DimensionError(f"b has length {b.size}, expected {n}")
    if t < 0:
        raise ParameterError(f"time must be >= 0, got {t}")
    op, w = _augmented(A, b, x_in)
    return exp_action(op, t, w, tol)[:n]


@dataclass(frozen=True)
class Instance:
    """A diagonalizable test problem A = V diag(eigenvalues) V^{-1}.

    Carries its eigendecomposition by construction (no eigensolver is run on
    A), the inhomogeneity b and initial state x_in, and the condition number
    kappa_V = |V| |V^{-1}|. Immutable after construction; validated on
    creation via :func:`make_instance`.
    """

    V: np.ndarray
    V_inv: np.ndarray
    eigenvalues: np.ndarray
    b: np.ndarray
    x_in: np.ndarray
    kappa_V: float
    A: sp.csr_matrix
    label: str = ""

    @property
    def N(self) -> int:
        return self.x_in.size

    def validate(self) -> None:
        """Check the construction invariants; raise ParameterError on failure."""
        if np.any(self.eigenvalues.real > 0):
            raise ParameterError("eigenvalues must satisfy Re(lambda) <= 0 entrywise")
        resid = np.max(np.abs(self.V @ self.V_inv - np.eye(self.N)))
        if resid > 1e-12:
            raise ParameterError(f"|V V_inv - I|_max = {resid:.3g} exceeds 1e-12")
        kappa = float(np.linalg.norm(self.V, 2) * np.linalg.norm(self.V_inv, 2))
        if abs(kappa - self.kappa_V) > 1e-6 * self.kappa_V:
            raise ParameterError(
                f"kappa_V = {self.kappa_V:.9g} but |V||V_inv| = {kappa:.9g}"
            )


def make_instance(V, eigenvalues, b, x_in, V_inv=None, A=None, kappa_V=None,
                  label: str = "") -> Instance:
    """Assemble and validate an Instance, deriving the optional pieces.

    V_inv defaults to the numerical inverse, A to V diag(eigenvalues) V^{-1}
    (stored sparse), and kappa_V to the measured |V| |V^{-1}|.
    """
    V = np.asarray(V, dtype=complex)
    eigenvalues = np.asarray(eigenvalues, dtype=complex).ravel()
    b = as_state(b, "b")
    x_in = as_state(x_in, "x_in")
    n = x_in.size
    if V.shape != (n, n) or eigenvalues.size != n or b.size != n:
        raise DimensionError("V, eigenvalues, b and x_in must share one dimension")
    if V_inv is None:
        V_inv = np.linalg.inv(V)
    else:
        V_inv = np.asarray(V_inv, dtype=complex)
    if A is None:
        A = sp.csr_matrix((V * eigenvalues) @ V_inv)
    elif not sp.issparse(A):
        A = sp.csr_matrix(np.asarray(A, dtype=complex))
    else:
        A = A.tocsr()
    if kappa_V is None:
        kappa_V = float(np.linalg.norm(V, 2) * np.linalg.norm(V_inv, 2))
    inst = Instance(V=V, V_inv=V_inv, eigenvalues=eigenvalues, b=b, x_in=x_in,
                    kappa_V=float(kappa_V), A=A, label=label)
    inst.validate()
    return inst


def reference_solution(inst: Instance, t: float, tol: float = DEFAULT_EXP_TOL) -> np.ndarray:
    """High-accuracy x(t) for an Instance (the oracle every bound is tested against)."""
    if not 0.0 < tol <= 1e-6:
        raise ParameterError(f"tol must lie in (0, 1e-6], got {tol}")
    return evolve(inst.A, inst.b, inst.x_in, t, tol)


def reference_trajectory(inst: Instance, T: float, m: int) -> np.ndarray:
    """Oracle states x(ih), i = 0..m, h = T/m, as rows; row 0 is x_in itself.

    The augmented operator of :func:`evolve` and its one-interval propagator
    are built once; each row steps the augmented state one interval on from
    the row before, so the whole grid costs one O(T||A||) integration. Every
    row is bit for bit what ``evolve(A, b, previous_row, T/m)`` returns, and
    the last row is x(T).
    """
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    if not (math.isfinite(T) and T >= 0):
        raise ParameterError(f"T must be finite and >= 0, got {T}")
    x_in = as_state(inst.x_in, "x_in")
    n = x_in.size
    op, w = _augmented(inst.A, as_state(inst.b, "b"), x_in)
    op, scale = _operator_norm1(op)
    step = _exp_stepper(op, scale, T / m, DEFAULT_EXP_TOL)
    states = np.empty((m + 1, n), dtype=complex)
    states[0] = x_in
    for i in range(m):
        w = step(w)
        states[i + 1] = w[:n]
    return states
