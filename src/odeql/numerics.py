"""Complex linear-algebra primitives and the high-accuracy ODE reference oracle.

Everything here is pure and operates on immutable inputs: plain complex128
numpy vectors for states and scipy CSR matrices (or dense arrays) for
operators. :func:`reference_trajectory` is the one integrator of
``dx/dt = A x + b``: it applies the exponential of the augmented matrix
``[[A, b], [0, 0]]`` to ``(x_in, 1)``, which never inverts A and is exact
also for singular A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, svds

from .errors import ConvergenceError, DimensionError, ParameterError

# Fixed start-vector seed so norm estimates are reproducible run to run.
POWER_SEED = 0xC0FFEE

# Size from which norm2 takes Lanczos over a dense SVD: 3.4-4.1 vs 6.8 ms at
# N=256, ~70 vs ~500 ms at N=1024 (BLAS at one thread), agreeing to 2e-15.
LANCZOS_CUTOFF = 256

# Accuracy of the reference oracle's exponential series; small enough that
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


def lanczos_norm(M) -> float:
    """Largest singular value of a sparse matrix or a LinearOperator.

    ARPACK Lanczos (``svds``, k=1) on M^dagger M to machine precision, from
    a start vector fixed by POWER_SEED, so the value repeats bit for bit and
    numpy's global RNG is never drawn from. A LinearOperator must supply
    rmatvec. M must be nonzero with min(M.shape) >= 2. Raises
    ConvergenceError when ARPACK does not converge.
    """
    v0 = np.random.default_rng(POWER_SEED).standard_normal(M.shape[1])
    try:
        return float(svds(M, k=1, v0=v0, return_singular_vectors=False)[0])
    except ArpackNoConvergence as exc:
        raise ConvergenceError(f"ARPACK did not converge: {exc}") from exc


def norm2(M) -> float:
    """||M||_2 of a dense or sparse M: dense SVD below LANCZOS_CUTOFF, else Lanczos.

    Non-finite entries raise ParameterError; an all-zero M is 0.0, without ARPACK."""
    data = M.data if sp.issparse(M) else M
    if not np.all(np.isfinite(data)):
        raise ParameterError("matrix contains non-finite entries")
    if not np.any(data):
        return 0.0
    if min(M.shape) < LANCZOS_CUTOFF:
        return float(np.linalg.norm(M.toarray() if sp.issparse(M) else M, 2))
    return lanczos_norm(M)


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


@dataclass(frozen=True)
class Instance:
    """A diagonalizable test problem A = V diag(eigenvalues) V^{-1}.

    Carries its eigendecomposition (prescribed in dense ``generate`` mode,
    from an eigensolver in sparse mode and for file input), b, x_in and
    kappa_V = |V| |V^{-1}|; ||A|| is measured once, on first use of
    ``norm_A``. Immutable; validated on creation via :func:`make_instance`.
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

    @cached_property
    def norm_A(self) -> float:
        """||A||_2 by :func:`norm2`, measured on first use and kept."""
        return norm2(self.A)

    def validate(self, norm_V: float, norm_V_inv: float) -> None:
        """Check the construction invariants; raise ParameterError on failure.

        The |V V_inv - I|_max tolerance is max(1e-12, N kappa eps_machine),
        kappa = norm_V norm_V_inv the measured |V||V_inv|: the rounding floor
        of the product. |A V - V diag(eigenvalues)|_max gets that tolerance
        times max|lambda| |V|, which covers A formed as V diag(lambda) V_inv
        and an eigensolver's backward error on a given A (|A| <= kappa
        max|lambda|), but not an A that does not match the eigenvalues.
        """
        if np.any(self.eigenvalues.real > 0):
            raise ParameterError("eigenvalues must satisfy Re(lambda) <= 0 entrywise")
        kappa = norm_V * norm_V_inv
        tol = max(1e-12, self.N * kappa * np.finfo(float).eps)
        resid = np.max(np.abs(self.V @ self.V_inv - np.eye(self.N)))
        if resid > tol:
            raise ParameterError(f"|V V_inv - I|_max = {resid:.3g} exceeds {tol:.3g}")
        resid = np.max(np.abs(self.A @ self.V - self.V * self.eigenvalues))
        tol *= np.max(np.abs(self.eigenvalues)) * norm_V
        if not resid <= tol:
            raise ParameterError(
                f"|A V - V diag(eigenvalues)|_max = {resid:.3g} exceeds {tol:.3g}")
        if abs(kappa - self.kappa_V) > 1e-6 * self.kappa_V:
            raise ParameterError(
                f"kappa_V = {self.kappa_V:.9g} but |V||V_inv| = {kappa:.9g}"
            )


def _dense(M) -> np.ndarray:
    """M as a dense complex array; sparse M (a coordinate-format file) is expanded."""
    return np.asarray(M.toarray() if sp.issparse(M) else M, dtype=complex)


def make_instance(V, eigenvalues, b, x_in, V_inv=None, A=None, kappa_V=None,
                  label: str = "") -> Instance:
    """Assemble and validate an Instance, deriving the optional pieces.

    V and V_inv may be dense or sparse and are stored dense. V_inv defaults to
    the numerical inverse, A to V diag(eigenvalues) V^{-1} (stored sparse),
    and kappa_V to |V| |V^{-1}|, each norm measured once by :func:`norm2` and
    passed on to :meth:`Instance.validate`.
    """
    V = _dense(V)
    eigenvalues = as_state(np.ravel(eigenvalues), "eigenvalues")
    b = as_state(b, "b")
    x_in = as_state(x_in, "x_in")
    n = x_in.size
    if V.shape != (n, n) or eigenvalues.size != n or b.size != n:
        raise DimensionError("V, eigenvalues, b and x_in must share one dimension")
    V_inv = np.linalg.inv(V) if V_inv is None else _dense(V_inv)
    if A is None:
        A = sp.csr_matrix((V * eigenvalues) @ V_inv)
    elif not sp.issparse(A):
        A = sp.csr_matrix(np.asarray(A, dtype=complex))
    else:
        A = A.tocsr()
    norm_V, norm_V_inv = norm2(V), norm2(V_inv)
    if kappa_V is None:
        kappa_V = norm_V * norm_V_inv
    inst = Instance(V=V, V_inv=V_inv, eigenvalues=eigenvalues, b=b, x_in=x_in,
                    kappa_V=float(kappa_V), A=A, label=label)
    inst.validate(norm_V, norm_V_inv)
    return inst


def reference_solution(inst: Instance, t: float) -> np.ndarray:
    """High-accuracy x(t) for an Instance: the last row of a one-interval trajectory."""
    return reference_trajectory(inst, t, 1)[-1]


def reference_trajectory(inst: Instance, T: float, m: int) -> np.ndarray:
    """Oracle states x(ih), i = 0..m, h = T/m, as rows; row 0 is x_in itself.

    The augmented operator of :func:`_augmented`, its 1-norm and its
    one-interval propagator are built once; each row steps the augmented
    state one interval on from the row before, so the whole grid costs one
    O(T||A||) integration, and the last row is x(T).
    """
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    if not (math.isfinite(T) and T >= 0):
        raise ParameterError(f"T must be finite and >= 0, got {T}")
    x_in = as_state(inst.x_in, "x_in")
    b = as_state(inst.b, "b")
    n = x_in.size
    if b.size != n:
        raise DimensionError(f"b has length {b.size}, expected {n}")
    op, w = _augmented(inst.A, b, x_in)
    if sp.issparse(op):
        scale = float(sp.linalg.norm(op, 1))
    else:
        op = np.asarray(op, dtype=complex)
        scale = float(np.linalg.norm(op, 1))
    if not math.isfinite(scale):
        raise ParameterError("matrix contains non-finite entries")
    step = _exp_stepper(op, scale, T / m, DEFAULT_EXP_TOL)
    states = np.empty((m + 1, n), dtype=complex)
    states[0] = x_in
    for i in range(m):
        w = step(w)
        states[i + 1] = w[:n]
    return states
