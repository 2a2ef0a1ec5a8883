"""Complex linear-algebra primitives and the high-accuracy ODE reference oracle.

Everything here is pure and operates on immutable inputs: plain complex128
numpy vectors for states and dense arrays or scipy CSR matrices for
operators, validated by :func:`as_state` and :func:`as_matrix`; scipy.sparse
loads only when a sparse matrix or a Lanczos norm asks for it.
:func:`reference_trajectory` is the one integrator of ``dx/dt = A x + b``:
it carries b as the encoded system does, h b in the block after the state,
so it never inverts A and is exact also for singular A. It sums each
substep's Taylor series in the encoder's own kernel and layout, from
:mod:`odeql.taylor`, with a substep count and an order fixed in advance by
:func:`_oracle_layout`, so no term is tested for a stop.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy

from .errors import ConvergenceError, DimensionError, ParameterError
from .taylor import TaylorParams, block_solve

# Fixed start-vector seed so norm estimates are reproducible run to run.
POWER_SEED = 0xC0FFEE

# Size from which A is handled as sparse rather than dense. norm2 takes Lanczos
# over a dense SVD (3.4-4.1 vs 6.8 ms at N=256, ~70 vs ~500 ms at N=1024, BLAS
# at one thread, agreeing to 2e-15); below it a dense A stays an ndarray, and
# the oracle and forward_substitute expand a CSR A (2.2 vs 9.9 us a product
# through CSR at order 65).
DENSE_CUTOFF = 256

# The dense oracle builds a substep's affine map w -> P w + c (k products of an
# n x n by an n x (n+1) matrix, n = N) only when n^2 <= PROPAGATOR_CROSSOVER m s,
# m intervals of s substeps of k matvecs each; otherwise it steps the state.
# Measured break-even m s at one BLAS thread on a 2-vCPU Xeon VM, k = 22: about
# 12, 27-39 and 75-97 at n = 64, 128 and 255 (the rule says 10, 41 and 163).
# Below n = 20 the rule picks the propagator for any grid; a product of two
# such matrices costs about one matvec, and the worst measured loss is 1.9x at
# n = 17, m s = 1.
PROPAGATOR_CROSSOVER = 400


def as_state(v, name: str = "vector") -> np.ndarray:
    """Validate and convert to a 1-D complex128 state vector."""
    arr = np.asarray(v, dtype=complex)
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionError(f"{name} must be a nonempty 1-D vector")
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{name} contains non-finite entries")
    return arr


def issparse(M) -> bool:
    """Whether M is a scipy sparse matrix, told without loading scipy.sparse:
    no sparse matrix exists before it is loaded."""
    return "scipy.sparse" in sys.modules and sys.modules["scipy.sparse"].issparse(M)


def as_dense(M) -> np.ndarray:
    """M as a dense complex array; a sparse M (a coordinate-format file) is expanded."""
    return np.asarray(M.toarray() if issparse(M) else M, dtype=complex)


def as_matrix(A):
    """Validate a square matrix with finite entries, at complex128: a dense A
    below DENSE_CUTOFF as an ndarray, any other A as canonical CSR (a copy)."""
    sparse = issparse(A)
    A = A.tocsr() if sparse else np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"A must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A.data if sparse else A)):
        raise ParameterError("A contains non-finite entries")
    if not sparse and A.shape[0] < DENSE_CUTOFF:
        return A
    A = scipy.sparse.csr_matrix(A, dtype=complex, copy=True)
    A.sum_duplicates()
    return A


def as_csr(A) -> scipy.sparse.csr_matrix:
    """Validate and convert a square matrix to canonical complex128 CSR."""
    A = as_matrix(A)
    return A if issparse(A) else scipy.sparse.csr_matrix(A)


def spectral_norm(M, tol: float = 1e-6, max_iter: int = 10_000) -> float:
    """Largest singular value of a dense or sparse complex matrix.

    Power iteration on M^dagger M from a start vector fixed by POWER_SEED, so
    the estimate repeats bit for bit. Stops when the estimate is stable to a
    fraction of tol on two consecutive iterations; raises ConvergenceError
    (with last iterate and residual) after max_iter.
    """
    if not 0.0 < tol <= 1e-2:
        raise ParameterError(f"tol must lie in (0, 1e-2], got {tol}")
    M = M if issparse(M) else np.asarray(M)
    if not np.all(np.isfinite(M.data if issparse(M) else M)):
        raise ParameterError("matrix contains non-finite entries")
    n = M.shape[1]
    if min(M.shape) == 0:
        return 0.0
    MH = M.conj().T.tocsr() if issparse(M) else np.conj(M.T)
    rng = np.random.default_rng(POWER_SEED)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    x /= np.linalg.norm(x)

    sigma = 0.0
    stable = 0
    for _ in range(max_iter):
        y = M @ x
        sigma_new = float(np.linalg.norm(y))
        if sigma_new == 0.0:
            return 0.0
        z = MH @ y
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


def lanczos_norm(M, tol: float = 0.0) -> float:
    """Largest singular value of a sparse matrix or a LinearOperator.

    ARPACK Lanczos (``svds``, k=1) on M^dagger M to the relative Ritz
    tolerance tol in [0, 1), 0 meaning machine precision, from a start
    vector fixed by POWER_SEED, so the value repeats bit for bit and numpy's
    global RNG is never drawn from. A Ritz value never exceeds the true
    norm, at any tol. A LinearOperator must supply rmatvec. M must be
    nonzero with min(M.shape) >= 2. Raises ConvergenceError when ARPACK
    does not converge.
    """
    if not 0.0 <= tol < 1.0:
        raise ParameterError(f"tol must lie in [0, 1), got {tol}")
    v0 = np.random.default_rng(POWER_SEED).standard_normal(M.shape[1])
    try:
        return float(scipy.sparse.linalg.svds(M, k=1, tol=tol, v0=v0,
                                              return_singular_vectors=False)[0])
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise ConvergenceError(f"ARPACK did not converge: {exc}") from exc


def norm2(M) -> float:
    """||M||_2 of a dense or sparse M: dense SVD below DENSE_CUTOFF, else Lanczos.

    Non-finite entries raise ParameterError; an all-zero M is 0.0, without ARPACK."""
    M = M if issparse(M) else np.asarray(M)
    data = M.data if issparse(M) else M
    if not np.all(np.isfinite(data)):
        raise ParameterError("matrix contains non-finite entries")
    if not np.any(data):
        return 0.0
    if min(M.shape) < DENSE_CUTOFF:
        return float(np.linalg.norm(M.toarray() if issparse(M) else M, 2))
    return lanczos_norm(M)


@dataclass(frozen=True)
class Instance:
    """A diagonalizable test problem A = V diag(eigenvalues) V^{-1}.

    Carries its eigendecomposition (prescribed in dense ``generate`` mode,
    from an eigensolver in sparse mode and for file input), b, x_in and
    kappa_V = |V| |V^{-1}|; ||A|| is measured once, on first use of
    ``norm_A``. A is an ndarray if it came dense and N < DENSE_CUTOFF, else
    CSR (sparse mode, a coordinate file); :func:`as_dense` reads either.
    Immutable; validated on creation via :func:`make_instance`.
    """

    V: np.ndarray
    V_inv: np.ndarray
    eigenvalues: np.ndarray
    b: np.ndarray
    x_in: np.ndarray
    kappa_V: float
    A: np.ndarray | scipy.sparse.csr_matrix
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


def make_instance(V, eigenvalues, b, x_in, V_inv=None, A=None, kappa_V=None,
                  label: str = "") -> Instance:
    """Assemble and validate an Instance, deriving the optional pieces.

    V and V_inv may be dense or sparse and are stored dense. V_inv defaults to
    the numerical inverse, A to V diag(eigenvalues) V^{-1}, stored in the
    form :func:`as_matrix` gives, and kappa_V to max(1, |V| |V^{-1}|), each
    norm measured once by :func:`norm2` and passed on to :meth:`Instance.validate`.
    """
    V = as_dense(V)
    eigenvalues = as_state(np.ravel(eigenvalues), "eigenvalues")
    b = as_state(b, "b")
    x_in = as_state(x_in, "x_in")
    n = x_in.size
    if V.shape != (n, n) or eigenvalues.size != n or b.size != n:
        raise DimensionError("V, eigenvalues, b and x_in must share one dimension")
    V_inv = np.linalg.inv(V) if V_inv is None else as_dense(V_inv)
    A = as_matrix((V * eigenvalues) @ V_inv if A is None else A)
    norm_V, norm_V_inv = norm2(V), norm2(V_inv)
    if kappa_V is None:
        # |V||V^-1| >= |V V^-1| = 1; rounding can land a hair below
        kappa_V = max(1.0, norm_V * norm_V_inv)
    inst = Instance(V=V, V_inv=V_inv, eigenvalues=eigenvalues, b=b, x_in=x_in,
                    kappa_V=float(kappa_V), A=A, label=label)
    inst.validate(norm_V, norm_V_inv)
    return inst


def reference_solution(inst: Instance, t: float) -> np.ndarray:
    """High-accuracy x(t) for an Instance: the last row of a one-interval trajectory."""
    return reference_trajectory(inst, t, 1)[-1]


def _oracle_layout(inst: Instance, h: float):
    """The kernel layout that carries the ODE one interval h, fixed before any product.

    A substep of length h_s from w gives T_k(A h_s) w + h_s S_k(A h_s) b, which
    is exactly the leading block of the order-k Taylor sum of exp(M h_s) on
    (w, 1), M = [[A, b], [0, 0]]; so exp's series tail bounds the substep's
    error with the scale hypot(||A||_2, ||b||) >= ||M||_2, ||A||_2 from the
    instance's cached ``norm_A``. The interval splits into s = ceil(h scale/2)
    substeps of norm rho = h scale/s <= 2, and k is the least order whose
    series tail, at most rho^(k+1)/(k+1)! (k+2)/(k+2-rho), is at most 2^-53,
    so no product needs a stop test. Returns s and the one-substep layout
    TaylorParams(m=1, k=k, p=1, h=h/s).
    """
    x = h * math.hypot(inst.norm_A, np.linalg.norm(inst.b))
    s = max(1, math.ceil(x / 2))
    rho, k = x / s, 1
    while rho ** (k + 1) / math.factorial(k + 1) * (k + 2) / (k + 2 - rho) > 2.0 ** -53:
        k += 1
    return s, TaylorParams(m=1, k=k, p=1, h=h / s)


def reference_trajectory(inst: Instance, T: float, m: int) -> np.ndarray:
    """Oracle states x(ih), i = 0..m, h = T/m, as rows; row 0 is x_in itself.

    Each substep is one solve of :func:`~odeql.taylor.block_solve`, the
    encoder's own Taylor kernel, on the one-substep layout of
    :func:`_oracle_layout`: the state in block 0 and h_s b in block 1, as
    :func:`~odeql.encoder.build_rhs` places them, and the state one substep
    on read from block k+1. The operator is A itself, dense below
    DENSE_CUTOFF. Where PROPAGATOR_CROSSOVER says it pays, one solve on the
    identity, with an extra zero column fed h_s b, gives the substep as the
    affine map w -> P w + c; otherwise the kernel steps the state itself, in
    O(k N) memory. Either runs s substeps per interval. The last row is x(T).
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
    states = np.empty((m + 1, n), dtype=complex)
    states[:] = x_in
    if T / m == 0.0:
        return states
    op = as_dense(inst.A) if n < DENSE_CUTOFF else inst.A
    s, one = _oracle_layout(inst, T / m)
    source = one.h * b

    def substep(start: np.ndarray, source: np.ndarray) -> np.ndarray:
        """The kernel's final block, from start in block 0 and source in block 1."""
        rhs = np.zeros((one.d + 1, *start.shape), dtype=complex)
        rhs[0], rhs[1] = start, source
        return block_solve(op, one, rhs)[one.k + 1]

    propagate = n < DENSE_CUTOFF and n ** 2 <= PROPAGATOR_CROSSOVER * m * s
    if propagate:
        feed = np.zeros((n, n + 1), dtype=complex)
        feed[:, n] = source
        Pc = substep(np.eye(n, n + 1), feed)
        P, c = Pc[:, :n], Pc[:, n]
    w = x_in
    for i in range(m):
        for _ in range(s):
            w = P @ w + c if propagate else substep(w, source)
        states[i + 1] = w
    return states
