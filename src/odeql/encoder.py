"""Block encoding of truncated-Taylor ODE stepping as a sparse linear system.

The evolution ``x((i+1)h) ~ T_k(Ah) x(ih) + S_k(Ah) h b`` over m steps,
followed by p copy steps, is encoded in a unit-lower-triangular complex
system of d+1 = m(k+1)+p+1 block rows of size N each:

* every diagonal block is the identity;
* block row ``i(k+1)+j`` (0 <= i < m, 1 <= j <= k) carries ``-(Ah)/j`` just
  below the diagonal, building the Taylor terms ``(Ah)^j/j! ...`` one product
  at a time;
* block row ``(i+1)(k+1)`` is a collector: ``-I`` under all k+1 blocks of
  step i, so forward substitution sums them into the next step's state;
* the last p block rows copy the final state (``-I`` on the subdiagonal),
  padding the solution so a measurement lands on the final state with
  useful probability.

The right-hand side holds x_in in block 0 and h*b in block ``i(k+1)+1`` of
every step. Forward substitution then reproduces the stepping exactly.

No block of a step depends on the step index i, so the matrix is assembled
directly in compressed sparse row layout from one step template: the k Taylor
block rows and the collector of step 0 are built once, and step i repeats
them with every column shifted by i(k+1)N, between the identity block row 0
and the p copy rows. The structural nonzero count

    (d+1) N  +  m k nnz(A)  +  m (k+1) N  +  p N

is exact and testable: the -(Ah)/j blocks inherit A's stored sparsity
pattern, including any explicitly stored zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import (
    DegenerateInputError,
    DimensionError,
    HypothesisError,
    ParameterError,
)
from .numerics import as_state, spectral_norm

# Relative tolerance on the |A|h <= 1 gate; spectral_norm is itself
# approximate, so hard equality would spuriously reject h = 1/|A|.
STEP_BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class BlockIndex:
    """Position of one size-N block: step i, within-step index j, flat row l."""

    i: int
    j: int
    flat: int


@dataclass(frozen=True)
class TaylorParams:
    """The parameter tuple (m, k, p, h) governing the block layout.

    m: number of evolution steps; k: Taylor truncation order; p: number of
    trailing copy (padding) blocks; h: evolution time per step. The total
    number of blocks is d + 1 with d = m(k+1) + p.
    """

    m: int
    k: int
    p: int
    h: float

    def __post_init__(self):
        for name in ("m", "k", "p"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ParameterError(f"{name} must be a positive integer, got {value!r}")
        if not (isinstance(self.h, (int, float)) and math.isfinite(self.h) and self.h > 0):
            raise ParameterError(f"h must be a positive finite real, got {self.h!r}")

    @property
    def d(self) -> int:
        return self.m * (self.k + 1) + self.p

    @property
    def T(self) -> float:
        """Total simulated time m*h."""
        return self.m * self.h

    def flat(self, i: int, j: int) -> int:
        """Flat block index l = i(k+1)+j of block (i, j)."""
        if not 0 <= i <= self.m:
            raise DimensionError(f"step index {i} outside 0..{self.m}")
        j_max = self.k if i < self.m else self.p
        if not 0 <= j <= j_max:
            raise DimensionError(f"within-step index {j} outside 0..{j_max} at i={i}")
        return i * (self.k + 1) + j

    def block(self, flat: int) -> BlockIndex:
        """Inverse of :meth:`flat`."""
        if not 0 <= flat <= self.d:
            raise DimensionError(f"flat index {flat} outside 0..{self.d}")
        body = self.m * (self.k + 1)
        if flat < body:
            return BlockIndex(i=flat // (self.k + 1), j=flat % (self.k + 1), flat=flat)
        return BlockIndex(i=self.m, j=flat - body, flat=flat)

    def success_set(self) -> range:
        """Flat indices of the final-state blocks {m(k+1), ..., m(k+1)+p}."""
        return range(self.m * (self.k + 1), self.d + 1)

    def require_bound_hypotheses(self) -> None:
        """Enforce k >= 5 and (k+1)! >= 2m, required by the bound suites."""
        if self.k < 5:
            raise HypothesisError(f"bounds require k >= 5, got k={self.k}")
        if math.lgamma(self.k + 2) < math.log(2 * self.m):
            raise HypothesisError(
                f"bounds require (k+1)! >= 2m, got k={self.k}, m={self.m}"
            )


@dataclass(frozen=True)
class EncodedSystem:
    """Assembled system: matrix, right-hand side, layout, block size and the
    CSR generator A that the structured solves apply."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    params: TaylorParams
    N: int
    A: sp.csr_matrix

    @property
    def nnz_A(self) -> int:
        return self.A.nnz

    @property
    def dim(self) -> int:
        return (self.params.d + 1) * self.N

    @property
    def expected_nnz(self) -> int:
        """Closed-form structural nonzero count of the encoded matrix."""
        m, k, p = self.params.m, self.params.k, self.params.p
        d = self.params.d
        return (d + 1) * self.N + m * k * self.nnz_A + m * (k + 1) * self.N + p * self.N


def _require_step_bound(A: sp.csr_matrix, h: float) -> None:
    norm = spectral_norm(A, tol=1e-6)
    if norm * h > 1.0 + STEP_BOUND_SLACK:
        raise ParameterError(
            f"|A| h = {norm * h:.6g} exceeds 1; shrink the step to h <= {1.0 / norm:.6g}"
        )


def _as_csr(A) -> sp.csr_matrix:
    if sp.issparse(A):
        A = A.tocsr()
    else:
        A = sp.csr_matrix(np.asarray(A, dtype=complex))
    if A.shape[0] != A.shape[1]:
        raise DimensionError(f"A must be square, got shape {A.shape}")
    A = A.astype(complex)
    A.sort_indices()
    return A


def build_matrix(A, params: TaylorParams) -> sp.csr_matrix:
    """Assemble the (d+1)N x (d+1)N encoded block matrix for step generator Ah.

    Requires |A| h <= 1 (within a 1e-9 relative slack); raises ParameterError
    directing the caller to shrink h otherwise. The result is unit lower
    triangular with sorted column indices and is returned in CSR form.
    """
    A = _as_csr(A)
    _require_step_bound(A, params.h)
    N = A.shape[0]
    m, k, p, h = params.m, params.k, params.p, params.h
    d = params.d

    a_cols, a_ptr = A.indices.astype(np.int64), A.indptr
    diag_cols = np.arange(N, dtype=np.int64)
    ones = np.ones(N, dtype=complex)

    # Step template: block rows 1..k+1 of step 0; step i shifts every column
    # by i(k+1)N. Taylor row j holds -(Ah)/j under block j-1, then the diagonal.
    step_cols, step_vals = [], []
    for j in range(1, k + 1):
        step_cols.append(np.insert(a_cols + (j - 1) * N, a_ptr[1:], j * N + diag_cols))
        step_vals.append(np.insert(A.data * (-h / j), a_ptr[1:], ones))
    # Collector: -I under all k+1 blocks of the step, then the diagonal.
    step_cols.append((np.arange(k + 2, dtype=np.int64) * N + diag_cols[:, None]).ravel())
    step_vals.append(np.tile(np.append(np.full(k + 1, -1.0, dtype=complex), 1.0), N))
    step_cols = np.concatenate(step_cols)
    step_counts = np.concatenate([np.tile(np.diff(a_ptr) + 1, k), np.full(N, k + 2)])

    # Copy rows: -I on the subdiagonal, then the diagonal.
    copy_rows = np.arange((d + 1 - p) * N, (d + 1) * N, dtype=np.int64)

    indptr = np.zeros((d + 1) * N + 1, dtype=np.int64)
    np.cumsum(np.concatenate([np.ones(N, dtype=np.int64), np.tile(step_counts, m),
                              np.full(p * N, 2)]), out=indptr[1:])
    indices = np.concatenate([
        diag_cols,
        (step_cols + (k + 1) * N * np.arange(m, dtype=np.int64)[:, None]).ravel(),
        np.stack([copy_rows - N, copy_rows], axis=1).ravel(),
    ])
    data = np.concatenate([ones, np.tile(np.concatenate(step_vals), m),
                           np.tile(np.array([-1.0, 1.0], dtype=complex), p * N)])
    return sp.csr_matrix((data, indices, indptr), shape=((d + 1) * N, (d + 1) * N))


def build_rhs(x_in, b, params: TaylorParams) -> np.ndarray:
    """Right-hand side: x_in in block 0, h*b in block i(k+1)+1 for each step i."""
    x_in = as_state(x_in, "x_in")
    b = as_state(b, "b")
    N = x_in.size
    if b.size != N:
        raise DimensionError(f"b has length {b.size}, expected {N}")
    rhs = np.zeros((params.d + 1, N), dtype=complex)
    rhs[0] = x_in
    rhs[1:params.m * (params.k + 1):params.k + 1] = params.h * b
    return rhs.ravel()


def encode(A, x_in, b, params: TaylorParams) -> EncodedSystem:
    """Build matrix and right-hand side together as one EncodedSystem."""
    A = _as_csr(A)
    matrix = build_matrix(A, params)
    rhs = build_rhs(x_in, b, params)
    if rhs.size != matrix.shape[0]:
        raise DimensionError("state dimension does not match the matrix block size")
    return EncodedSystem(matrix=matrix, rhs=rhs, params=params, N=A.shape[0], A=A)


def simulate_state_prep(x_in_norm: float, b_norm: float, x_in_state, b_state,
                        params: TaylorParams) -> np.ndarray:
    """Amplitude-level simulation of preparing the normalized right-hand side.

    Mirrors the three-stage preparation: a rotation on the block-index
    register splitting weight ``|x_in| : sqrt(m) h |b|`` between index 0 and
    index 1, controlled state oracles loading the normalized x_in and b, and
    a spreader mapping index 1 uniformly onto the m source blocks
    ``i(k+1)+1``. The result equals the normalized right-hand side.
    """
    if x_in_norm < 0 or b_norm < 0:
        raise ParameterError("norms must be nonnegative")
    if x_in_norm == 0 and b_norm == 0:
        raise DegenerateInputError("x_in and b cannot both vanish")
    x_in_state = as_state(x_in_state, "x_in_state")
    b_state = as_state(b_state, "b_state")
    N = x_in_state.size
    if b_state.size != N:
        raise DimensionError(f"b_state has length {b_state.size}, expected {N}")
    for name, norm, state in (("x_in_state", x_in_norm, x_in_state),
                              ("b_state", b_norm, b_state)):
        if norm > 0 and abs(np.linalg.norm(state) - 1.0) > 1e-12:
            raise ParameterError(f"{name} must be unit norm")

    m, k, h = params.m, params.k, params.h
    d = params.d

    # Stage 1: rotation on the index register.
    normalizer = math.sqrt(x_in_norm**2 + m * h**2 * b_norm**2)
    index_amps = np.zeros(d + 1, dtype=complex)
    index_amps[0] = x_in_norm / normalizer
    index_amps[1] = math.sqrt(m) * h * b_norm / normalizer

    # Stage 2: controlled oracles attach the normalized states.
    out = np.zeros((d + 1, N), dtype=complex)
    out[0] = index_amps[0] * x_in_state
    branch_one = index_amps[1] * b_state

    # Stage 3: spread index 1 uniformly over the m source blocks.
    out[1:m * (k + 1):k + 1] = branch_one / math.sqrt(m)

    return out.ravel()
