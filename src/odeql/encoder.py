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
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, splu

from .errors import DimensionError, IntegrityError, ParameterError
from .numerics import as_state, lanczos_norm, norm2

# Relative rounding bar on the |A|h <= 1 gate: norm2 is exact to rounding, so
# the bar only admits an h = 1/|A| that picked up rounding on its way.
STEP_BOUND_SLACK = 1e-12


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
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise ParameterError(f"{name} must be a positive integer, got {value!r}")
        if isinstance(self.h, bool) or not (
                isinstance(self.h, (int, float)) and math.isfinite(self.h) and self.h > 0):
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


def _check_triangular(C: sp.csr_matrix) -> None:
    """Prove C is canonical CSR and unit lower triangular.

    Canonical (sorted column indices, no duplicates) puts each row's largest
    column in its last entry, so "the last entry is the diagonal and equals 1"
    rules out every entry above the diagonal and every split diagonal value.
    """
    if not C.has_canonical_format:
        raise IntegrityError("matrix is not canonical CSR "
                             "(unsorted or duplicate column indices)")
    n = C.shape[0]
    last = C.indptr[1:] - 1
    if np.any(C.indptr[1:] == C.indptr[:-1]):
        raise IntegrityError("matrix has an empty row (missing diagonal)")
    if np.any(C.indices[last] != np.arange(n)) or np.any(C.data[last] != 1.0):
        raise IntegrityError("the last entry of every row must be its diagonal, "
                             "equal to 1 (nothing above the diagonal)")


def _check_layout(C: sp.csr_matrix, A: sp.csr_matrix, params: TaylorParams) -> None:
    """Prove in O(nnz) that C encodes canonical CSR A under params: below the
    diagonal, collector rows hold -1 once in each block of their step and every
    other entry sits one block left, as A.data * (-h/j) in Taylor row j or a
    lone -1 in a copy row. So ||C2|| = sqrt(k+1) and ||C3|| = max(h||A||, 1)."""
    _check_triangular(C)
    N, m, k, body = A.shape[0], params.m, params.k, params.m * (params.k + 1)
    step = np.concatenate([np.tile(np.diff(A.indptr), k), np.full(N, k + 1)])
    counts = np.concatenate([np.zeros(N, int), np.tile(step, m), np.ones(params.p * N, int)])
    if not np.array_equal(np.diff(C.indptr) - 1, counts):
        raise IntegrityError("C breaks the encoded layout: wrong entry counts below the diagonal")
    lower = np.delete(np.arange(C.nnz), C.indptr[1:] - 1)
    rows = np.repeat(np.arange(counts.size), counts)
    cols, vals, (block, r) = C.indices[lower], C.data[lower], np.divmod(rows, N)
    coll, copy = (block % (k + 1) == 0) & (block <= body), block > body
    taylor, slot = ~coll & ~copy, np.tile(np.arange(k + 1), m * N)
    scaled = np.concatenate([A.data * (-params.h / j) for j in range(1, k + 1)])
    broken = [claim for claim, held in (
        ("collector rows hold -1 once in each block of their step",
         np.all(cols[coll] == (block[coll] - k - 1 + slot) * N + r[coll])
         and np.all(vals[coll] == -1)),
        ("other lower entries sit one block left", np.all(cols[~coll] // N == block[~coll] - 1)),
        ("Taylor rows hold A's pattern times -h/j",
         np.all(cols[taylor] % N == np.tile(A.indices, m * k))
         and np.all(vals[taylor] == np.tile(scaled, m))),
        ("copy rows hold -1 on the subdiagonal",
         np.all(cols[copy] == rows[copy] - N) and np.all(vals[copy] == -1)),
    ) if not held]
    if broken:
        raise IntegrityError("C breaks the encoded layout: " + "; ".join(broken))


def unit_lower_factor(C: sp.csr_matrix):
    """SuperLU factor of C, once C is proved canonical unit lower triangular.

    In the natural column order with diagonal pivots, the factor is L = C and
    U = I: no permutation and no fill. ``solve(x)`` applies C^{-1} and
    ``solve(y, trans="H")`` applies C^{-dagger}; C itself is left untouched.
    It pays only for many solves on a small system: at dimension 943k,
    ``splu`` and one solve took 1.14 s and 650 MiB more peak memory,
    ``spsolve_triangular`` 0.25 s and 115 MiB (2-vCPU VM, one BLAS thread).
    """
    _check_triangular(C)
    return splu(C.tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0)


@dataclass(frozen=True)
class EncodedSystem:
    """Assembled system: matrix, right-hand side, layout and the CSR generator
    A that the structured solves apply, whose size is the block size N;
    ``norm`` and ``inverse_norm`` are measured once each, on first use."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    params: TaylorParams
    A: sp.csr_matrix

    @property
    def N(self) -> int:
        return self.A.shape[0]

    @property
    def dim(self) -> int:
        return (self.params.d + 1) * self.N

    @property
    def expected_nnz(self) -> int:
        """Closed-form structural nonzero count of the encoded matrix."""
        m, k, p = self.params.m, self.params.k, self.params.p
        d = self.params.d
        return (d + 1) * self.N + m * k * self.A.nnz + m * (k + 1) * self.N + p * self.N

    @cached_property
    def norm(self) -> float:
        """||C|| by ARPACK Lanczos, exact to rounding."""
        return lanczos_norm(self.matrix)

    @cached_property
    def inverse_norm(self) -> float:
        """||C^{-1}|| = 1/sigma_min(C) by Lanczos on C^{-1}, applied forward and
        adjoint by triangular solves with one :func:`unit_lower_factor` of C;
        C is never inverted or densified."""
        lu = unit_lower_factor(self.matrix)
        return lanczos_norm(LinearOperator(
            (self.dim, self.dim), dtype=complex, matvec=lu.solve,
            rmatvec=lambda y: lu.solve(y, trans="H")))


def _require_step_bound(A: sp.csr_matrix, h: float) -> None:
    """The one |A|h <= 1 gate, in build_matrix, the one constructor of C."""
    norm = norm2(A)
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
    if not np.all(np.isfinite(A.data)):
        raise ParameterError("A contains non-finite entries")
    A = A.astype(complex)
    A.sum_duplicates()
    return A


def build_matrix(A, params: TaylorParams) -> sp.csr_matrix:
    """Assemble the (d+1)N x (d+1)N encoded block matrix for step generator Ah.

    Requires |A| h <= 1 (up to a 1e-12 rounding bar); raises ParameterError
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
    rhs = build_rhs(x_in, b, params)
    if rhs.size != (params.d + 1) * A.shape[0]:  # before the gate and the assembly
        raise DimensionError("state dimension does not match the matrix block size")
    matrix = build_matrix(A, params)
    return EncodedSystem(matrix=matrix, rhs=rhs, params=params, A=A)

