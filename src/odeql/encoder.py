"""Block encoding of truncated-Taylor ODE stepping as a sparse linear system.

The evolution ``x((i+1)h) ~ T_k(Ah) x(ih) + S_k(Ah) h b`` over m steps,
followed by p copy steps, is encoded in a unit-lower-triangular complex
system of d+1 = m(k+1)+p+1 block rows of size N each, in the layout of
:class:`~odeql.taylor.TaylorParams`:

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
and the p copy rows. C is written once, into read-only arrays allocated at
their final dtype. The structural nonzero count

    (d+1) N  +  m k nnz(A)  +  m (k+1) N  +  p N

is exact and testable: the -(Ah)/j blocks inherit A's stored sparsity
pattern, including any explicitly stored zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy

from .errors import DimensionError, IntegrityError, ParameterError
from .numerics import as_csr, as_state, lanczos_norm, norm2
from .taylor import TaylorParams

# Relative rounding bar on the |A|h <= 1 gate: norm2 is exact to rounding, so
# the bar only admits an h = 1/|A| that picked up rounding on its way.
STEP_BOUND_SLACK = 1e-12

# ARPACK's relative Ritz tolerance for ||C||, the lower side of the Lemma 3
# bracket (no verdict reads it). On the suite family at seeds 0-23 it moved
# ||C|| by at most 9.4e-16 from tol = 0 and cut the norm's cost by about a
# third; 1e-5 saved a quarter, 1e-3 departed by 7.9e-12.
NORM_TOL = 1e-4

# Rows per chunk of the triangularity proof, _triangular_chunks: each chunk's
# temporaries stay well under 1 MiB whatever the size of C.
TRIANGULAR_CHUNK = 1 << 14


def _triangular_chunks(C: scipy.sparse.csr_matrix):
    """Prove C canonical CSR and unit lower triangular TRIANGULAR_CHUNK rows at
    a time, yielding each proved chunk's first row lo and its row pointers, a
    view of C.indptr; the first faulty chunk raises.

    Canonical (sorted column indices, no duplicates) puts each row's largest
    column in its last entry, so "the last entry is the diagonal and equals 1"
    rules out every entry above the diagonal and every split diagonal value.
    """
    if not C.has_canonical_format:
        raise IntegrityError("matrix is not canonical CSR "
                             "(unsorted or duplicate column indices)")
    for lo in range(0, C.shape[0], TRIANGULAR_CHUNK):
        ptr = C.indptr[lo:lo + TRIANGULAR_CHUNK + 1]
        if np.any(ptr[1:] == ptr[:-1]):
            raise IntegrityError("matrix has an empty row (missing diagonal)")
        last = ptr[1:] - 1
        if np.any(C.indices[last] != np.arange(lo, lo + last.size)) or np.any(C.data[last] != 1.0):
            raise IntegrityError("the last entry of every row must be its diagonal, "
                                 "equal to 1 (nothing above the diagonal)")
        yield lo, ptr


def _check_triangular(C: scipy.sparse.csr_matrix) -> None:
    """Prove C is canonical CSR and unit lower triangular, by running
    :func:`_triangular_chunks` through."""
    for _ in _triangular_chunks(C):
        pass


def _check_layout(C: scipy.sparse.csr_matrix, A: scipy.sparse.csr_matrix,
                  params: TaylorParams) -> None:
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


def unit_lower_factor(C: scipy.sparse.csr_matrix):
    """SuperLU factor of C, once C is proved canonical unit lower triangular.

    In the natural column order with diagonal pivots, the factor is L = C and
    U = I: no permutation and no fill. ``solve(x)`` applies C^{-1} and
    ``solve(y, trans="H")`` applies C^{-dagger}; C itself is left untouched.
    It pays only for many solves on a small system: at dimension 943k,
    ``splu`` and one solve took 1.2-1.4 s and raised peak RSS by 736 MiB,
    one ``solver.generic_solve``, which works a chunk of rows at a time,
    0.071-0.077 s, its traced peak 0.8 MiB above the solution it returns
    (2-vCPU VM, one BLAS thread).
    """
    _check_triangular(C)
    return scipy.sparse.linalg.splu(C.tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0)


@dataclass(frozen=True)
class EncodedSystem:
    """Assembled system: matrix, right-hand side, layout, the CSR generator
    A that the structured solves apply, whose size is the block size N, and
    norm_A, the ||A||_2 that the step gate checked. ``norm_parts`` and
    ``norm_upper`` (proved), ``norm`` and ``inverse_norm`` (measured) are
    computed once each, on first use."""

    matrix: scipy.sparse.csr_matrix
    rhs: np.ndarray
    params: TaylorParams
    A: scipy.sparse.csr_matrix
    norm_A: float

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
    def norm_parts(self) -> tuple[float, float, float]:
        """(||C1||, ||C2||, ||C3||) = (1, sqrt(k+1), max(h ||A||, 1)), from Lemma 3's
        proof: :func:`_check_layout` proves C = C1 + C2 + C3. No norm of C is measured."""
        _check_layout(self.matrix, self.A, self.params)
        return 1.0, math.sqrt(self.params.k + 1.0), max(self.params.h * self.norm_A, 1.0)

    @cached_property
    def norm_upper(self) -> float:
        """Lemma 3's upper side of ||C||, the sum of :attr:`norm_parts`."""
        return sum(self.norm_parts)

    @cached_property
    def norm(self) -> float:
        """The lower side of ||C||: an ARPACK Ritz value at NORM_TOL, which
        never exceeds the true norm."""
        return lanczos_norm(self.matrix, tol=NORM_TOL)

    @cached_property
    def inverse_norm(self) -> float:
        """||C^{-1}|| = 1/sigma_min(C) by Lanczos on C^{-1}, applied forward and
        adjoint by triangular solves with one :func:`unit_lower_factor` of C;
        C is never inverted or densified."""
        lu = unit_lower_factor(self.matrix)
        return lanczos_norm(scipy.sparse.linalg.LinearOperator(
            (self.dim, self.dim), dtype=complex, matvec=lu.solve,
            rmatvec=lambda y: lu.solve(y, trans="H")))


def build_matrix(A, params: TaylorParams, norm_A: float) -> scipy.sparse.csr_matrix:
    """Assemble the (d+1)N x (d+1)N encoded block matrix for step generator Ah.

    norm_A is ||A||_2 as :func:`norm2` measures it; :func:`encode` measures
    it once and keeps it on the system. Requires |A| h <= 1 (up to a 1e-12
    rounding bar); raises ParameterError directing the caller to shrink h
    otherwise. The result is unit lower triangular with sorted column indices
    and is returned in CSR form, its three arrays read-only.
    """
    A = as_csr(A)
    m, k, p, h = params.m, params.k, params.p, params.h
    if norm_A * h > 1.0 + STEP_BOUND_SLACK:  # the one |A|h <= 1 gate, C's one constructor
        raise ParameterError(f"|A| h = {norm_A * h:.6g} exceeds 1; "
                             f"shrink the step to h <= {1.0 / norm_A:.6g}")
    N = A.shape[0]
    dim, step_rows = (params.d + 1) * N, (k + 1) * N
    step_nnz = k * (A.nnz + N) + (k + 2) * N
    nnz = N + m * step_nnz + 2 * p * N
    # scipy's own choice: int32 unless the nnz or the dimension needs int64
    idx = np.int32 if max(nnz, dim) <= np.iinfo(np.int32).max else np.int64
    indptr = np.empty(dim + 1, dtype=idx)
    indices = np.empty(nnz, dtype=idx)
    data = np.empty(nnz, dtype=complex)

    a_cols, a_ptr = A.indices.astype(idx), A.indptr
    diag_cols = np.arange(N, dtype=idx)

    # Step template: block rows 1..k+1 of step 0; step i shifts every column
    # by i(k+1)N. Taylor row j holds -(Ah)/j under block j-1, then the diagonal.
    step_cols, step_vals = [], []
    for j in range(1, k + 1):
        step_cols.append(np.insert(a_cols + (j - 1) * N, a_ptr[1:], j * N + diag_cols))
        step_vals.append(np.insert(A.data * (-h / j), a_ptr[1:], 1.0))
    # Collector: -I under all k+1 blocks of the step, then the diagonal.
    step_cols.append((np.arange(k + 2, dtype=idx) * N + diag_cols[:, None]).ravel())
    step_vals.append(np.tile(np.append(np.full(k + 1, -1.0, dtype=complex), 1.0), N))
    step_ptr = np.cumsum(np.concatenate([np.tile(np.diff(a_ptr) + 1, k), np.full(N, k + 2)]),
                         dtype=idx)

    # Each section is written once, in place: block row 0 (the identity), the
    # m shifted template copies, then the p copy rows, which hold -I on the
    # subdiagonal and then the diagonal, from entry `copies` on.
    copies = N + m * step_nnz
    indptr[:N + 1] = np.arange(N + 1)
    np.add(step_ptr, (N + step_nnz * np.arange(m, dtype=idx))[:, None],
           out=indptr[N + 1:N + 1 + m * step_rows].reshape(m, step_rows))
    indptr[N + 1 + m * step_rows:] = np.arange(copies + 2, nnz + 1, 2)
    indices[:N] = diag_cols
    np.add(np.concatenate(step_cols), (step_rows * np.arange(m, dtype=idx))[:, None],
           out=indices[N:copies].reshape(m, step_nnz))
    np.add(np.arange(dim - p * N, dim, dtype=idx)[:, None], np.array([-N, 0], dtype=idx),
           out=indices[copies:].reshape(p * N, 2))
    data[:N] = 1.0
    data[N:copies].reshape(m, step_nnz)[:] = np.concatenate(step_vals)
    data[copies:].reshape(p * N, 2)[:] = [-1.0, 1.0]
    for array in (indptr, indices, data):
        array.flags.writeable = False
    return scipy.sparse.csr_matrix((data, indices, indptr), shape=(dim, dim))


def build_rhs(x_in, b, params: TaylorParams) -> np.ndarray:
    """Right-hand side: x_in in block 0, h*b in block i(k+1)+1 for each step i.
    Writable, as forward_substitute solves in place in it."""
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
    """Build matrix and right-hand side together as one EncodedSystem; the
    rhs is read-only, like the matrix's arrays."""
    A = as_csr(A)
    rhs = build_rhs(x_in, b, params)
    rhs.flags.writeable = False
    if rhs.size != (params.d + 1) * A.shape[0]:  # before the gate and the assembly
        raise DimensionError("state dimension does not match the matrix block size")
    norm_A = norm2(A)
    matrix = build_matrix(A, params, norm_A)
    return EncodedSystem(matrix=matrix, rhs=rhs, params=params, A=A, norm_A=norm_A)

