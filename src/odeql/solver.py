"""Structure-aware solution of the encoded system.

The primary path, :func:`forward_substitute`, never assembles the big matrix:
it runs the package's one Taylor kernel, :func:`~odeql.taylor.block_solve`,
on x_in in block 0 and h b in block i(k+1)+1 of every step, at a cost of m*k
products with A plus vector additions. The solvers check shapes, finiteness
and structure, never a hypothesis of the paper.

:func:`generic_solve`, the independent cross-check, solves the assembled
matrix only once the encoder has proved it canonical CSR and unit lower
triangular, by forward substitution over dependency panels: a panel is a run
of rows that read no column of the panel itself, so one sparse product with
the solved part gives all of its rows at once. The panels use only the
proved triangular form, nothing of the Taylor layout; on an encoded C whose
A has no empty row they are its d+1 block rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy

from .encoder import TRIANGULAR_CHUNK, EncodedSystem, _check_triangular, build_rhs
from .errors import DegenerateInputError, DimensionError
from .numerics import DENSE_CUTOFF, as_dense, as_matrix, as_state
from .taylor import TaylorParams, block_solve


@dataclass(frozen=True)
class BlockSolution:
    """All d+1 solution blocks, addressable by (step, within-step) index.

    ``data`` has shape (d+1, N); row l holds the block with flat index l.
    The array is frozen read-only after construction.
    """

    params: TaylorParams
    data: np.ndarray

    def block(self, i: int, j: int) -> np.ndarray:
        return self.data[self.params.flat(i, j)]

    def vector(self) -> np.ndarray:
        """The solution as one flat (d+1)N vector."""
        return self.data.ravel()

    def step_states(self) -> np.ndarray:
        """The history blocks x_{i,0} for i = 0..m, shape (m+1, N)."""
        k = self.params.k
        rows = np.arange(self.params.m + 1) * (k + 1)
        return self.data[rows]

    def final_state(self) -> np.ndarray:
        return self.block(self.params.m, 0)


def forward_substitute(A, params: TaylorParams, x_in, b) -> BlockSolution:
    """Solve the encoded system block-by-block without assembling it.

    Any h gives blocks that satisfy the recurrences exactly (padding blocks
    are bitwise copies, block (0,0) is exactly x_in); |A| h <= 1 is gated by
    :func:`~odeql.encoder.encode`. Below DENSE_CUTOFF the kernel applies A as a
    dense ndarray, from there as CSR.
    """
    A = as_matrix(A)
    N = A.shape[0]
    rhs = build_rhs(x_in, b, params)
    if rhs.size != (params.d + 1) * N:
        raise DimensionError("x_in and b must match the dimension of A")
    data = block_solve(as_dense(A) if N < DENSE_CUTOFF else A, params,
                       rhs.reshape(params.d + 1, N))
    data.flags.writeable = False
    return BlockSolution(params=params, data=data)


def _panels(C: scipy.sparse.csr_matrix):
    """Yield the dependency panels [s, e) of a proved unit lower-triangular C,
    in order: e is the first row after s that reads a column >= s.

    The rows are read TRIANGULAR_CHUNK at a time, like the triangularity
    proof. reach[r - lo] is the largest column below the diagonal in rows
    lo..r; every row before e reads only columns < s, so e is the first r
    with reach[r - lo] >= s, or the panel runs on into the next chunk.
    """
    n, s = C.shape[0], 0
    for lo in range(0, n, TRIANGULAR_CHUNK):
        stop = C.indptr[lo + 1:lo + TRIANGULAR_CHUNK + 1]
        # a row's second-to-last entry is its largest column below the
        # diagonal; a row holding only its diagonal gets -1 (there stop - 2
        # points into the row before, or wraps round for row 0)
        below = np.where(stop - C.indptr[lo:lo + stop.size] > 1, C.indices[stop - 2], -1)
        reach = np.maximum.accumulate(below)
        while (e := lo + int(reach.searchsorted(s))) < lo + stop.size:
            yield s, e
            s = e
    yield s, n


def generic_solve(system: EncodedSystem) -> np.ndarray:
    """Cross-validation path: generic sparse forward substitution on the
    assembled matrix, once its canonical, unit lower-triangular form is
    proved, one dependency panel [s, e) at a time. With x zero from s on,
    x[s:e] = rhs[s:e] - C[s:e] @ x, the diagonal meeting only zeros, sums
    each row in forward substitution's order. C[s:e] is a CSR matrix on the
    panel's slices of C (scipy copies a panel's values and indices, never
    more). ``system.matrix`` and ``system.rhs`` are never changed."""
    C, rhs = system.matrix, system.rhs
    _check_triangular(C)
    n = C.shape[0]
    x = np.zeros(n, dtype=complex)
    for s, e in _panels(C):
        a, b = C.indptr[s], C.indptr[e]
        rows = scipy.sparse.csr_matrix((C.data[a:b], C.indices[a:b], C.indptr[s:e + 1] - a),
                                       shape=(e - s, n))
        x[s:e] = rhs[s:e] - rows @ x
    return x


def residual(system: EncodedSystem, x) -> float:
    """Relative residual |C x - rhs| / |rhs|; undefined when rhs vanishes."""
    x = as_state(x, "x")
    if x.size != system.dim:
        raise DimensionError(f"x has length {x.size}, expected {system.dim}")
    rhs_norm = np.linalg.norm(system.rhs)
    if rhs_norm == 0.0:
        raise DegenerateInputError("right-hand side vanishes (x_in = b = 0); "
                                   "relative residual undefined")
    return float(np.linalg.norm(system.matrix @ x - system.rhs) / rhs_norm)
