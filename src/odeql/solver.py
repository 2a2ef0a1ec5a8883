"""Structure-aware solution of the encoded system.

The primary path, :func:`forward_substitute`, never assembles the big matrix:
it walks the blocks in flat order and replays the defining recurrences

    x_{0,0} = x_in
    x_{i,1} = Ah x_{i,0} + h b
    x_{i,j} = (Ah/j) x_{i,j-1}              2 <= j <= k
    x_{i+1,0} = sum_{j=0}^{k} x_{i,j}
    x_{m,j} = x_{m,j-1}                     1 <= j <= p

at a cost of m*k sparse matrix-vector products plus vector additions.
:func:`block_solve` is the one kernel for these recurrences: it solves C or
C^dagger for any stack of right-hand sides, and backs forward substitution,
the inverse-norm estimate and the scalar inverse columns.
The assembled matrix is solved only by :func:`generic_solve`, the
independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve_triangular

from .encoder import (
    EncodedSystem,
    TaylorParams,
    _as_csr,
    _require_step_bound,
    build_rhs,
)
from .errors import DegenerateInputError, DimensionError, IntegrityError
from .numerics import _adjoint, as_state


@dataclass(frozen=True)
class BlockSolution:
    """All d+1 solution blocks, addressable by (step, within-step) index.

    ``data`` has shape (d+1, N); row l holds the block with flat index l.
    The array is frozen read-only after construction.
    """

    params: TaylorParams
    N: int
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


def block_solve(A, params: TaylorParams, rhs: np.ndarray,
                adjoint: bool = False) -> np.ndarray:
    """Solve C x = rhs (or C^dagger x = rhs) in place, block by block.

    ``rhs`` has shape (d+1, N) or (d+1, N, B): row l is block l of B
    right-hand sides. It is overwritten with the solution and returned. Only
    ``A @`` and ``A^dagger @`` are applied, m*k times each way, so A may be
    CSR or dense. No argument is checked; callers validate.

    Forward substitution runs the recurrences in the module docstring with a
    general right-hand side; back substitution on C^dagger gathers, into
    each block, the blocks of later rows that reference it: the next Taylor
    block through (h/(j+1)) A^dagger, the step's collector, the next copy.
    """
    x = rhs
    m, k, h = params.m, params.k, params.h
    top = m * (k + 1)
    if not adjoint:
        for i in range(m):
            base = i * (k + 1)
            for j in range(1, k + 1):
                x[base + j] += (h / j) * (A @ x[base + j - 1])
            x[base + k + 1] += x[base:base + k + 1].sum(axis=0)
        for l in range(top + 1, params.d + 1):
            x[l] += x[l - 1]
        return x

    AH = _adjoint(A)
    for l in range(params.d - 1, top - 1, -1):
        x[l] += x[l + 1]
    for i in range(m - 1, -1, -1):
        base = i * (k + 1)
        x[base:base + k + 1] += x[base + k + 1]
        for j in range(k - 1, -1, -1):
            x[base + j] += (h / (j + 1)) * (AH @ x[base + j + 1])
    return x


def forward_substitute(A, params: TaylorParams, x_in, b) -> BlockSolution:
    """Solve the encoded system block-by-block without assembling it.

    Requires |A| h <= 1 like the matrix builder. The returned blocks satisfy
    the recurrences exactly (padding blocks are bitwise copies and block
    (0,0) is exactly x_in).
    """
    A = _as_csr(A)
    _require_step_bound(A, params.h)
    N = A.shape[0]
    rhs = build_rhs(x_in, b, params)
    if rhs.size != (params.d + 1) * N:
        raise DimensionError("x_in and b must match the dimension of A")
    data = block_solve(A, params, rhs.reshape(params.d + 1, N))
    data.flags.writeable = False
    return BlockSolution(params=params, N=N, data=data)


def _check_triangular(C: sp.csr_matrix) -> None:
    """Verify unit lower triangularity structurally: cols <= row, diagonal 1."""
    n = C.shape[0]
    rows = np.repeat(np.arange(n), np.diff(C.indptr))
    if np.any(C.indices > rows):
        raise IntegrityError("matrix has entries above the diagonal")
    last = C.indptr[1:] - 1
    if np.any(C.indptr[1:] == C.indptr[:-1]):
        raise IntegrityError("matrix has an empty row (missing diagonal)")
    if np.any(C.indices[last] != np.arange(n)) or np.any(C.data[last] != 1.0):
        raise IntegrityError("diagonal entries must all be stored and equal 1")


def generic_solve(system: EncodedSystem) -> np.ndarray:
    """Cross-validation path: solve the assembled matrix by generic sparse
    forward substitution after checking its triangular structure."""
    C = system.matrix
    _check_triangular(C)
    return spsolve_triangular(C, system.rhs, lower=True)


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
