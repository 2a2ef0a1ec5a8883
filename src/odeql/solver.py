"""Structure-aware solution of the encoded system.

The primary path, :func:`forward_substitute`, never assembles the big matrix:
it walks the blocks in flat order and replays the defining recurrences

    x_{0,0} = x_in
    x_{i,1} = Ah x_{i,0} + h b
    x_{i,j} = (Ah/j) x_{i,j-1}              2 <= j <= k
    x_{i+1,0} = sum_{j=0}^{k} x_{i,j}
    x_{m,j} = x_{m,j-1}                     1 <= j <= p

at a cost of m*k products with A plus vector additions.
:func:`block_solve` is the one kernel for these recurrences: it solves C
(forward only) for any stack of right-hand sides, and backs forward
substitution and the scalar inverse columns. The solvers check shapes,
finiteness and structure, never a hypothesis of the paper.

:func:`generic_solve`, the independent cross-check, solves the assembled
matrix only once the encoder has proved it canonical CSR and unit lower
triangular, by SuperLU's triangular solve with the diagonal declared unit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import spsolve_triangular

from .encoder import EncodedSystem, TaylorParams, _as_csr, _check_triangular, build_rhs
from .errors import DegenerateInputError, DimensionError
from .numerics import DENSE_CUTOFF, as_state


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


def block_solve(A, params: TaylorParams, rhs: np.ndarray) -> np.ndarray:
    """Solve C x = rhs in place by forward substitution, block by block.

    ``rhs`` has shape (d+1, N) or (d+1, N, B): row l is block l of B
    right-hand sides. It is overwritten with the solution and returned. The
    recurrences in the module docstring run with a general right-hand side;
    only ``A @`` is applied, m*k times, so A may be CSR or dense. No argument
    is checked; callers validate.
    """
    x = rhs
    m, k, h = params.m, params.k, params.h
    for i in range(m):
        base = i * (k + 1)
        for j in range(1, k + 1):
            x[base + j] += (h / j) * (A @ x[base + j - 1])
        x[base + k + 1] += x[base:base + k + 1].sum(axis=0)
    for l in range(m * (k + 1) + 1, params.d + 1):
        x[l] += x[l - 1]
    return x


def forward_substitute(A, params: TaylorParams, x_in, b) -> BlockSolution:
    """Solve the encoded system block-by-block without assembling it.

    Any h gives blocks that satisfy the recurrences exactly (padding blocks
    are bitwise copies, block (0,0) is exactly x_in); |A| h <= 1 is gated by
    :func:`~odeql.encoder.encode`. Below DENSE_CUTOFF the kernel applies A as a
    dense ndarray, from there as CSR.
    """
    A = _as_csr(A)
    N = A.shape[0]
    rhs = build_rhs(x_in, b, params)
    if rhs.size != (params.d + 1) * N:
        raise DimensionError("x_in and b must match the dimension of A")
    data = block_solve(A.toarray() if N < DENSE_CUTOFF else A, params,
                       rhs.reshape(params.d + 1, N))
    data.flags.writeable = False
    return BlockSolution(params=params, data=data)


def generic_solve(system: EncodedSystem) -> np.ndarray:
    """Cross-validation path: generic sparse forward substitution (SuperLU)
    on the assembled matrix, once its canonical, unit lower-triangular form
    is proved. SuperLU is told the diagonal is unit, so it skips rescaling
    by a diagonal of ones; it works on a copy, never on ``system.matrix``."""
    C = system.matrix
    _check_triangular(C)
    return spsolve_triangular(C, system.rhs, lower=True, unit_diagonal=True)


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
