"""Structure-aware solution of the encoded system.

The primary path, :func:`forward_substitute`, never assembles the big matrix:
it runs the package's one Taylor kernel, :func:`~odeql.taylor.block_solve`,
on x_in in block 0 and h b in block i(k+1)+1 of every step, at a cost of m*k
products with A plus vector additions. The solvers check shapes, finiteness
and structure, never a hypothesis of the paper.

:func:`generic_solve`, the independent cross-check, solves the assembled
matrix only once the encoder has proved it canonical CSR and unit lower
triangular, by block forward substitution over row panels of at most
PANEL_ROWS rows: one sparse product subtracts the solved part, and SuperLU's
triangular solve, with the diagonal declared unit, solves the panel's
diagonal block. The panels use only the proved triangular form, nothing of
the Taylor layout, so scipy's copies and SuperLU's workspace are those of a
panel, never of the whole matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy

from .encoder import EncodedSystem, _check_triangular, build_rhs
from .errors import DegenerateInputError, DimensionError
from .numerics import DENSE_CUTOFF, as_dense, as_matrix, as_state
from .taylor import TaylorParams, block_solve

# Rows per panel of generic_solve. Each panel pays a fixed cost (two slices,
# the checks of spsolve_triangular) that small panels do not amortise, and
# SuperLU's workspace grows with the panel. At dimension 943k, against the
# whole-matrix solve (2-vCPU VM, one BLAS thread), 2^12 rows ran 1.01-1.07x
# its time, 2^13 0.96x, 2^14 0.84-1.02x and 2^15 0.89-0.94x; 2^16 and 2^17
# were no faster (0.88-0.94x) for a process peak 9 and 26 MiB above 2^15's.
# 2^15 is the smallest size that never ran slower than the whole-matrix solve.
PANEL_ROWS = 2 ** 15


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


def generic_solve(system: EncodedSystem) -> np.ndarray:
    """Cross-validation path: generic sparse forward substitution (SuperLU)
    on the assembled matrix, once its canonical, unit lower-triangular form
    is proved, one row panel [r0, r1) at a time. The panel's right-hand side
    is rhs[r0:r1] - C[r0:r1, :r0] @ x[:r0], a fresh array; its diagonal block
    C[r0:r1, r0:r1] is a fresh copy too, so SuperLU may overwrite both.
    SuperLU is told the diagonal is unit, so it skips rescaling by a diagonal
    of ones. ``system.matrix`` and ``system.rhs`` are never changed. A system
    of at most PANEL_ROWS rows is one panel, the whole-matrix solve."""
    C, rhs = system.matrix, system.rhs
    _check_triangular(C)
    n = C.shape[0]
    x = np.empty(n, dtype=complex)
    for r0 in range(0, n, PANEL_ROWS):
        r1 = min(r0 + PANEL_ROWS, n)
        # the first panel subtracts an empty product: a copy of rhs[:r1]
        panel_rhs = rhs[r0:r1] - C[r0:r1, :r0] @ x[:r0]
        x[r0:r1] = scipy.sparse.linalg.spsolve_triangular(
            C[r0:r1, r0:r1], panel_rhs, lower=True, overwrite_A=True,
            overwrite_b=True, unit_diagonal=True)
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
