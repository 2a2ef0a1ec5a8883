"""Structure-aware solution of the encoded system.

The primary path, :func:`forward_substitute`, never assembles the big matrix:
it runs the package's one Taylor kernel, :func:`~odeql.taylor.block_solve`,
on x_in in block 0 and h b in block i(k+1)+1 of every step, at a cost of m*k
products with A plus vector additions. The solvers check shapes, finiteness
and structure, never a hypothesis of the paper.

:func:`generic_solve`, the independent cross-check, solves the assembled
matrix by forward substitution over dependency panels, proving it canonical
CSR and unit lower triangular on the way with the encoder's proof, one chunk
of rows at a time. A panel is a run of rows that read no column of the panel
itself, so its rows in one chunk are one numpy product with the solved part,
and a panel that straddles a chunk boundary is cut there. The panels use
only the proved triangular form, nothing of the Taylor layout; on an encoded
C whose A has no empty row they are its d+1 block rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import EncodedSystem, _triangular_chunks, build_rhs
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


def generic_solve(system: EncodedSystem) -> np.ndarray:
    """Cross-validation path: forward substitution over the dependency panels
    of the assembled matrix, each chunk of rows solved as soon as the
    encoder's proof has passed it, so a faulty chunk raises after the chunks
    before it are solved. A panel [s, e) is solved one chunk's piece [a, b)
    at a time: with x zero from s on, x[a:b] = rhs[a:b] - C[a:b] @ x is one
    take, one multiply and one ``np.add.reduceat``, which may sum a row in
    any order. ``system.matrix`` and ``system.rhs`` are never changed."""
    C, rhs = system.matrix, system.rhs
    x, s = np.zeros(C.shape[0], dtype=complex), 0
    for lo, ptr in _triangular_chunks(C):
        # a row's second-to-last entry is its largest column below the
        # diagonal; a row holding only its diagonal gets -1 (there ptr - 2
        # points into the row before, or wraps round for row 0)
        below = np.where(np.diff(ptr) > 1, C.indices[ptr[1:] - 2], -1)
        # reach is nondecreasing: the panel that starts at s ends at the
        # first row whose reach is >= s, or runs on into the next chunk
        reach, cuts = np.maximum.accumulate(below), [lo]
        while (e := lo + int(reach.searchsorted(s))) < lo + reach.size:
            cuts.append(s := e)
        cuts.append(lo + reach.size)
        for a, b in zip(cuts, cuts[1:]):  # a piece is empty if row lo starts a panel
            p = ptr[a - lo:b - lo + 1]
            terms = x.take(C.indices[p[0]:p[-1]])
            terms *= C.data[p[0]:p[-1]]
            x[a:b] = rhs[a:b] - np.add.reduceat(terms, p[:-1] - p[0])
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
