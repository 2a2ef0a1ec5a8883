"""Independent reference implementations that the tests check odeql against.

None of these is part of the library: each one recomputes, by a route of its
own, a quantity that a library kernel produces.
"""

import numpy as np

from odeql.errors import ParameterError
from odeql.solver import block_solve


def poly_action(A, h: float, v, kind: str, k: int) -> np.ndarray:
    """Apply T_k(Ah) or S_k(Ah) to a vector using k matrix-vector products.

    Horner's scheme on the matrix action, from the highest term down, where
    the block kernel accumulates the Taylor terms from the lowest up.
    ``kind`` selects the family: ``"T"`` for T_k, ``"S"`` for S_k.
    """
    v = np.asarray(v, dtype=complex)
    if kind == "T":
        if k < 0:
            raise ParameterError(f"truncation order must be >= 0, got {k}")
        acc = v.copy()
        for j in range(k, 0, -1):
            acc = v + (h / j) * (A @ acc)
        return acc
    if kind == "S":
        if k < 1:
            raise ParameterError(f"truncation order must be >= 1, got {k}")
        acc = v / k
        for j in range(k - 1, 0, -1):
            acc = (v + h * (A @ acc)) / j
        return acc
    raise ParameterError(f"kind must be 'T' or 'S', got {kind!r}")


def adjoint_solve(system, y) -> np.ndarray:
    """Solve C^dagger z = y for one flat vector with the kernel's adjoint mode."""
    z = np.array(y, dtype=complex).reshape(system.params.d + 1, system.N)
    return block_solve(system.A, system.params, z, adjoint=True).ravel()
