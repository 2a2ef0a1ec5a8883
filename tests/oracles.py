"""Independent reference implementations that the tests check odeql against.

None of these is part of the library: each one recomputes, by a route of its
own, a quantity that a library kernel produces.
"""

import math

import numpy as np
import scipy.sparse as sp

from odeql.errors import ParameterError
from odeql.taylor import tail_poly


def truncated_phi(z, k: int):
    """S_k(z), the degree-(k-1) truncation of (exp(z) - 1)/z; requires k >= 1.

    ``S_k == T_{1,k}`` term by term, so it is the library's tail polynomial;
    the encoder applies S_k only through the block recurrence.
    """
    if k < 1:
        raise ParameterError(f"truncation order must be >= 1, got {k}")
    return tail_poly(z, 1, k)


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


def simulate_state_prep(x_in_norm: float, b_norm: float, x_in_state, b_state,
                        params) -> np.ndarray:
    """Amplitude-level simulation of preparing the normalized right-hand side.

    Mirrors the three-stage preparation: a rotation on the block-index
    register splitting weight ``|x_in| : sqrt(m) h |b|`` between index 0 and
    index 1, controlled state oracles loading the unit states x_in_state and
    b_state, and a spreader mapping index 1 uniformly onto the m source
    blocks ``i(k+1)+1``. The result should equal ``build_rhs`` normalized.
    """
    m, k, h = params.m, params.k, params.h
    normalizer = math.sqrt(x_in_norm**2 + m * h**2 * b_norm**2)
    out = np.zeros((params.d + 1, len(x_in_state)), dtype=complex)
    out[0] = x_in_norm / normalizer * np.asarray(x_in_state)
    branch_one = math.sqrt(m) * h * b_norm / normalizer * np.asarray(b_state)
    out[1:m * (k + 1):k + 1] = branch_one / math.sqrt(m)
    return out.ravel()


def component_split(system):
    """Split C = C1 + C2 + C3: identity, collectors, subdiagonal blocks.

    C2 is the strictly lower part of the collector block rows (i+1)(k+1) of
    the assembled C, selected by position alone; C3 is what remains below
    the diagonal.
    """
    C, N, params = system.matrix, system.N, system.params
    rows = np.repeat(np.arange(C.shape[0]), np.diff(C.indptr))
    block = rows // N
    collector = ((block % (params.k + 1) == 0) & (block <= params.m * (params.k + 1))
                 & (C.indices < rows))
    C2 = sp.csr_matrix((C.data[collector], (rows[collector], C.indices[collector])),
                       shape=C.shape)
    C1 = sp.identity(C.shape[0], dtype=complex, format="csr")
    C3 = (C - C1 - C2).tocsr()
    return C1, C2, C3
