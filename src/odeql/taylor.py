"""Truncated Taylor polynomials of the exponential, their remainders, and the
block layout and kernel that step them.

Three polynomial families drive the block encoding:

* ``T_k(z)  = sum_{j=0}^{k} z^j / j!``        (truncation of exp)
* ``S_k(z)  = sum_{j=1}^{k} z^{j-1} / j!``    (truncation of (exp(z)-1)/z, = T_{1,k})
* ``T_{b,k}(z) = sum_{j=b}^{k} b! z^{j-b} / j!``  (normalized tail)

On the closed half-disk { |z| <= 1, Re(z) <= 0 } these satisfy

* ``|T_k(z) - exp(z)|            <= 1/(k+1)!``
* ``|T_k(z)|                     <= 1 + 1/(k+1)!``
* ``|S_k(z) - (exp(z)-1)/z|      <= 1/(k+1)!``
* ``|T_{b,k}(z)|                 <= sqrt(1.04)``   for k >= 5, 0 <= b <= k

and :func:`~odeql.analysis.verify_remainder_bounds` checks all four on
random half-disk samples plus the fixed :data:`BOUNDARY_CASES`. The two
remainders are never formed as differences, which cancel to ~1e-16 and so
cannot resolve 1/(k+1)! from k = 17 on: :func:`remainder_ratios` reads
them from the tail, e^z - T_k(z) = z^{k+1}/(k+1)! T_{k+1,inf}(z), and
:func:`magnitude_ratio` reads |T_k(z)| - 1 from the same tail.

Evaluation is by Horner's scheme from the highest term down, which is stable
in the only regime the encoder exercises (|z| <= 1, all terms decaying).

The series stepped m times is laid out in blocks by :class:`TaylorParams`;
:func:`block_solve`, the package's one Taylor loop, solves the encoded system
C x = r forward for any stack of right-hand sides r, block by block:

    x_{0,0} = r_{0,0}
    x_{i,j} = r_{i,j} + (Ah/j) x_{i,j-1}            0 <= i < m, 1 <= j <= k
    x_{i,0} = r_{i,0} + sum_{j=0}^{k} x_{i-1,j}     1 <= i <= m
    x_{m,j} = r_{m,j} + x_{m,j-1}                   1 <= j <= p
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError

# Magnitude bound for the normalized tail polynomials, valid for k >= 5.
TAIL_MAGNITUDE_BOUND = math.sqrt(1.04)

# Smallest truncation order for which the tail magnitude bound is claimed.
MIN_TAIL_ORDER = 5

# The half-disk's fixed points, checked by the Taylor and Lemma 1 suites
# beside their random samples.
BOUNDARY_CASES = (
    0.0 + 0.0j,
    -1.0 + 0.0j,
    0.0 + 1.0j,
    0.0 - 1.0j,
    (-1.0 + 1.0j) / math.sqrt(2.0),
)


def truncated_exp(z, k: int):
    """T_k(z), the degree-k Taylor truncation of exp(z).

    Accepts a complex scalar or array; evaluates elementwise by Horner.
    """
    if k < 0:
        raise ParameterError(f"truncation order must be >= 0, got {k}")
    return tail_poly(z, 0, k)


def tail_poly(z, b: int, k: int):
    """T_{b,k}(z) = sum_{j=b}^{k} b! z^{j-b} / j!.

    ``T_{0,k} == T_k`` and ``T_{k,k} == 1``.
    """
    if b < 0:
        raise ParameterError(f"tail start must be >= 0, got {b}")
    if b > k:
        raise ParameterError(f"tail start {b} exceeds truncation order {k}")
    z = np.asarray(z, dtype=complex)
    acc = np.ones_like(z)
    for j in range(k, b, -1):
        acc = 1.0 + z * acc / j
    if acc.ndim == 0:
        return complex(acc)
    return acc


def half_disk_samples(n: int, seed) -> np.ndarray:
    """Draw n points uniformly in area from { |z| <= 1, Re(z) <= 0 }; seed may be a Generator."""
    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.uniform(0.0, 1.0, size=n))
    theta = rng.uniform(0.5 * math.pi, 1.5 * math.pi, size=n)
    return r * np.exp(1j * theta)


def remainder_ratios(z, k: int):
    """(k+1)! |exp(z) - T_k(z)| and (k+1)! |(exp(z)-1)/z - S_k(z)|.

    Both remainders are z^{k+1}/(k+1)! and z^k/(k+1)! times the tail
    T_{k+1,inf}(z), so each ratio to its bound 1/(k+1)! comes to full
    relative accuracy from one tail evaluation, with no cancellation.
    """
    # Terms past j = k+40 weigh below (k+1)!/(k+41)! < 1e-54 on the unit disk.
    z = np.asarray(z, dtype=complex)
    phi_ratio = np.abs(z) ** k * np.abs(tail_poly(z, k + 1, k + 40))
    return np.abs(z) * phi_ratio, phi_ratio


def magnitude_ratio(z, k: int):
    """(k+1)! (|T_k(z)| - 1), at most 1 exactly when |T_k(z)| <= 1 + 1/(k+1)!.

    With rho = (k+1)! (exp(z) - T_k(z)) = z^{k+1} T_{k+1,inf}(z) from the
    tail, |T_k|^2 - 1 = expm1(2 Re z) - 2 Re(conj(e^z) rho)/(k+1)!
    + |rho|^2/(k+1)!^2, so the ratio resolves 1/(k+1)! where |T_k| - 1 would
    round away. The first term is non-positive only for Re z <= 0: a point
    that rounding puts just right of the axis (exp(1j*pi/2) has Re z = 6e-17)
    is off the half-disk, and at large k its ratio correctly exceeds 1.
    """
    z = np.asarray(z, dtype=complex)
    scale = float(math.factorial(k + 1))
    rho = z ** (k + 1) * tail_poly(z, k + 1, k + 40)
    excess = (scale * np.expm1(2.0 * z.real) - 2.0 * (np.conj(np.exp(z)) * rho).real
              + np.abs(rho) ** 2 / scale)
    return excess / (np.abs(truncated_exp(z, k)) + 1.0)


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
                isinstance(self.h, (int, float, np.integer, np.floating))
                and math.isfinite(self.h) and self.h > 0):
            raise ParameterError(f"h must be a positive finite real, got {self.h!r}")
        # held as a Python float, so an np.float32 h cannot round h/j to single
        object.__setattr__(self, "h", float(self.h))

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


def block_solve(A, params: TaylorParams, rhs: np.ndarray) -> np.ndarray:
    """Solve C x = rhs in place by forward substitution, block by block.

    ``rhs`` has shape (d+1, N) or (d+1, N, B): row l is block l of B
    right-hand sides. It is overwritten with the solution and returned, by
    the recurrences in the module docstring. Only ``A @`` is applied, m*k
    times, so A may be CSR or dense. No argument is checked; callers validate.
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
