"""Truncated Taylor polynomials of the exponential and their remainder bounds.

Three polynomial families drive the block encoding:

* ``T_k(z)  = sum_{j=0}^{k} z^j / j!``        (truncation of exp)
* ``S_k(z)  = sum_{j=1}^{k} z^{j-1} / j!``    (truncation of (exp(z)-1)/z)
* ``T_{b,k}(z) = sum_{j=b}^{k} b! z^{j-b} / j!``  (normalized tail)

On the closed half-disk { |z| <= 1, Re(z) <= 0 } these satisfy

* ``|T_k(z) - exp(z)|            <= 1/(k+1)!``
* ``|T_k(z)|                     <= 1 + 1/(k+1)!``
* ``|S_k(z) - (exp(z)-1)/z|      <= 1/(k+1)!``
* ``|T_{b,k}(z)|                 <= sqrt(1.04)``   for k >= 5, 0 <= b <= k

and :func:`verify_remainder_bounds` checks all four empirically on random
half-disk samples plus deterministic boundary cases.

Evaluation is by Horner's scheme from the highest term down, which is stable
in the only regime the encoder exercises (|z| <= 1, all terms decaying).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

# Magnitude bound for the normalized tail polynomials, valid for k >= 5.
TAIL_MAGNITUDE_BOUND = math.sqrt(1.04)

# Smallest truncation order for which the tail magnitude bound is claimed.
MIN_TAIL_ORDER = 5

# Deterministic boundary samples always included by verify_remainder_bounds.
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


def truncated_phi(z, k: int):
    """S_k(z), the degree-(k-1) truncation of (exp(z) - 1)/z; requires k >= 1.

    ``S_k == T_{1,k}`` term by term.
    """
    if k < 1:
        raise ParameterError(f"truncation order must be >= 1, got {k}")
    return tail_poly(z, 1, k)


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


def phi1(z):
    """(exp(z) - 1)/z with the removable singularity handled by series.

    The closed form loses digits below |z| ~ 1e-8; there the series
    ``sum_j z^j/(j+1)!`` is exact to double precision after a few terms.
    """
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-8
    # Series needs only 4 terms at |z| < 1e-8; guard the closed form's z=0.
    series = 1.0 + z / 2.0 + z * z / 6.0 + z * z * z / 24.0
    safe = np.where(small, 1.0, z)
    closed = (np.exp(z) - 1.0) / safe
    out = np.where(small, series, closed)
    if out.ndim == 0:
        return complex(out)
    return out


def half_disk_samples(n: int, seed: int) -> np.ndarray:
    """Draw n points uniformly in area from { |z| <= 1, Re(z) <= 0 }."""
    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.uniform(0.0, 1.0, size=n))
    theta = rng.uniform(0.5 * math.pi, 1.5 * math.pi, size=n)
    return r * np.exp(1j * theta)


def _record(bounds: dict, name: str, slack: np.ndarray, z: np.ndarray, k: int, b=None):
    """Fold the worst slack of one (k, b) batch into the running report."""
    i = int(np.argmin(slack))
    worst = float(slack[i])
    entry = bounds[name]
    if worst < entry["worst_slack"]:
        entry["worst_slack"] = worst
        argmax = {"z_re": float(z[i].real), "z_im": float(z[i].imag), "k": k}
        if b is not None:
            argmax["b"] = b
        entry["argmax"] = argmax


def verify_remainder_bounds(samples: int, k_range=(MIN_TAIL_ORDER, 20), seed: int = 0) -> dict:
    """Check the four half-disk remainder bounds on random and boundary samples.

    Returns a JSON-ready report with the worst observed slack per bound
    (slack = bound - observed, negative means violated) and the sample that
    attains it. Violations beyond 1e-12 absolute are listed individually.

    The tail magnitude bound is only claimed for k >= 5, so k_range must
    start at 5 or above.
    """
    if samples < 1:
        raise ParameterError(f"need at least one sample, got {samples}")
    k_min, k_max = int(k_range[0]), int(k_range[1])
    if k_min < MIN_TAIL_ORDER:
        raise ParameterError(
            f"tail magnitude bound is only claimed for k >= {MIN_TAIL_ORDER}; "
            f"got k_min={k_min}"
        )
    if k_max < k_min:
        raise ParameterError(f"empty truncation range {k_range}")

    z = np.concatenate([np.array(BOUNDARY_CASES, dtype=complex),
                        half_disk_samples(samples, seed)])
    exp_z = np.exp(z)
    phi1_z = phi1(z)

    bounds = {
        name: {"worst_slack": math.inf, "argmax": None}
        for name in ("exp_remainder", "exp_magnitude", "phi_remainder", "tail_magnitude")
    }
    violations = []

    for k in range(k_min, k_max + 1):
        tail_budget = 1.0 / math.factorial(k + 1)
        tk = truncated_exp(z, k)
        sk = truncated_phi(z, k)
        _record(bounds, "exp_remainder", tail_budget - np.abs(tk - exp_z), z, k)
        _record(bounds, "exp_magnitude", (1.0 + tail_budget) - np.abs(tk), z, k)
        _record(bounds, "phi_remainder", tail_budget - np.abs(sk - phi1_z), z, k)
        for b in range(0, k + 1):
            tbk = tail_poly(z, b, k)
            _record(bounds, "tail_magnitude",
                    TAIL_MAGNITUDE_BOUND - np.abs(tbk), z, k, b=b)

    for name, entry in bounds.items():
        if entry["worst_slack"] < -1e-12:
            violations.append({"bound": name, "slack": entry["worst_slack"],
                               **entry["argmax"]})

    return {
        "schema": 1,
        "samples": int(samples),
        "k_min": k_min,
        "k_max": k_max,
        "seed": int(seed),
        "bounds": bounds,
        "violations": violations,
        "passed": not violations,
    }
