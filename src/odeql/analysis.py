"""Empirical verification of every norm, error and probability bound.

Each checker measures a quantity on a concrete system, or on a grid of
points or random draws, and compares it with its claimed bound, returning a
:class:`BoundReport` of the worst observed ratio (oriented so that ratio <= 1
means the claim holds; a 1e-9 relative slack absorbs the floating point
evaluation of the bound constants themselves). No check has an absolute
tolerance. Hypothesis violations raise
:class:`~odeql.errors.HypothesisError` instead of producing a verdict, so
sweeps over invalid corners cannot pollute reports; every checker but
Lemma 3's (k >= 5, and the encoder's |A| h <= 1) takes them from one gate,
:func:`_require_hypotheses`. The checkers of Lemma 2 and Theorems 1-3 take
one :class:`Problem`: an instance, a layout and the instance's decay profile
on that layout's grid, from which each reads kappa_V, the eigenvalues, the
encoded system and the block solution. ||C|| and ||C^{-1}|| are the encoded
system's own norms, measured once per system, so the condition-number check
measures nothing of its own.

The bounds covered:

* the four half-disk Taylor bounds of :mod:`odeql.taylor`, without cancellation
* inverse-column norms of the scalar system:  ||C(lam)^{-1} e_l|| and entries
* matrix norm:        ||C|| <= 2 sqrt(k), with the norms of its three-part
                      decomposition proved from the encoded layout
* inverse norm:       ||C^{-1}|| <= 3 kappa_V sqrt(k) (m+p)
* condition number:   kappa_C = ||C|| ||C^{-1}|| <= 6 kappa_V k (m+p)
* solution error:     ||x(jh) - x_{j,0}|| <= 2.8 kappa_V j (|x_in| + mh|b|) / (k+1)!
* measurement:        ||x_{m,j}|| / ||x|| >= 1 / sqrt(p + 77 m g^2)
* three state-distance inequalities, checked by the appendixB suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .encoder import STEP_BOUND_SLACK, EncodedSystem, TaylorParams, _check_layout, encode
from .errors import (
    DegenerateInputError,
    DimensionError,
    HypothesisError,
    IntegrityError,
    ParameterError,
)
from .numerics import Instance, norm2, reference_trajectory
from .solver import BlockSolution, block_solve, forward_substitute
from .taylor import (
    BOUNDARY_CASES,
    MIN_TAIL_ORDER,
    TAIL_MAGNITUDE_BOUND,
    half_disk_samples,
    magnitude_ratio,
    remainder_ratios,
    tail_poly,
)

# Relative slack accepted on every bound check; absorbs floating-point
# evaluation of the bound constants (e, I_0(2), log-space factorials).
PASS_SLACK = 1e-9


def bessel_i0_2() -> float:
    """I_0(2) = sum_j 1/(j!)^2 by its own series, to 1e-15."""
    total, j, term = 0.0, 0, 1.0
    while term > 1e-17:
        term = 1.0 / math.factorial(j) ** 2
        total += term
        j += 1
    return total


_I02 = bessel_i0_2()

# Entrywise ceiling on columns of the scalar inverse.
COLUMN_ENTRY_BOUND = math.sqrt(1.04 * math.e)


def column_norm_bound(m: int, p: int) -> float:
    """sqrt(1.04 e I_0(2) (m+p)), the inverse-column norm bound."""
    return math.sqrt(1.04 * math.e * _I02 * (m + p))


@dataclass
class BoundReport:
    """Outcome of checking one bound over one or more instances.

    worst_ratio is observed/bound for upper bounds and bound/observed for
    lower bounds, so a value <= 1 (+ slack) always means the claim holds.
    """

    bound_name: str
    instances_checked: int
    worst_ratio: float
    argmax_instance: str
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.worst_ratio <= 1.0 + PASS_SLACK

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json_dict(self) -> dict:
        return {
            "bound": self.bound_name,
            "instances_checked": self.instances_checked,
            "worst_ratio": self.worst_ratio,
            "argmax_instance": self.argmax_instance,
            "verdict": self.verdict,
            "details": self.details,
        }


def merge_reports(reports) -> BoundReport:
    """Associative merge of reports for the same bound: the worst ratio wins,
    and its details are kept beside the count of reports merged."""
    reports = list(reports)
    if not reports:
        raise ParameterError("cannot merge an empty report list")
    name = reports[0].bound_name
    if any(r.bound_name != name for r in reports):
        raise ParameterError("cannot merge reports for different bounds")
    worst = max(reports, key=lambda r: r.worst_ratio)
    return BoundReport(
        bound_name=name,
        instances_checked=sum(r.instances_checked for r in reports),
        worst_ratio=worst.worst_ratio,
        argmax_instance=worst.argmax_instance,
        details={**worst.details, "merged": len(reports)},
    )


def _worst(name: str, ratios: np.ndarray, label) -> BoundReport:
    """Report the largest of `ratios`, its point named by label(flat index)."""
    i = int(np.argmax(ratios))
    return BoundReport(bound_name=name, instances_checked=ratios.size,
                       worst_ratio=float(ratios.flat[i]), argmax_instance=label(i))


@dataclass(frozen=True)
class DecayProfile:
    """The true solution on the step grid, and every scale of it that the
    parameter rule and the bounds read.

    states holds the oracle states x(ih), i = 0..m, as rows (one
    trajectory) on the grid of step h; step_norms are their norms, q is
    ||x(T)||, g_grid = max_i ||x(ih)|| / q, the quantity the measurement
    bound consumes, and weight is |x_in| + T|b|, the scale of Omega and of
    the Theorem 2 and 3 bounds. A caller that needs a grid state, x(T)
    included, reads it from here instead of integrating the ODE a second time.
    """

    states: np.ndarray
    h: float
    step_norms: np.ndarray
    q: float
    g_grid: float
    weight: float

    @property
    def m(self) -> int:
        """The step count: the trajectory holds m + 1 states."""
        return len(self.states) - 1

    @property
    def x_T(self) -> np.ndarray:
        """x(T), the trajectory's last row."""
        return self.states[-1]


def decay_profile(inst: Instance, T: float, m: int) -> DecayProfile:
    """Evaluate ||x(ih)|| on the step grid from one oracle trajectory."""
    states = reference_trajectory(inst, T, m)
    states.setflags(write=False)  # shared by every reader of the profile
    step_norms = np.linalg.norm(states, axis=1)
    q = float(step_norms[-1])
    if q < 1e-300:
        raise DegenerateInputError("||x(T)|| vanishes; decay ratio undefined")
    return DecayProfile(states=states, h=T / m, step_norms=step_norms, q=q,
                        g_grid=float(step_norms.max() / q),
                        weight=float(np.linalg.norm(inst.x_in) + T * np.linalg.norm(inst.b)))


def _require_hypotheses(params: TaylorParams, eigenvalues) -> None:
    """k >= MIN_TAIL_ORDER and (k+1)! >= 2m, then Re(lambda) <= 0 and
    |lambda h| <= 1, the latter up to the step gate's STEP_BOUND_SLACK."""
    if params.k < MIN_TAIL_ORDER:
        raise HypothesisError(f"bounds require k >= {MIN_TAIL_ORDER}, got k={params.k}")
    if math.lgamma(params.k + 2) < math.log(2 * params.m):
        raise HypothesisError(
            f"bounds require (k+1)! >= 2m, got k={params.k}, m={params.m}")
    eigenvalues = np.asarray(eigenvalues, dtype=complex)
    if np.any(eigenvalues.real > 0):
        raise HypothesisError("Re(lambda) > 0 for some eigenvalue; bound not claimed")
    if np.any(np.abs(eigenvalues) * params.h > 1.0 + STEP_BOUND_SLACK):
        raise HypothesisError("|lambda h| > 1 for some eigenvalue; bound not claimed")


@dataclass(frozen=True)
class Problem:
    """One instance, one layout and the instance's decay profile on that
    layout's grid (whose trajectory is the problem's one ODE integration),
    with its encoded system and block solution, each computed once, on first
    use. :func:`~odeql.pipeline.measure` reads the same solution and x(T) as
    the checkers.

    A profile of another grid is a DimensionError here, so no checker can pair
    a layout with states taken at other times.
    """

    inst: Instance
    params: TaylorParams
    decay: DecayProfile

    def __post_init__(self):
        decay, params = self.decay, self.params
        expected = (params.m + 1, self.inst.N)
        if decay.states.shape != expected or not math.isclose(decay.h, params.h, rel_tol=1e-12):
            raise DimensionError(f"decay profile holds states of shape {decay.states.shape} "
                                 f"at step {decay.h:.6g}, expected {expected} at step "
                                 f"{params.h:.6g} for m={params.m}, N={self.inst.N}")

    @cached_property
    def system(self) -> EncodedSystem:
        return encode(self.inst.A, self.inst.x_in, self.inst.b, self.params)

    @cached_property
    def solution(self) -> BlockSolution:
        return forward_substitute(self.inst.A, self.params, self.inst.x_in, self.inst.b)


# ---------------------------------------------------------------------------
# half-disk Taylor bounds
# ---------------------------------------------------------------------------

def verify_remainder_bounds(samples: int, k_range=(MIN_TAIL_ORDER, 20),
                            seed: int = 0) -> list:
    """Check the four half-disk bounds of :mod:`odeql.taylor` for each k in k_range.

    The points are the BOUNDARY_CASES and `samples` uniform half-disk draws.
    Returns one BoundReport per bound and k, in k-major order, naming the
    worst point: the remainders as (k+1)! times their modulus, free of
    cancellation by :func:`~odeql.taylor.remainder_ratios`; (k+1)! (|T_k| - 1),
    as resolved by :func:`~odeql.taylor.magnitude_ratio`; and |T_{b,k}| over
    sqrt(1.04), worst over 0 <= b <= k.
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
    reports = []
    for k in range(k_min, k_max + 1):
        exp_ratio, phi_ratio = remainder_ratios(z, k)
        # Row b holds |T_{b,k}(z)|, so a flat index i is point i % z.size, b = i // z.size.
        tails = np.abs([tail_poly(z, b, k) for b in range(k + 1)]) / TAIL_MAGNITUDE_BOUND
        label = lambda i: f"z={z[i % z.size]:.6g}, k={k}"
        reports += [_worst("exp-remainder", exp_ratio, label),
                    _worst("exp-magnitude", magnitude_ratio(z, k), label),
                    _worst("phi-remainder", phi_ratio, label),
                    _worst("tail-magnitude", tails, lambda i: f"{label(i)}, b={i // z.size}")]
    return reports


# ---------------------------------------------------------------------------
# scalar inverse columns
# ---------------------------------------------------------------------------

def scalar_inverse_columns(lams, params: TaylorParams) -> BoundReport:
    """Check both inverse-column bounds of the scalar (N = 1) system on a
    lambda grid, with one block solve for the whole grid.

    For every lambda in lams and every column l, the solution of
    C(lambda) x = e_l must satisfy ||x|| <= sqrt(1.04 e I_0(2) (m+p)) and
    max_n |x_n| <= sqrt(1.04 e), provided |lambda| <= 1, Re(lambda) <= 0,
    k >= 5 and (k+1)! >= 2m. The report names the worst lambda.
    """
    # C(lam) is the N = 1 system at h = 1 with A = [[lam]]. With
    # A = diag(lams) the system splits into one such system per lambda, so
    # solving the identity, stacked once per lambda, gives every inverse:
    # X[:, i, :] = C(lams[i])^{-1}.
    lams, unit = np.atleast_1d(np.asarray(lams, dtype=complex)), replace(params, h=1.0)
    _require_hypotheses(unit, lams)
    identity = np.eye(params.d + 1, dtype=complex)[:, None, :]
    X = block_solve(np.diag(lams), unit, np.repeat(identity, lams.size, axis=1))
    col_norms = np.linalg.norm(X, axis=0)
    norm_bound = column_norm_bound(params.m, params.p)
    norm_ratios = col_norms.max(axis=1) / norm_bound
    entry_ratios = np.abs(X).max(axis=(0, 2)) / COLUMN_ENTRY_BOUND
    worst = int(np.argmax(np.maximum(norm_ratios, entry_ratios)))
    norm_ratio, entry_ratio = float(norm_ratios[worst]), float(entry_ratios[worst])
    label = f"lambda={complex(lams[worst]):.6g}, m={params.m}, k={params.k}, p={params.p}"
    return BoundReport(
        bound_name="inverse-columns",
        instances_checked=lams.size,
        worst_ratio=max(norm_ratio, entry_ratio),
        argmax_instance=label,
        details={
            "column_norm_ratio": norm_ratio,
            "entry_ratio": entry_ratio,
            "worst_column": int(np.argmax(col_norms[worst])),
            "column_norm_bound": norm_bound,
            "entry_bound": COLUMN_ENTRY_BOUND,
        },
    )


# ---------------------------------------------------------------------------
# matrix norm, inverse norm, condition number
# ---------------------------------------------------------------------------

def _system_label(system: EncodedSystem) -> str:
    params = system.params
    return f"m={params.m}, k={params.k}, p={params.p}, N={system.N}"


def matrix_norm_bounds(system: EncodedSystem) -> BoundReport:
    """Check ||C|| <= 2 sqrt(k) and report Lemma 3's three component norms.

    ||C|| is the system's own ``norm``, exact to rounding. The components are
    proved, not measured: :func:`~odeql.encoder._check_layout` proves the
    block layout of C in O(nnz) or raises IntegrityError, and that layout
    fixes ||C1|| = 1, ||C2|| = sqrt(k+1) and ||C3|| = max(h ||A||, 1), with
    ||A|| from :func:`norm2`.
    """
    params = system.params
    if params.k < MIN_TAIL_ORDER:
        raise HypothesisError(f"norm bound requires k >= {MIN_TAIL_ORDER}, got k={params.k}")
    _check_layout(system.matrix, system.A, params)
    bound = 2.0 * math.sqrt(params.k)
    return BoundReport(
        bound_name="matrix-norm",
        instances_checked=1,
        worst_ratio=float(system.norm / bound),
        argmax_instance=_system_label(system),
        details={
            "norm": system.norm,
            "bound": bound,
            "component_identity": 1.0,
            "component_collector": math.sqrt(params.k + 1.0),
            "component_subdiagonal": max(params.h * norm2(system.A), 1.0),
        },
    )


def inverse_norm(system: EncodedSystem) -> float:
    """||C^{-1}||, the system's own ``inverse_norm`` (measured once)."""
    return system.inverse_norm


def inverse_norm_bound(problem: Problem) -> BoundReport:
    """Check ||C^{-1}|| <= 3 kappa_V sqrt(k) (m+p); the hypotheses
    Re(lambda) <= 0 and |lambda h| <= 1 are verified on the instance's
    eigenvalues before the system is built."""
    params, kappa_V = problem.params, problem.inst.kappa_V
    _require_hypotheses(params, problem.inst.eigenvalues)
    measured = inverse_norm(problem.system)
    bound = 3.0 * kappa_V * math.sqrt(params.k) * (params.m + params.p)
    return BoundReport(
        bound_name="inverse-norm",
        instances_checked=1,
        worst_ratio=float(measured / bound),
        argmax_instance=f"{_system_label(problem.system)}, kappa_V={kappa_V:.4g}",
        details={"norm": measured, "bound": bound},
    )


def condition_number_bound(problem: Problem) -> BoundReport:
    """Check kappa_C = ||C|| ||C^{-1}|| <= 6 kappa_V k (m+p), the product of
    the system's two cached norms, under the hypotheses of Lemma 2."""
    params, kappa_V = problem.params, problem.inst.kappa_V
    _require_hypotheses(params, problem.inst.eigenvalues)
    system = problem.system
    kappa_C = system.norm * system.inverse_norm
    bound = 6.0 * kappa_V * params.k * (params.m + params.p)
    return BoundReport(
        bound_name="condition-number",
        instances_checked=1,
        worst_ratio=float(kappa_C / bound),
        argmax_instance=f"{_system_label(system)}, kappa_V={kappa_V:.4g}",
        details={"kappa_C": kappa_C, "bound": bound, "norm": system.norm,
                 "inverse_norm": system.inverse_norm},
    )


# ---------------------------------------------------------------------------
# solution error and measurement probability
# ---------------------------------------------------------------------------

def solution_error_report(problem: Problem) -> BoundReport:
    """Check ||x(jh) - x_{j,0}|| <= 2.8 kappa_V j (|x_in| + mh|b|)/(k+1)! for all j.

    The problem's decay trajectory supplies every x(jh), so no ODE is
    integrated here. (k+1)! enters in log space. j = 0 shares the initial
    condition exactly and is checked for literal equality. Raises
    IntegrityError when block (0,0) is not x_in.
    """
    inst, params = problem.inst, problem.params
    _require_hypotheses(params, inst.eigenvalues)

    m = params.m
    weight = problem.decay.weight
    log_scale = math.log(2.8 * inst.kappa_V * weight) - math.lgamma(params.k + 2)

    errors = np.linalg.norm(problem.decay.states - problem.solution.step_states(), axis=1)
    if errors[0] != 0.0:
        raise IntegrityError("block (0,0) does not equal x_in; solver integrity broken")

    ratios = np.zeros(m + 1)
    for j in range(1, m + 1):
        ratios[j] = errors[j] / math.exp(log_scale + math.log(j))
    worst_j = int(np.argmax(ratios))
    label = f"{inst.label or 'instance'}, m={m}, k={params.k}"
    return BoundReport(
        bound_name="solution-error",
        instances_checked=1,
        worst_ratio=float(ratios.max()),
        argmax_instance=f"{label}, j={worst_j}",
        details={
            "errors": errors.tolist(),
            "worst_step": worst_j,
            "bound_at_worst": math.exp(log_scale + math.log(max(worst_j, 1))),
        },
    )


def success_probability_report(problem: Problem) -> BoundReport:
    """Check the measurement bound ||x_{m,0}|| / ||x|| >= 1/sqrt(p + 77 m g^2).

    The problem's decay profile supplies q and the step-grid decay ratio g
    (the proof consumes only grid values). Requires Theorem 2's hypotheses
    and (k+1)! >= 70 kappa_V m (|x_in|+mh|b|)/q, in log space; when p = m
    the implied squared success probability over the padded blocks is at
    least 1/(78 g^2), recorded in the details.
    """
    inst, params, decay = problem.inst, problem.params, problem.decay
    _require_hypotheses(params, inst.eigenvalues)
    m, p = params.m, params.p
    log_needed = math.log(70.0 * inst.kappa_V * m * decay.weight) - math.log(decay.q)
    if math.lgamma(params.k + 2) < log_needed:
        raise HypothesisError(
            f"(k+1)! < 70 kappa_V m (|x_in|+mh|b|)/||x(T)|| at k={params.k}; "
            "bound not claimed"
        )

    g = decay.g_grid
    sol = problem.solution
    block_ratio = float(np.linalg.norm(sol.final_state()) / np.linalg.norm(sol.vector()))
    bound = 1.0 / math.sqrt(p + 77.0 * m * g * g)
    success_prob = (p + 1) * block_ratio**2

    details = {
        "block_ratio": block_ratio,
        "bound": bound,
        "g_grid": g,
        "success_prob": success_prob,
    }
    if p == m:
        details["success_prob_floor"] = 1.0 / (78.0 * g * g)
    label = f"{inst.label or 'instance'}, m={m}, k={params.k}, p={p}"
    return BoundReport(
        bound_name="success-probability",
        instances_checked=1,
        worst_ratio=bound / block_ratio,
        argmax_instance=label,
        details=details,
    )


# ---------------------------------------------------------------------------
# state-distance predicates (the appendixB suite's inequalities)
# ---------------------------------------------------------------------------

# Dimension of each component of the random states the checks draw.
STATE_DIM = 6


def normalized_distance_bound(alpha, beta):
    """Bound 2 beta / alpha on the distance between normalized vectors, given
    ||psi|| >= alpha > 0 and ||psi - phi|| <= beta; elementwise on arrays."""
    if np.any(alpha <= 0):
        raise ParameterError("alpha must be positive")
    return 2.0 * beta / alpha


def conditional_distance_bound(alpha, delta):
    """Bound 2 delta / (alpha - delta) on the distance between selected
    sub-states of two close two-component states; requires delta < alpha."""
    if np.any((delta < 0) | (delta >= alpha)):
        raise ParameterError(f"need 0 <= delta < alpha, got delta={delta}, alpha={alpha}")
    return 2.0 * delta / (alpha - delta)


def perturbed_amplitude_floor(alpha, delta):
    """Floor alpha - delta on the selected amplitude of the perturbed state."""
    if np.any((delta < 0) | (delta >= alpha)):
        raise ParameterError(f"need 0 <= delta < alpha, got delta={delta}, alpha={alpha}")
    return alpha - delta


def _gaussian_states(rng, n: int) -> np.ndarray:
    return rng.normal(size=(n, STATE_DIM)) + 1j * rng.normal(size=(n, STATE_DIM))


def _unit_rows(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _close_pairs(rng, n: int):
    """n draws of psi and its perturbation phi: (valid, alpha = ||psi||,
    beta = ||psi - phi||, the distance of the normalized states)."""
    psi = _gaussian_states(rng, n) * rng.uniform(0.05, 2.0, size=(n, 1))
    alpha = np.linalg.norm(psi, axis=1)
    step = rng.uniform(0.0, 1.5, size=n) * alpha
    phi = psi + _unit_rows(_gaussian_states(rng, n)) * step[:, None]
    norm_phi, beta = np.linalg.norm(phi, axis=1), np.linalg.norm(psi - phi, axis=1)
    dist = np.linalg.norm(psi / alpha[:, None] - phi / norm_phi[:, None], axis=1)
    return (norm_phi >= 1e-9 * alpha) & (beta > 0), alpha, beta, dist


def _two_component_pairs(rng, n: int):
    """n draws of psi = (alpha psi_sel, .) and its perturbation
    phi = (beta phi_sel, .): (valid, alpha, delta = ||psi - phi||, beta,
    ||phi_sel - psi_sel||), valid when 0 < delta < alpha."""
    alpha = rng.uniform(0.05, 1.0, size=n)
    psi_sel, psi_rest = _unit_rows(_gaussian_states(rng, n)), _unit_rows(_gaussian_states(rng, n))
    sigma = rng.uniform(0.0, 0.3, size=n)
    beta = np.clip(alpha + sigma * rng.normal(size=n), 0.0, 1.0)
    phi_sel = _unit_rows(psi_sel + sigma[:, None] * _gaussian_states(rng, n))
    phi_rest = _unit_rows(psi_rest + sigma[:, None] * _gaussian_states(rng, n))
    delta = np.hypot(
        np.linalg.norm(alpha[:, None] * psi_sel - beta[:, None] * phi_sel, axis=1),
        np.linalg.norm(np.sqrt(1 - alpha**2)[:, None] * psi_rest
                       - np.sqrt(1 - beta**2)[:, None] * phi_rest, axis=1))
    return ((0 < delta) & (delta < alpha), alpha, delta, beta,
            np.linalg.norm(phi_sel - psi_sel, axis=1))


def _valid_draws(rng, trials: int, draw):
    """The first `trials` valid rows of `draw(rng, trials)` batches."""
    batches, count = [], 0
    while count < trials:
        valid, *columns = draw(rng, trials)
        batches.append([c[valid] for c in columns])
        count += int(valid.sum())
    return [np.concatenate(c)[:trials] for c in zip(*batches)]


def state_distance_checks(trials: int, seed: int) -> list:
    """Check the three state-distance inequalities on `trials` random
    hypothesis-satisfying draws each, drawn in vectorized batches: one
    BoundReport each, as observed/bound, or floor/observed for the amplitude.
    """
    if trials < 1:
        raise ParameterError(f"need at least one trial, got {trials}")
    rng = np.random.default_rng(seed)
    alpha, beta, dist = _valid_draws(rng, trials, _close_pairs)
    normalized = dist / normalized_distance_bound(alpha, beta)
    alpha, delta, beta, dist_sel = _valid_draws(rng, trials, _two_component_pairs)
    draw = "draw {}".format
    return [_worst("normalized-distance", normalized, draw),
            _worst("conditional-distance",
                   dist_sel / conditional_distance_bound(alpha, delta), draw),
            _worst("amplitude-floor", perturbed_amplitude_floor(alpha, delta) / beta, draw)]
