"""End-to-end emulation: parameter choice, solve, measurement, error budget.

Given an evolution time T and a target accuracy epsilon <= 1/2, the driver

1. picks the step count m = p = ceil(T ||A||) and truncation order k from
   the accuracy budget (k = floor(2 ln Omega / ln ln Omega), then bumped
   until (k+1)! >= Omega, the condition the error analysis actually uses);
2. solves the encoded system exactly by block forward substitution;
3. optionally perturbs the normalized solution by a seeded direction of
   norm exactly delta, emulating an inexact linear-systems subroutine that
   only guarantees || |x> - |x'> || <= delta;
4. measures the block index register: samples one flat block by inverse CDF
   over the exact block probabilities;
5. flags success when the outcome lands in the padded final-state range and
   reports the sampled block's distance to the true normalized solution,
   the exact success probability, and the implied amplification round count
   ceil(1/sqrt(prob)).

Everything is deterministic given (instance, config): one fresh generator is
seeded per run and consumed in a fixed order (perturbation direction first,
then the measurement draw).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .analysis import decay_profile
from .encoder import BlockIndex, TaylorParams
from .errors import (
    BoundViolationError,
    DegenerateInputError,
    DimensionError,
    ParameterError,
)
from .numerics import Instance, as_state, reference_solution, spectral_norm
from .solver import forward_substitute

# The norm estimate is inflated by this factor before the ceiling that sets
# the step count, so an estimate a hair below the true norm cannot produce
# a step with ||A h|| > 1.
NORM_INFLATION = 1e-6


@dataclass(frozen=True)
class RunConfig:
    """End-to-end run configuration.

    delta_injection: None or 0 disables the solver-inexactness emulation,
    "auto" injects the budgeted delta = epsilon/(25 sqrt(m) g), and a float
    injects that exact perturbation norm.
    """

    T: float
    epsilon: float
    seed: int
    delta_injection: float | str | None = None

    def __post_init__(self):
        if not (math.isfinite(self.T) and self.T > 0):
            raise ParameterError(f"T must be positive and finite, got {self.T}")
        if not 0.0 < self.epsilon <= 0.5:
            raise ParameterError(f"epsilon must lie in (0, 1/2], got {self.epsilon}")
        di = self.delta_injection
        if di is not None and di != "auto":
            if not (isinstance(di, (int, float)) and 0.0 <= di <= 2.0):
                raise ParameterError(f"delta_injection must be in [0, 2], got {di!r}")


@dataclass(frozen=True)
class ChosenParameters:
    """Parameter selection outcome plus its diagnostics (Omega in log space)."""

    params: TaylorParams
    log_omega: float
    delta: float
    k_formula: int
    factorial_log_slack: float


@dataclass
class PipelineReport:
    """Everything one run produced; deterministic given (instance, config)."""

    params: TaylorParams
    log_omega: float
    delta: float
    injected_delta: float
    g_grid: float
    beta: float
    success_prob: float
    sampled_index: BlockIndex
    success_flag: bool
    output_state: np.ndarray
    fidelity_error: float
    success_conditioned_error: float
    est_amplification_rounds: int
    block_probabilities: np.ndarray
    T: float
    epsilon: float
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "T": self.T,
            "epsilon": self.epsilon,
            "seed": self.seed,
            "params": {"m": self.params.m, "k": self.params.k,
                       "p": self.params.p, "h": self.params.h,
                       "d": self.params.d},
            "log_omega": self.log_omega,
            "delta": self.delta,
            "injected_delta": self.injected_delta,
            "g_grid": self.g_grid,
            "beta": self.beta,
            "success_prob": self.success_prob,
            "sampled_index": {"i": self.sampled_index.i,
                              "j": self.sampled_index.j,
                              "flat": self.sampled_index.flat},
            "success_flag": self.success_flag,
            "fidelity_error": self.fidelity_error,
            "success_conditioned_error": self.success_conditioned_error,
            "est_amplification_rounds": self.est_amplification_rounds,
            "output_state": [[float(z.real), float(z.imag)]
                             for z in self.output_state],
        }


def step_count(T: float, normA: float) -> int:
    """m = ceil(T ||A||), with the estimate inflated to stay on the safe side."""
    if not (math.isfinite(T) and T > 0):
        raise ParameterError(f"T must be positive and finite, got {T}")
    if not (math.isfinite(normA) and normA > 0):
        raise ParameterError(f"||A|| must be positive and finite, got {normA}")
    return max(1, math.ceil(T * normA * (1.0 + NORM_INFLATION)))


def choose_parameters(T: float, normA: float, epsilon: float, g: float,
                      kappa_V: float, x_in_norm: float, b_norm: float,
                      xT_norm: float) -> ChosenParameters:
    """Select (m, k, p, h) for accuracy epsilon on a problem with the given scales.

    h = T/ceil(T||A||), m = p = ceil(T||A||), delta = epsilon/(25 sqrt(m) g),
    k = floor(2 ln Omega / ln ln Omega) with
    Omega = 70 g kappa_V m^{3/2} (|x_in| + T|b|) / (epsilon |x(T)|),
    computed in log space. The closed form is defensive only: k is clamped
    to >= 5 and incremented until (k+1)! >= max(Omega, 2m) holds, since the
    factorial condition is what the error analysis consumes. Requires
    Omega >= 70 (implied by its factors on sane inputs, but checked).
    """
    for name, value in (("epsilon", epsilon), ("g", g), ("kappa_V", kappa_V),
                        ("x_in_norm", x_in_norm), ("b_norm", b_norm),
                        ("xT_norm", xT_norm)):
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            raise ParameterError(f"{name} must be finite, got {value!r}")
    if not 0.0 < epsilon <= 0.5:
        raise ParameterError(f"epsilon must lie in (0, 1/2], got {epsilon}")
    if g < 1.0:
        raise ParameterError(f"g is a max over a range including T, so g >= 1; got {g}")
    if kappa_V < 1.0:
        raise ParameterError(f"kappa_V must be >= 1, got {kappa_V}")
    if xT_norm <= 0.0:
        raise ParameterError("||x(T)|| must be positive")
    weight = x_in_norm + T * b_norm
    if weight <= 0.0:
        raise ParameterError("x_in and b cannot both vanish")

    m = step_count(T, normA)
    h = T / m
    delta = epsilon / (25.0 * math.sqrt(m) * g)
    log_omega = (math.log(70.0) + math.log(g) + math.log(kappa_V)
                 + 1.5 * math.log(m) + math.log(weight)
                 - math.log(epsilon) - math.log(xT_norm))
    if log_omega < math.log(70.0) - 1e-12:
        raise ParameterError(
            f"Omega = exp({log_omega:.4g}) < 70; the truncation rule is not "
            "applicable at these scales"
        )

    k_formula = math.floor(2.0 * log_omega / math.log(log_omega))
    k = max(k_formula, 5)
    needed = max(log_omega, math.log(2.0 * m))
    while math.lgamma(k + 2) < needed:
        k += 1
    return ChosenParameters(
        params=TaylorParams(m=m, k=k, p=m, h=h),
        log_omega=log_omega,
        delta=delta,
        k_formula=k_formula,
        factorial_log_slack=math.lgamma(k + 2) - log_omega,
    )


def _perturb_on_sphere(unit_vec: np.ndarray, delta: float, rng) -> np.ndarray:
    """A unit vector at distance exactly delta from unit_vec, seeded direction.

    Rotates by 2 arcsin(delta/2) toward a random direction orthogonal to
    unit_vec, so the output stays exactly normalized, as an inexact linear
    systems subroutine's output would be.
    """
    n = unit_vec.size
    raw = rng.normal(size=n) + 1j * rng.normal(size=n)
    raw -= (unit_vec.conj() @ raw) * unit_vec
    norm = np.linalg.norm(raw)
    if norm == 0.0:
        raise DegenerateInputError("could not draw a perturbation direction")
    direction = raw / norm
    theta = 2.0 * math.asin(delta / 2.0)
    return math.cos(theta) * unit_vec + math.sin(theta) * direction


def amplification_estimate(success_prob: float, g_grid: float | None = None) -> int:
    """Amplification rounds ceil(1/sqrt(success_prob)).

    When g_grid is supplied the caller asserts the measurement-bound
    hypotheses hold, and the estimate must not exceed ceil(12 g_grid).
    """
    if not (isinstance(success_prob, (int, float)) and math.isfinite(success_prob)):
        raise ParameterError(f"success_prob must be finite, got {success_prob!r}")
    if success_prob <= 0.0:
        raise DegenerateInputError("success probability is zero; no rounds estimate")
    if success_prob > 1.0 + 1e-12:
        raise ParameterError(f"success_prob must lie in (0, 1], got {success_prob}")
    ratio = 1.0 / math.sqrt(min(success_prob, 1.0))
    rounds = math.ceil(ratio * (1.0 - 1e-12))
    if g_grid is not None and rounds > math.ceil(12.0 * g_grid):
        raise BoundViolationError(
            f"{rounds} amplification rounds exceed the ceil(12 g) = "
            f"{math.ceil(12.0 * g_grid)} budget at g = {g_grid:.4g}"
        )
    return rounds


@dataclass
class MeasurementResult:
    """Solve + perturb + measure outcome for fixed layout parameters."""

    probabilities: np.ndarray
    sampled_index: BlockIndex
    success_flag: bool
    success_prob: float
    output_state: np.ndarray
    fidelity_error: float
    success_conditioned_error: float
    injected_delta: float


def measure(inst: Instance, params: TaylorParams, seed: int,
            delta_injection: float = 0.0,
            x_T: np.ndarray | None = None) -> MeasurementResult:
    """Stages 2-6 of the emulation with the layout already fixed.

    Solves the encoded system, optionally injects the norm-delta error on
    the normalized solution, computes exact block probabilities, samples one
    block index by inverse CDF, and evaluates the sampled (and worst
    success-set) output distance to the true normalized final state. That
    state is x_T when given (x(m h), as :func:`run` passes it from the decay
    profile's trajectory); otherwise the oracle integrates x(m h) from t = 0.
    """
    sol = forward_substitute(inst.A, params, inst.x_in, inst.b)
    flat = sol.vector()
    unit = flat / np.linalg.norm(flat)

    rng = np.random.default_rng(seed)
    if delta_injection > 0.0:
        state = _perturb_on_sphere(unit, delta_injection, rng)
    else:
        state = unit

    blocks = state.reshape(params.d + 1, inst.N)
    block_norms = np.linalg.norm(blocks, axis=1)
    probs = block_norms**2
    cdf = np.cumsum(probs)
    draw = rng.uniform()
    sampled_flat = min(int(np.searchsorted(cdf, draw * cdf[-1], side="right")),
                       params.d)

    success = params.success_set()
    success_prob = float(probs[success.start:success.stop].sum())

    block = blocks[sampled_flat]
    output = block / np.linalg.norm(block)
    if x_T is None:
        x_true = reference_solution(inst, params.T)
    else:
        x_true = as_state(x_T, "x_T")
        if x_true.size != inst.N:
            raise DimensionError(f"x_T has length {x_true.size}, expected {inst.N}")
    x_true_unit = x_true / np.linalg.norm(x_true)

    # Worst output error over the whole success set: the quantity the
    # epsilon guarantee bounds, independent of which outcome was sampled.
    conditioned = 0.0
    for l in success:
        norm_l = block_norms[l]
        if norm_l == 0.0:
            conditioned = math.inf
            break
        conditioned = max(conditioned, float(
            np.linalg.norm(blocks[l] / norm_l - x_true_unit)))

    return MeasurementResult(
        probabilities=probs,
        sampled_index=params.block(sampled_flat),
        success_flag=sampled_flat in success,
        success_prob=success_prob,
        output_state=output,
        fidelity_error=float(np.linalg.norm(output - x_true_unit)),
        success_conditioned_error=conditioned,
        injected_delta=delta_injection,
    )


def run(inst: Instance, cfg: RunConfig) -> PipelineReport:
    """Full end-to-end emulated run; see the module docstring for the stages."""
    normA = spectral_norm(inst.A, tol=1e-6)
    m = step_count(cfg.T, normA)
    decay = decay_profile(inst, cfg.T, m)
    x_in_norm = float(np.linalg.norm(inst.x_in))
    b_norm = float(np.linalg.norm(inst.b))
    chosen = choose_parameters(cfg.T, normA, cfg.epsilon, decay.g_grid,
                               inst.kappa_V, x_in_norm, b_norm, decay.q)

    if cfg.delta_injection == "auto":
        injected = chosen.delta
    elif cfg.delta_injection is None:
        injected = 0.0
    else:
        injected = float(cfg.delta_injection)

    outcome = measure(inst, chosen.params, cfg.seed, injected, x_T=decay.x_T)

    return PipelineReport(
        params=chosen.params,
        log_omega=chosen.log_omega,
        delta=chosen.delta,
        injected_delta=injected,
        g_grid=decay.g_grid,
        beta=(x_in_norm + cfg.T * b_norm) / decay.q,
        success_prob=outcome.success_prob,
        sampled_index=outcome.sampled_index,
        success_flag=outcome.success_flag,
        output_state=outcome.output_state,
        fidelity_error=outcome.fidelity_error,
        success_conditioned_error=outcome.success_conditioned_error,
        est_amplification_rounds=amplification_estimate(outcome.success_prob),
        block_probabilities=outcome.probabilities,
        T=cfg.T,
        epsilon=cfg.epsilon,
        seed=cfg.seed,
    )


def sweep_grid(base_spec, T_values, epsilon_values, kappa_values=None,
               seed: int = 0, delta_injection="auto") -> dict:
    """Grid of end-to-end runs over (kappa_V, T, epsilon).

    Generates one instance per kappa_V from base_spec (or just the base
    instance when kappa_values is None, e.g. in sparse mode where kappa is
    measured), runs every (T, epsilon) cell, and returns rows of (kappa, T,
    epsilon, k, d, success_prob, fidelity_error, passed) plus an aggregate
    verdict. A cell passes when the success-conditioned output error is
    within epsilon; the truncation order column exhibits the
    ~log(1/eps)/loglog(1/eps) growth.
    """
    from .instances import generate  # local: avoid import cycle at module load

    if kappa_values is None:
        specs = [base_spec]
    else:
        specs = [replace(base_spec, kappa_V=float(kappa))
                 for kappa in kappa_values]

    rows = []
    for spec in specs:
        inst = generate(spec)
        for T in T_values:
            for epsilon in epsilon_values:
                cfg = RunConfig(T=float(T), epsilon=float(epsilon), seed=seed,
                                delta_injection=delta_injection)
                report = run(inst, cfg)
                rows.append({
                    "kappa_V": inst.kappa_V,
                    "T": float(T),
                    "epsilon": float(epsilon),
                    "k": report.params.k,
                    "d": report.params.d,
                    "success_prob": report.success_prob,
                    "fidelity_error": report.fidelity_error,
                    "success_conditioned_error": report.success_conditioned_error,
                    "success_flag": report.success_flag,
                    "passed": report.success_conditioned_error <= epsilon,
                })
    return {
        "schema": 1,
        "seed": seed,
        "rows": rows,
        "all_passed": all(r["passed"] for r in rows),
    }
