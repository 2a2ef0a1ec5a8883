"""End-to-end emulation: parameter choice, solve, measurement, error budget.

Given an evolution time T and a target accuracy epsilon <= 1/2, the driver

1. integrates the ODE on the grid m = p = ceil(T ||A||), per (instance, T)
   (:func:`grid`), and picks k for epsilon (:func:`plan`): k = floor(2 ln
   Omega / ln ln Omega), bumped until (k+1)! >= Omega, as the error analysis needs;
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

from .analysis import DecayProfile, Problem, decay_profile
from .encoder import BlockIndex, TaylorParams
from .errors import DegenerateInputError, ParameterError
from .instances import generate
from .numerics import Instance
# Uncalled; bench/tests/test_tracing.py pins this binding until the benchmark revision.
from .numerics import reference_solution
from .taylor import MIN_TAIL_ORDER


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
        for name in ("T", "epsilon", "seed", "delta_injection"):
            if isinstance(getattr(self, name), (bool, np.bool_)):
                raise ParameterError(f"{name} must be a number, got a bool")
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
    """The paper's step count m = ceil(T ||A||), so that ||A h|| <= 1 at h = T/m."""
    if not (math.isfinite(T) and T > 0):
        raise ParameterError(f"T must be positive and finite, got {T}")
    if not (math.isfinite(normA) and normA > 0):
        raise ParameterError(f"||A|| must be positive and finite, got {normA}")
    return max(1, math.ceil(T * normA))


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

    k = max(math.floor(2.0 * log_omega / math.log(log_omega)), MIN_TAIL_ORDER)
    needed = max(log_omega, math.log(2.0 * m))
    while math.lgamma(k + 2) < needed:
        k += 1
    return ChosenParameters(
        params=TaylorParams(m=m, k=k, p=m, h=h),
        log_omega=log_omega,
        delta=delta,
    )


def grid(inst: Instance, T: float) -> DecayProfile:
    """The decay profile on m = step_count(T, inst.norm_A) steps: a run's epsilon-free half."""
    return decay_profile(inst, T, step_count(T, inst.norm_A))


def plan(inst: Instance, decay: DecayProfile, T: float, epsilon: float) -> ChosenParameters:
    """A run's epsilon half: :func:`choose_parameters` on ``decay = grid(inst, T)``."""
    return choose_parameters(T, inst.norm_A, epsilon, decay.g_grid, inst.kappa_V,
                             float(np.linalg.norm(inst.x_in)),
                             float(np.linalg.norm(inst.b)), decay.q)


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


def amplification_estimate(success_prob: float) -> int:
    """Amplification rounds ceil(1/sqrt(success_prob))."""
    if not (isinstance(success_prob, (int, float)) and math.isfinite(success_prob)):
        raise ParameterError(f"success_prob must be finite, got {success_prob!r}")
    if success_prob <= 0.0:
        raise DegenerateInputError("success probability is zero; no rounds estimate")
    if success_prob > 1.0 + 1e-12:
        raise ParameterError(f"success_prob must lie in (0, 1], got {success_prob}")
    ratio = 1.0 / math.sqrt(min(success_prob, 1.0))
    return math.ceil(ratio * (1.0 - 1e-12))


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


def measure(problem: Problem, seed: int, delta_injection: float = 0.0) -> MeasurementResult:
    """Stages 2-6 of the emulation on one checked (instance, layout, grid).

    Reads the problem's block solution, optionally injects the norm-delta
    error on the normalized solution, computes exact block probabilities,
    samples one block index by inverse CDF, and evaluates the sampled (and
    worst success-set) output distance to the true normalized final state,
    x(T) = x(m h) from the problem's decay trajectory.
    """
    params = problem.params
    flat = problem.solution.vector()
    unit = flat / np.linalg.norm(flat)

    rng = np.random.default_rng(seed)
    if delta_injection > 0.0:
        state = _perturb_on_sphere(unit, delta_injection, rng)
    else:
        state = unit

    blocks = state.reshape(params.d + 1, problem.inst.N)
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
    x_true = problem.decay.x_T
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
    )


def _report(inst: Instance, decay: DecayProfile, cfg: RunConfig) -> PipelineReport:
    """One run on an integrated grid: choose, inject delta, measure, report."""
    chosen = plan(inst, decay, cfg.T, cfg.epsilon)
    di = cfg.delta_injection  # None or 0 injects nothing
    injected = chosen.delta if di == "auto" else float(di or 0.0)
    outcome = measure(Problem(inst, chosen.params, decay), cfg.seed, injected)

    return PipelineReport(
        params=chosen.params,
        log_omega=chosen.log_omega,
        delta=chosen.delta,
        injected_delta=injected,
        g_grid=decay.g_grid,
        beta=(np.linalg.norm(inst.x_in) + cfg.T * np.linalg.norm(inst.b)) / decay.q,
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


def run(inst: Instance, cfg: RunConfig) -> PipelineReport:
    """Full end-to-end emulated run; see the module docstring for the stages."""
    return _report(inst, grid(inst, cfg.T), cfg)


def sweep_grid(base_spec, T_values, epsilon_values, kappa_values=None,
               seed: int = 0, delta_injection="auto") -> dict:
    """Grid of end-to-end runs over (kappa_V, T, epsilon).

    Validates every (T, epsilon) RunConfig, then generates one instance per
    kappa_V from base_spec (or the base instance when kappa_values is None,
    e.g. in sparse mode where kappa is measured), integrates each (kappa_V,
    T) grid once, builds its epsilon cells as :func:`run` does, and returns
    rows of (kappa, T, epsilon, k, d,
    success_prob, fidelity_error, passed) plus an aggregate verdict. A cell
    passes when the success-conditioned output error is within epsilon; the
    truncation order column exhibits the ~log(1/eps)/loglog(1/eps) growth.
    """
    if kappa_values is None:
        specs = [base_spec]
    else:
        specs = [replace(base_spec, kappa_V=float(kappa))
                 for kappa in kappa_values]

    cells = [(T, [RunConfig(T=T, epsilon=eps, seed=seed, delta_injection=delta_injection)
                  for eps in map(float, epsilon_values)]) for T in map(float, T_values)]
    rows = []
    for spec in specs:
        inst = generate(spec)
        for T, configs in cells:
            decay = grid(inst, T)
            for cfg in configs:
                report = _report(inst, decay, cfg)
                rows.append({
                    "kappa_V": inst.kappa_V,
                    "T": T,
                    "epsilon": cfg.epsilon,
                    "k": report.params.k,
                    "d": report.params.d,
                    "success_prob": report.success_prob,
                    "fidelity_error": report.fidelity_error,
                    "success_conditioned_error": report.success_conditioned_error,
                    "success_flag": report.success_flag,
                    "passed": report.success_conditioned_error <= cfg.epsilon,
                })
    return {
        "schema": 1,
        "seed": seed,
        "rows": rows,
        "all_passed": all(r["passed"] for r in rows),
    }
