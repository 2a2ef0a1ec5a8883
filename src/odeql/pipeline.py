"""End-to-end emulation: parameter choice, solve, measurement, error budget.

Given an evolution time T and a target accuracy epsilon <= 1/2, the driver

1. integrates the ODE on the grid m = p = ceil(T ||A||), per (instance, T)
   (:func:`grid`), and picks k for epsilon from that grid
   (:func:`choose_parameters`): k = floor(2 ln Omega / ln ln Omega), bumped
   until (k+1)! >= Omega, as the error analysis needs;
2. solves the encoded system exactly by block forward substitution;
3. optionally perturbs the normalized solution u to a unit state exactly
   delta away, emulating an inexact linear-systems subroutine that only
   guarantees || |x> - |x'> || <= delta. Theorem 3's budget is claimed for
   every such state, so the perturbation is placed where it hurts: on the
   first two success blocks, along the gradient of the first one's output
   error (:func:`_worst_direction`). Every other block is u's times
   cos(theta), theta = 2 arcsin(delta/2);
4. measures the block index register: samples one flat block by inverse CDF
   over the exact block probabilities;
5. flags success when the outcome lands in the padded final-state range and
   reports the sampled block's distance to the true normalized solution,
   the exact success probability, and the implied amplification round count
   ceil(1/sqrt(prob)).

Everything is deterministic given (instance, config): the perturbation is
a function of the solution and x(T), and one fresh generator, seeded per
run, drives only the measurement draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .analysis import DecayProfile, Problem, decay_profile
from .errors import DegenerateInputError, ParameterError
from .instances import check_seed, generate
from .numerics import Instance
# Uncalled; bench/tests/test_tracing.py pins this binding until the benchmark revision.
from .numerics import reference_solution
from .taylor import MIN_TAIL_ORDER, BlockIndex, TaylorParams


@dataclass(frozen=True)
class RunConfig:
    """End-to-end run configuration.

    delta_injection: 0 (the default) disables the solver-inexactness emulation,
    "auto" injects the budgeted delta = epsilon/(25 sqrt(m) g), and a float
    injects that exact perturbation norm. Either way the perturbation is the
    deterministic worst-case placement of :func:`measure`; the seed drives
    only the measurement draw.
    """

    T: float
    epsilon: float
    seed: int
    delta_injection: float | str = 0.0

    def __post_init__(self):
        for name in ("T", "epsilon", "seed", "delta_injection"):
            if isinstance(getattr(self, name), (bool, np.bool_)):
                raise ParameterError(f"{name} must be a number, got a bool")
        check_seed(self.seed)
        if not (math.isfinite(self.T) and self.T > 0):
            raise ParameterError(f"T must be positive and finite, got {self.T}")
        if not 0.0 < self.epsilon <= 0.5:
            raise ParameterError(f"epsilon must lie in (0, 1/2], got {self.epsilon}")
        di = self.delta_injection
        if di != "auto":
            if not (isinstance(di, (int, float)) and 0.0 <= di <= 2.0):
                raise ParameterError(f"delta_injection must be in [0, 2], got {di!r}")


@dataclass(frozen=True)
class ChosenParameters:
    """Parameter selection outcome plus its diagnostics (Omega in log space)."""

    params: TaylorParams
    log_omega: float
    delta: float


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


@dataclass
class PipelineReport(MeasurementResult):
    """A run's measurement and the run's own fields; deterministic given
    (instance, config)."""

    params: TaylorParams
    log_omega: float
    delta: float
    injected_delta: float
    g_grid: float
    beta: float
    est_amplification_rounds: int
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


def grid(inst: Instance, T: float) -> DecayProfile:
    """The decay profile on m = step_count(T, inst.norm_A) steps: a run's epsilon-free half."""
    return decay_profile(inst, T, step_count(T, inst.norm_A))


def choose_parameters(inst: Instance, decay: DecayProfile, epsilon: float) -> ChosenParameters:
    """Select (m, k, p, h) for accuracy epsilon on ``decay = grid(inst, T)``.

    m = p and h are the grid's, delta = epsilon/(25 sqrt(m) g), and
    k = floor(2 ln Omega / ln ln Omega) with
    Omega = 70 g kappa_V m^{3/2} (|x_in| + T|b|) / (epsilon |x(T)|),
    computed in log space from the instance's kappa_V and the profile's g,
    weight and q. The closed form is defensive only: k is clamped
    to >= 5 and incremented until (k+1)! >= max(Omega, 2m) holds, since the
    factorial condition is what the error analysis consumes. Requires
    Omega >= 70 (implied by its factors on sane inputs, but checked).
    """
    if not 0.0 < epsilon <= 0.5:
        raise ParameterError(f"epsilon must lie in (0, 1/2], got {epsilon}")
    m, g = decay.m, decay.g_grid
    delta = epsilon / (25.0 * math.sqrt(m) * g)
    log_omega = (math.log(70.0) + math.log(g) + math.log(inst.kappa_V)
                 + 1.5 * math.log(m) + math.log(decay.weight)
                 - math.log(epsilon) - math.log(decay.q))
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
        params=TaylorParams(m=m, k=k, p=m, h=decay.h),
        log_omega=log_omega,
        delta=delta,
    )


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


def _squared_norms(blocks: np.ndarray) -> np.ndarray:
    """||row||^2 of each row of a complex128 array, allocating only the result."""
    v = blocks.view(np.float64)
    return np.einsum("ij,ij->i", v, v)


def _worst_direction(pair: np.ndarray, x_unit: np.ndarray) -> np.ndarray:
    """The unit perturbation w on the first two success blocks, shape (2, N).

    ``pair`` holds those two blocks of the solution (any scale; forward
    substitution makes them bitwise copies) and ``x_unit`` the normalized
    x(T). z is the gradient of block a's conditioned error ||c - x|| on its
    unit sphere, c = pair[0]/||pair[0]||: with e = c - x, z = e - Re<c, e> c.
    An exact solve leaves e a last-bit residue, so a z of at most 4 ulp is
    read as none and replaced by the phase direction i c. w = (z, -z),
    orthogonalized against ``pair``, is orthogonal to the whole solution, and
    at N = 1 too, where a block has no direction orthogonal to itself.
    """
    head = pair[0]
    head_norm = np.linalg.norm(head)
    c = head / head_norm if head_norm > 0.0 else np.zeros_like(head)
    e = c - x_unit
    z = e - np.vdot(c, e).real * c
    if np.linalg.norm(z) <= 4 * 2.0**-52:
        z = 1j * c
    w = np.stack((z, -z))
    pair_sq = np.vdot(pair, pair).real
    if pair_sq > 0.0:
        w -= (np.vdot(pair, w) / pair_sq) * pair
    return w / np.linalg.norm(w)


def measure(problem: Problem, seed: int, delta_injection: float = 0.0) -> MeasurementResult:
    """Stages 2-6 of the emulation on one checked (instance, layout, grid).

    Reads the problem's block solution and optionally replaces its
    normalized form u by cos(theta) u + sin(theta) w, theta = 2 arcsin(delta/2):
    a unit state exactly delta from u, with w = :func:`_worst_direction` on the
    first two success blocks. Every other block is u's times cos(theta), so
    only block norms and the success blocks are read, and no (d+1)N-length
    array is formed. Computes exact block probabilities, samples one block
    index by inverse CDF, and evaluates the sampled (and worst success-set)
    output distance to the true normalized final state, x(T) = x(m h) from
    the problem's decay trajectory.
    """
    params = problem.params
    data = problem.solution.data
    x_true = problem.decay.x_T
    x_unit = x_true / np.linalg.norm(x_true)
    a = params.success_set().start

    theta = 2.0 * math.asin(delta_injection / 2.0)
    cos, sin = math.cos(theta), math.sin(theta)
    squared = _squared_norms(data)
    total = float(squared.sum())
    scale = cos / math.sqrt(total)
    # The state's success blocks; the rest are read as scale * data[l].
    states = data[a:] * scale
    if delta_injection > 0.0:
        states[:2] += sin * _worst_direction(data[a:a + 2], x_unit)

    probs = squared * (cos * cos / total)
    probs[a:] = _squared_norms(states)
    cdf = np.cumsum(probs)
    draw = np.random.default_rng(seed).uniform()
    sampled_flat = min(int(np.searchsorted(cdf, draw * cdf[-1], side="right")),
                       params.d)
    success_prob = float(probs[a:].sum())

    block = states[sampled_flat - a] if sampled_flat >= a else data[sampled_flat] * scale
    output = block / np.linalg.norm(block)

    # Worst output error over the whole success set: the quantity the
    # epsilon guarantee bounds, independent of which outcome was sampled.
    norms = np.sqrt(probs[a:])
    if norms.min() == 0.0:
        conditioned = math.inf
    else:
        states /= norms[:, None]
        states -= x_unit
        conditioned = math.sqrt(float(_squared_norms(states).max()))

    return MeasurementResult(
        probabilities=probs,
        sampled_index=params.block(sampled_flat),
        success_flag=sampled_flat >= a,
        success_prob=success_prob,
        output_state=output,
        fidelity_error=float(np.linalg.norm(output - x_unit)),
        success_conditioned_error=conditioned,
    )


def _report(inst: Instance, decay: DecayProfile, cfg: RunConfig) -> PipelineReport:
    """One run on an integrated grid: choose, inject delta, measure, report."""
    chosen = choose_parameters(inst, decay, cfg.epsilon)
    di = cfg.delta_injection
    injected = chosen.delta if di == "auto" else float(di)
    outcome = measure(Problem(inst, chosen.params, decay), cfg.seed, injected)

    return PipelineReport(
        **vars(outcome),
        params=chosen.params,
        log_omega=chosen.log_omega,
        delta=chosen.delta,
        injected_delta=injected,
        g_grid=decay.g_grid,
        beta=decay.weight / decay.q,
        est_amplification_rounds=amplification_estimate(outcome.success_prob),
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
