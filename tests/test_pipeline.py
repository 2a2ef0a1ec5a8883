"""Tests for parameter selection, decay estimation and the end-to-end driver."""

import inspect
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from golden import regenerate
from odeql.analysis import (
    Problem,
    conditional_distance_bound,
    decay_profile,
    normalized_distance_bound,
    perturbed_amplitude_floor,
    solution_error_report,
)
from odeql.encoder import TaylorParams
from odeql import analysis, pipeline, suites
from odeql.errors import DegenerateInputError, ParameterError
from odeql.instances import GenSpec, generate
from odeql.numerics import make_instance, reference_solution
from odeql.pipeline import (
    RunConfig,
    amplification_estimate,
    choose_parameters,
    measure,
    run,
    step_count,
    sweep_grid,
)


# (constructor, arguments with one bool, the field the error names), by id
BOOL_FIELDS = {
    "TaylorParams.m": (TaylorParams, dict(m=True, k=5, p=1, h=True), "m"),
    "TaylorParams.k": (TaylorParams, dict(m=2, k=True, p=1, h=0.5), "k"),
    "TaylorParams.p": (TaylorParams, dict(m=2, k=5, p=True, h=0.5), "p"),
    "TaylorParams.h": (TaylorParams, dict(m=2, k=5, p=1, h=True), "h"),
    "GenSpec.N": (GenSpec, dict(N=True), "N"),
    "GenSpec.seed": (GenSpec, dict(N=4, seed=True), "seed"),
    "GenSpec.seed-numpy": (GenSpec, dict(N=4, seed=np.True_), "seed"),
    "GenSpec.kappa_V": (GenSpec, dict(N=4, kappa_V=True), "kappa_V"),
    "GenSpec.sparsity": (GenSpec, dict(N=4, sparsity=True, kappa_V=None), "sparsity"),
    "RunConfig.T": (RunConfig, dict(T=True, epsilon=0.5, seed=1), "T"),
    "RunConfig.seed": (RunConfig, dict(T=1.0, epsilon=0.5, seed=True), "seed"),
    "RunConfig.delta_injection": (
        RunConfig, dict(T=1.0, epsilon=0.5, seed=1, delta_injection=True), "delta_injection"),
}


@pytest.mark.parametrize("build, kwargs, field", BOOL_FIELDS.values(), ids=BOOL_FIELDS)
def test_bools_are_not_numbers(build, kwargs, field):
    with pytest.raises(ParameterError, match=f"^{field} must be"):
        build(**kwargs)


# where a seed enters -> its arguments, but the seed
SEED_ENTRIES = {
    "GenSpec": (GenSpec, dict(N=2)),
    "RunConfig": (RunConfig, dict(T=1.0, epsilon=0.5)),
    "run_suite": (suites.run_suite, dict(name="lemma1")),
}


@pytest.mark.parametrize("seed", [-1, 1.5])
@pytest.mark.parametrize("build, kwargs", SEED_ENTRIES.values(), ids=SEED_ENTRIES)
def test_a_seed_that_is_not_a_natural_number_is_refused_where_it_enters(build, kwargs, seed):
    # numpy's default_rng would refuse it later, in words that name no input
    with pytest.raises(ParameterError,
                       match=f"^seed must be a non-negative integer, got {seed}$"):
        build(**kwargs, seed=seed)


# kappa_V = |A| = 1 and a norm-preserving flow, so its grid at T = 1 has
# g = q = weight = 1: the base that each case replaces
UNIT_SCALAR = make_instance(np.eye(1), [1j], np.zeros(1), np.ones(1))


def unit_profile(m=1, **scales):
    """UNIT_SCALAR's decay profile with m steps and the given scales replaced."""
    return replace(decay_profile(UNIT_SCALAR, T=1.0, m=1),
                   states=np.zeros((m + 1, 1)), **scales)


class TestChooseParameters:
    def test_ceiling_arithmetic(self):
        # T ||A|| = 3.2 -> m = p = 4, h = T/4, all read from the grid
        decay = pipeline.grid(UNIT_SCALAR, 3.2)
        chosen = choose_parameters(UNIT_SCALAR, decay, 0.1)
        assert decay.m == 4
        assert chosen.params.m == 4
        assert chosen.params.p == 4
        assert chosen.params.h == pytest.approx(0.8)

    def test_layout_is_the_grids(self):
        chosen = choose_parameters(UNIT_SCALAR, unit_profile(m=3, h=0.25, q=0.1), 0.1)
        assert (chosen.params.m, chosen.params.p, chosen.params.h) == (3, 3, 0.25)

    def test_omega_70_selects_k5(self):
        # weight/(eps q) = 1 and the remaining factors 1 give Omega = 70.
        chosen = choose_parameters(UNIT_SCALAR, unit_profile(q=2.0, weight=1.0), 0.5)
        assert chosen.log_omega == pytest.approx(math.log(70.0))
        # the closed form gives floor(2 ln 70 / ln ln 70) = 5, and 6! = 720 >= 70
        assert chosen.params.k == 5

    def test_omega_1e6_selects_k10(self):
        chosen = choose_parameters(UNIT_SCALAR, unit_profile(q=1.4e-4, weight=1.0), 0.5)
        assert chosen.log_omega == pytest.approx(math.log(1e6), abs=1e-12)
        assert chosen.params.k == 10
        assert math.lgamma(12) >= chosen.log_omega  # 11! >= 1e6

    def test_factorial_condition_binding(self):
        inst = generate(GenSpec(N=2, kappa_V=10.0))
        decay = replace(decay_profile(inst, T=4.0, m=8), g_grid=3.0, q=0.1, weight=5.0)
        chosen = choose_parameters(inst, decay, 1e-8)
        assert math.lgamma(chosen.params.k + 2) >= chosen.log_omega
        assert math.lgamma(chosen.params.k + 2) >= math.log(2 * chosen.params.m)
        assert chosen.params.k >= 5

    def test_small_omega_rejected(self):
        with pytest.raises(ParameterError, match="70"):
            choose_parameters(UNIT_SCALAR, unit_profile(q=100.0, weight=1.0), 0.5)

    def test_epsilon_range(self):
        with pytest.raises(ParameterError):
            choose_parameters(UNIT_SCALAR, unit_profile(), 0.7)

    def test_step_count_is_the_papers_rule(self):
        # m = ceil(T ||A||): an exactly integer product takes that many steps
        assert step_count(3.0, 1.0) == 3
        assert step_count(3.2, 1.0) == 4


class TestEstimateDecay:
    def test_norm_preserving_flow(self):
        inst = generate(GenSpec(N=4, kappa_V=1.0, eig_profile="pure-imaginary",
                                b_mode="zero", seed=0))
        decay = decay_profile(inst, T=2.0, m=4)
        assert decay.g_grid == pytest.approx(1.0, abs=1e-12)

    def test_scalar_decay(self):
        inst = make_instance(np.eye(1), [-1.0], np.zeros(1), np.ones(1))
        decay = decay_profile(inst, T=2.0, m=2)
        assert decay.g_grid == pytest.approx(math.exp(2.0), rel=1e-12)

    def test_pure_growth_has_unit_g(self):
        # A = 0, b != 0, x_in = 0: norms grow linearly, the max sits at T.
        inst = make_instance(np.eye(2), [0.0, 0.0], np.array([1.0, 1.0 + 0j]),
                             np.zeros(2))
        decay = decay_profile(inst, T=3.0, m=3)
        assert decay.g_grid == pytest.approx(1.0)
        np.testing.assert_allclose(np.linalg.norm(decay.states, axis=1),
                                   [0.0, math.sqrt(2), 2 * math.sqrt(2),
                                    3 * math.sqrt(2)], atol=1e-12)


class TestAmplificationEstimate:
    def test_certain_success(self):
        assert amplification_estimate(1.0) == 1

    def test_exact_square(self):
        assert amplification_estimate(1.0 / 121.0) == 11

    def test_zero_probability(self):
        with pytest.raises(DegenerateInputError):
            amplification_estimate(0.0)

    def test_decaying_instance_stays_in_budget(self):
        # scalar decay with g = e^T = 2: rounds must stay within 12 g = 24,
        # the budget of the exact g, not of the oracle's rounded one
        inst = make_instance(np.eye(1), [-1.0], np.zeros(1), np.ones(1))
        report = run(inst, RunConfig(T=math.log(2.0), epsilon=1e-3, seed=3,
                                     delta_injection="auto"))
        assert report.g_grid == pytest.approx(2.0, rel=1e-10)
        assert report.est_amplification_rounds == amplification_estimate(report.success_prob)
        assert report.est_amplification_rounds <= 24


def _problem(inst, params):
    return Problem(inst, params, decay_profile(inst, params.T, params.m))


class TestMeasure:
    def test_takes_one_problem(self):
        assert list(inspect.signature(measure).parameters) == [
            "problem", "seed", "delta_injection"]

    def test_identity_flow_distribution(self):
        # A = 0, b = 0, p = m: success probability (p+1)/(m+p+1), seeded draw.
        inst = make_instance(np.eye(2), [0.0, 0.0], np.zeros(2),
                             np.array([1.0, 1j]) / math.sqrt(2), label="flat")
        m = p = 3
        problem = _problem(inst, TaylorParams(m=m, k=5, p=p, h=1.0))
        outcome = measure(problem, seed=42)
        assert outcome.success_prob == pytest.approx((p + 1) / (m + p + 1))
        again = measure(problem, seed=42)
        assert outcome.sampled_index == again.sampled_index
        assert np.array_equal(outcome.probabilities, again.probabilities)

    def test_reads_the_problems_solution_and_final_state(self, monkeypatch):
        # no solve of its own: the cached block solution and the trajectory's
        # x(T) are the ones the checkers read
        inst = generate(GenSpec(N=3, kappa_V=2.0, b_mode="random", seed=5,
                                unit_norm=True))
        problem = _problem(inst, TaylorParams(m=2, k=6, p=2, h=0.9))
        exact = analysis.success_probability_report(problem)
        monkeypatch.setattr(analysis, "forward_substitute", None)
        outcome = measure(problem, seed=1)
        assert outcome.success_prob == pytest.approx(exact.details["success_prob"],
                                                     rel=1e-12)
        final = problem.solution.final_state()
        x_T = problem.decay.x_T
        assert outcome.success_conditioned_error == pytest.approx(np.linalg.norm(
            final / np.linalg.norm(final) - x_T / np.linalg.norm(x_T)), rel=1e-12)

    def test_probabilities_sum_to_one(self):
        inst = generate(GenSpec(N=3, kappa_V=2.0, b_mode="random", seed=5,
                                unit_norm=True))
        problem = _problem(inst, TaylorParams(m=3, k=6, p=3, h=0.9))
        outcome = measure(problem, seed=7, delta_injection=0.05)
        assert abs(outcome.probabilities.sum() - 1.0) <= 1e-12


def _random_rotation(unit, delta, rng):
    """unit rotated by 2 arcsin(delta/2) toward a seeded random direction
    orthogonal to it: the random model of an inexact solver, which the
    worst-case placement must dominate."""
    n = unit.size
    raw = rng.normal(size=n) + 1j * rng.normal(size=n)
    raw -= (unit.conj() @ raw) * unit
    theta = 2.0 * math.asin(delta / 2.0)
    return math.cos(theta) * unit + math.sin(theta) * raw / np.linalg.norm(raw)


def _full_length_measurement(problem, state, seed):
    """measure's arithmetic on a full-length unit state, the reference that
    its block-wise reads must reproduce: (probabilities, sampled flat index,
    output state, fidelity error, conditioned error)."""
    params = problem.params
    blocks = state.reshape(params.d + 1, problem.inst.N)
    block_norms = np.linalg.norm(blocks, axis=1)
    probs = block_norms**2
    cdf = np.cumsum(probs)
    draw = np.random.default_rng(seed).uniform()
    sampled = min(int(np.searchsorted(cdf, draw * cdf[-1], side="right")), params.d)
    output = blocks[sampled] / block_norms[sampled]
    x_unit = problem.decay.x_T / np.linalg.norm(problem.decay.x_T)
    conditioned = max(float(np.linalg.norm(blocks[l] / block_norms[l] - x_unit))
                      for l in params.success_set())
    return (probs, sampled, output, float(np.linalg.norm(output - x_unit)),
            conditioned)


class TestWorstCasePlacement:
    """measure's perturbation: cos(theta) u + sin(theta) w, w on the first two
    success blocks, pointing where block a's conditioned error grows."""

    PARAMS = TaylorParams(m=2, k=6, p=2, h=0.9)

    def _problem(self):
        inst = generate(GenSpec(N=3, kappa_V=2.0, b_mode="random", seed=9,
                                unit_norm=True))
        return _problem(inst, self.PARAMS)

    @staticmethod
    def _state(problem, delta):
        """u, w and the perturbed state as full-length vectors."""
        data = problem.solution.data
        unit = data.ravel() / np.linalg.norm(data)
        a, N = problem.params.success_set().start, problem.inst.N
        x_unit = problem.decay.x_T / np.linalg.norm(problem.decay.x_T)
        w = np.zeros_like(unit)
        w[a * N:(a + 2) * N] = pipeline._worst_direction(data[a:a + 2], x_unit).ravel()
        theta = 2.0 * math.asin(delta / 2.0)
        return unit, w, math.cos(theta) * unit + math.sin(theta) * w

    def test_norm_distance_orthogonality_and_lemmas(self):
        problem = self._problem()
        params, N, delta = self.PARAMS, problem.inst.N, 0.01
        unit, w, state = self._state(problem, delta)
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-13)
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-13)
        assert np.linalg.norm(state - unit) == pytest.approx(delta, abs=1e-13)
        assert abs(np.vdot(unit, w)) <= 1e-13
        # orthogonal without the two blocks being copies
        rng = np.random.default_rng(4)
        pair = rng.normal(size=(2, N)) + 1j * rng.normal(size=(2, N))
        x_unit = pair[1] / np.linalg.norm(pair[1])
        assert abs(np.vdot(pair, pipeline._worst_direction(pair, x_unit))) <= 1e-13

        blocks_before = unit.reshape(params.d + 1, N)
        blocks_after = state.reshape(params.d + 1, N)
        a = params.success_set().start
        for l in (a, a + 1):
            alpha = np.linalg.norm(blocks_before[l])
            alpha_after = np.linalg.norm(blocks_after[l])
            assert alpha > delta
            # perturbed amplitude floor: alpha' >= alpha - delta
            assert alpha_after >= perturbed_amplitude_floor(alpha, delta) - 1e-13
            # conditional state distance: 2 delta / (alpha - delta)
            gap = np.linalg.norm(blocks_after[l] / alpha_after
                                 - blocks_before[l] / alpha)
            assert gap <= conditional_distance_bound(alpha, delta) + 1e-13

    @pytest.mark.parametrize("delta", [1e-3, 0.5, 1.9])
    def test_matches_the_full_length_arithmetic(self, delta):
        # delta = 1.9 puts cos(theta) < 0: every untouched block flips sign
        problem = self._problem()
        probs, sampled, output, fidelity, conditioned = _full_length_measurement(
            problem, self._state(problem, delta)[2], seed=5)
        outcome = measure(problem, seed=5, delta_injection=delta)
        np.testing.assert_allclose(outcome.probabilities, probs, rtol=0, atol=1e-12)
        assert outcome.sampled_index.flat == sampled
        np.testing.assert_allclose(outcome.output_state, output, rtol=0, atol=1e-12)
        assert outcome.fidelity_error == pytest.approx(fidelity, abs=1e-12)
        assert outcome.success_conditioned_error == pytest.approx(conditioned, abs=1e-12)

    @staticmethod
    def _random_worst(problem, delta):
        """The largest conditioned error of 100 seeded random rotations."""
        data = problem.solution.data
        unit = data.ravel() / np.linalg.norm(data)
        rng = np.random.default_rng(2024)
        return max(_full_length_measurement(problem, _random_rotation(unit, delta, rng), 0)[4]
                   for _ in range(100))

    @pytest.mark.parametrize("T", regenerate.EMULATE_T)
    def test_is_the_worst_of_100_random_rotations(self, T):
        # the golden emulate instance at its budgeted delta
        inst = generate(regenerate.EMULATE_SPEC)
        epsilon = regenerate.EMULATE_EPSILON
        decay = pipeline.grid(inst, T)
        chosen = choose_parameters(inst, decay, epsilon)
        problem = Problem(inst, chosen.params, decay)
        placed = measure(problem, seed=0, delta_injection=chosen.delta)
        assert (self._random_worst(problem, chosen.delta)
                <= placed.success_conditioned_error <= epsilon)

    def test_follows_the_error_gradient(self):
        # block a's truncation error, 2.8e-5, dwarfs delta here: a push across
        # the error (the phase direction, say) moves it less than a random one
        problem = self._problem()
        placed = measure(problem, seed=0, delta_injection=1e-6)
        assert placed.success_conditioned_error > self._random_worst(problem, 1e-6)

    def test_exact_solution_moves_the_phase(self):
        # A = 0, b = 0: block a is x(T)'s direction, so e = c - x is 0 or a
        # last-bit residue, and w is the phase direction (i c, -i c)/sqrt(2)
        inst = make_instance(np.eye(2), [0.0, 0.0], np.zeros(2),
                             np.array([1.0, 1j]) / math.sqrt(2))
        problem = _problem(inst, TaylorParams(m=2, k=5, p=2, h=1.0))
        data = problem.solution.data
        a = problem.params.success_set().start
        c = data[a] / np.linalg.norm(data[a])
        phase = np.stack((1j * c, -1j * c)) / math.sqrt(2)
        residue = c.copy()
        residue[0] = complex(np.nextafter(c[0].real, 2.0), c[0].imag)
        for x_unit in (c, residue):
            np.testing.assert_allclose(pipeline._worst_direction(data[a:a + 2], x_unit),
                                       phase, rtol=0, atol=1e-15)
        delta = 0.01
        theta = 2.0 * math.asin(delta / 2.0)
        # block a turns by phi, tan(phi) = sin(theta)/sqrt(2) / (cos(theta) alpha)
        alpha = np.linalg.norm(data[a]) / np.linalg.norm(data)
        phi = math.atan2(math.sin(theta) / math.sqrt(2), math.cos(theta) * alpha)
        outcome = measure(problem, seed=1, delta_injection=delta)
        assert outcome.success_conditioned_error == pytest.approx(
            2.0 * math.sin(phi / 2.0), rel=1e-12)

    @pytest.mark.parametrize("p, delta, error", [(2, 0.0, math.inf), (2, 0.1, math.inf),
                                                 (1, 0.1, 2.0)])
    def test_zero_success_block(self, p, delta, error):
        # A = 0, x_in = 1, b = -1, h = 1: the final block is exactly 0, while
        # UNIT_SCALAR's grid gives a unit x(T). An untouched zero block reads
        # inf; when w covers every success block, it sends block a to -x(T).
        inst = make_instance(np.eye(1), [0.0], -np.ones(1), np.ones(1))
        decay = decay_profile(UNIT_SCALAR, T=1.0, m=1)
        problem = Problem(inst, TaylorParams(m=1, k=5, p=p, h=1.0), decay)
        assert not problem.solution.final_state().any()
        outcome = measure(problem, seed=3, delta_injection=delta)
        assert outcome.success_conditioned_error == pytest.approx(error, rel=1e-15)
        assert np.isfinite(outcome.output_state).all()

    def test_allocates_no_full_length_vector(self):
        inst = generate(regenerate.EMULATE_SPEC)
        decay = pipeline.grid(inst, 20.0)
        chosen = choose_parameters(inst, decay, regenerate.EMULATE_EPSILON)
        problem = Problem(inst, chosen.params, decay)
        full_bytes = problem.solution.data.nbytes
        tracemalloc.start()
        try:
            measure(problem, seed=1, delta_injection=chosen.delta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < full_bytes / 4


class TestRun:
    def _instance(self, seed=0, kappa=3.0, b_mode="random"):
        return generate(GenSpec(N=4, kappa_V=kappa, b_mode=b_mode, seed=seed,
                                unit_norm=True))

    def test_deterministic_reports(self):
        inst = self._instance()
        cfg = RunConfig(T=2.0, epsilon=1e-4, seed=123, delta_injection="auto")
        first = run(inst, cfg)
        second = run(inst, cfg)
        assert first.params == second.params
        assert first.success_prob == second.success_prob
        assert first.sampled_index == second.sampled_index
        assert first.fidelity_error == second.fidelity_error
        assert np.array_equal(first.output_state, second.output_state)
        assert np.array_equal(first.probabilities, second.probabilities)

    def test_probability_normalization(self):
        inst = self._instance(seed=2)
        report = run(inst, RunConfig(T=1.5, epsilon=1e-3, seed=5,
                                     delta_injection="auto"))
        assert abs(report.probabilities.sum() - 1.0) <= 1e-12
        assert 0.0 <= report.success_prob <= 1.0

    def test_exact_solve_error_budget(self):
        # With no injection the success-conditioned error obeys the
        # normalized-distance conversion of the per-step error bound.
        inst = self._instance(seed=3, b_mode="zero")
        cfg = RunConfig(T=2.0, epsilon=1e-5, seed=11)
        report = run(inst, cfg)
        assert report.injected_delta == 0.0
        decay = decay_profile(inst, report.params.T, report.params.m)
        err_report = solution_error_report(Problem(inst, report.params, decay))
        eps_m = err_report.details["errors"][-1]
        x_T = reference_solution(inst, cfg.T)
        alpha = float(np.linalg.norm(x_T))
        assert report.success_conditioned_error <= normalized_distance_bound(
            alpha, eps_m) + 1e-12

    def test_budgeted_injection_meets_epsilon(self):
        for seed, epsilon in ((0, 1e-2), (1, 1e-4), (2, 1e-6)):
            inst = self._instance(seed=seed)
            report = run(inst, RunConfig(T=2.0, epsilon=epsilon, seed=77,
                                         delta_injection="auto"))
            assert report.injected_delta == pytest.approx(report.delta)
            assert report.success_conditioned_error <= epsilon
            # success probability survives the injection at the claimed floor
            assert report.success_prob >= 1.0 / (121.0 * report.g_grid**2)

    def test_success_flag_consistency(self):
        inst = self._instance(seed=4)
        report = run(inst, RunConfig(T=1.0, epsilon=1e-3, seed=9))
        in_set = report.sampled_index.flat in report.params.success_set()
        assert report.success_flag == in_set

    def test_integrates_the_ode_once(self, monkeypatch):
        # one Problem per run: one trajectory, one block solve, and x(T) from
        # that trajectory, never from a second pass of the oracle
        calls = []

        def counted(name, inner):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return inner(*args, **kwargs)
            return wrapper

        for module, name in ((pipeline, "decay_profile"), (analysis, "forward_substitute"),
                             (pipeline, "reference_solution")):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        report = run(self._instance(seed=7), RunConfig(T=3.0, epsilon=1e-6, seed=2,
                                                       delta_injection="auto"))
        assert report.success_conditioned_error <= 1e-6
        assert calls == ["decay_profile", "forward_substitute"]

    def test_measures_the_norm_once_per_instance(self, norm2_calls):
        # the emulate task: T = 5, 10, 20 on one N=64 instance; |A| is
        # measured into inst.norm_A once, and no solver measures it again
        inst = generate(GenSpec(N=64, kappa_V=3.0, b_mode="random", unit_norm=True))
        norm2_calls.clear()
        for _ in range(2):
            for T in (5.0, 10.0, 20.0):
                run(inst, RunConfig(T=T, epsilon=1e-8, seed=1, delta_injection="auto"))
            assert norm2_calls == [(64, 64)]

    @pytest.mark.parametrize("b_mode", ["zero", "random"])
    def test_errors_match_a_standalone_measure(self, b_mode):
        # measure on the run's own (instance, layout, grid) reproduces the
        # reported distances and draw bitwise
        inst = self._instance(seed=8, b_mode=b_mode)
        report = run(inst, RunConfig(T=2.5, epsilon=1e-6, seed=4,
                                     delta_injection="auto"))
        problem = Problem(inst, report.params, pipeline.grid(inst, 2.5))
        alone = measure(problem, 4, report.injected_delta)
        assert report.fidelity_error == alone.fidelity_error
        assert report.success_conditioned_error == alone.success_conditioned_error
        assert report.sampled_index == alone.sampled_index
        assert np.array_equal(report.output_state, alone.output_state)

    def test_epsilon_validation(self):
        with pytest.raises(ParameterError):
            RunConfig(T=1.0, epsilon=0.9, seed=0)

    def test_no_injection_is_spelled_zero(self):
        # 0.0 is the one "off"; None is not a second spelling of it
        with pytest.raises(ParameterError, match="^delta_injection must be"):
            RunConfig(T=2.0, epsilon=1e-5, seed=11, delta_injection=None)

    def test_json_round_trip(self):
        import json
        inst = self._instance(seed=6)
        report = run(inst, RunConfig(T=1.0, epsilon=1e-3, seed=8,
                                     delta_injection=0.001))
        blob = json.dumps(report.to_json_dict())
        parsed = json.loads(blob)
        assert parsed["params"]["m"] == report.params.m
        assert parsed["success_prob"] == pytest.approx(report.success_prob)


class TestSweep:
    SPEC = GenSpec(N=3, kappa_V=2.0, b_mode="random", seed=4, unit_norm=True)
    GRID = dict(T_values=[1.0, 2.5], epsilon_values=[1e-2, 1e-5, 1e-8],
                kappa_values=[1.5, 3.0], seed=6)

    def test_truncation_grows_slowly(self):
        spec = GenSpec(N=3, kappa_V=2.0, b_mode="random", seed=1,
                       unit_norm=True)
        result = sweep_grid(spec, T_values=[1.0], kappa_values=[2.0],
                           epsilon_values=[1e-2, 1e-4, 1e-6, 1e-8], seed=3)
        assert result["all_passed"]
        rows = result["rows"]
        ks = [row["k"] for row in rows]
        assert ks == sorted(ks)  # k grows as epsilon tightens
        for row in rows:
            assert row["success_conditioned_error"] <= row["epsilon"]

    def test_integrates_once_per_kappa_and_T(self, monkeypatch):
        calls = []
        original = pipeline.decay_profile

        def counted(inst, T, m):
            calls.append((inst.kappa_V, T))
            return original(inst, T, m)

        monkeypatch.setattr(pipeline, "decay_profile", counted)
        result = sweep_grid(self.SPEC, **self.GRID)
        assert len(result["rows"]) == 12
        assert calls == [(1.5, 1.0), (1.5, 2.5), (3.0, 1.0), (3.0, 2.5)]

    @pytest.mark.parametrize("bad", [dict(delta_injection=3.0),
                                     dict(epsilon_values=[1e-2, 3.0])],
                             ids=["inject-delta", "later-epsilon"])
    def test_validates_every_cell_before_generating(self, monkeypatch, bad):
        calls = []
        monkeypatch.setattr(pipeline, "generate",
                            lambda spec: calls.append(spec) or generate(spec))
        with pytest.raises(ParameterError):
            sweep_grid(self.SPEC, **{**self.GRID, **bad})
        assert calls == []

    def test_rows_equal_standalone_runs(self):
        # each cell is built as run() builds it, so every field is bitwise equal
        result = sweep_grid(self.SPEC, **self.GRID)
        rows = iter(result["rows"])
        for kappa in self.GRID["kappa_values"]:
            inst = generate(GenSpec(N=3, kappa_V=kappa, b_mode="random", seed=4,
                                    unit_norm=True))
            for T in self.GRID["T_values"]:
                for epsilon in self.GRID["epsilon_values"]:
                    report = run(inst, RunConfig(T=T, epsilon=epsilon, seed=6,
                                                 delta_injection="auto"))
                    assert next(rows) == {
                        "kappa_V": kappa, "T": T, "epsilon": epsilon,
                        "k": report.params.k, "d": report.params.d,
                        "success_prob": report.success_prob,
                        "fidelity_error": report.fidelity_error,
                        "success_conditioned_error": report.success_conditioned_error,
                        "success_flag": report.success_flag,
                        "passed": report.success_conditioned_error <= epsilon,
                    }
        assert next(rows, None) is None
