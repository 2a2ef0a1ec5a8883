"""Tests for the bound checkers: inverse columns, norms, error, probability."""

import inspect
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import svdvals

from odeql import analysis, encoder, numerics
from odeql.analysis import (
    COLUMN_ENTRY_BOUND,
    BoundReport,
    Problem,
    _require_hypotheses,
    bessel_i0_2,
    column_norm_bound,
    condition_number_bound,
    conditional_distance_bound,
    decay_profile,
    inverse_norm,
    inverse_norm_bound,
    matrix_norm_bounds,
    merge_reports,
    normalized_distance_bound,
    perturbed_amplitude_floor,
    scalar_inverse_columns,
    solution_error_report,
    state_distance_checks,
    success_probability_report,
)
from odeql.encoder import TaylorParams, encode, unit_lower_factor
from odeql.errors import (
    DegenerateInputError,
    DimensionError,
    HypothesisError,
    IntegrityError,
    ParameterError,
)
from odeql.instances import GenSpec, generate
from odeql.numerics import make_instance, reference_trajectory
from odeql.pipeline import RunConfig, choose_parameters, grid, run
from odeql.solver import BlockSolution, block_solve, forward_substitute, generic_solve
from odeql.suites import standard_family

from oracles import component_split


def problem(inst, params):
    """inst under the layout params, with its decay profile on their grid."""
    return Problem(inst, params, decay_profile(inst, params.T, params.m))


class TestConstants:
    def test_bessel_series(self):
        assert bessel_i0_2() == pytest.approx(2.2795853023360673, abs=1e-15)
        assert bessel_i0_2() < 2.28

    def test_entry_bound(self):
        assert COLUMN_ENTRY_BOUND == pytest.approx(math.sqrt(1.04 * math.e))


def scalar_inverse(lam, params):
    """C(lam)^{-1} from the block kernel: N = 1, B = d+1 columns, h = 1."""
    identity = np.eye(params.d + 1, dtype=complex)[:, None, :]
    return block_solve(np.array([[complex(lam)]]), params, identity)[:, 0, :]


class TestScalarInverseColumns:
    def test_lambda_zero_column_zero_norm(self):
        # Hand forward substitution at lambda = 0: ones at the five carrying
        # blocks, norm sqrt(5), against bound sqrt(1.04 e I0(2) * 4) ~ 5.08.
        params = TaylorParams(m=2, k=5, p=2, h=1.0)
        X = scalar_inverse(0.0, params)
        col0 = X[:, 0]
        expected = np.zeros(params.d + 1)
        for flat in (0, 6, 12, 13, 14):  # x_{0,0}, x_{1,0}, x_{2,0..2}
            expected[flat] = 1.0
        np.testing.assert_array_equal(col0, expected)
        assert np.linalg.norm(col0) == pytest.approx(math.sqrt(5.0))
        assert column_norm_bound(2, 2) == pytest.approx(5.077, abs=1e-3)

    def test_last_column_single_entry(self):
        params = TaylorParams(m=2, k=5, p=2, h=1.0)
        X = scalar_inverse(-0.7 + 0.2j, params)
        col = X[:, params.d]
        assert np.linalg.norm(col) == 1.0
        assert col[params.d] == 1.0

    def test_inverse_is_correct(self):
        # C(lam) X == I validates the recurrence solver itself.
        from odeql.encoder import build_matrix
        params = TaylorParams(m=2, k=5, p=3, h=1.0)
        lam = -0.6 + 0.35j
        X = scalar_inverse(lam, params)
        C = build_matrix(sp.csr_matrix(np.array([[lam]])), params).toarray()
        np.testing.assert_allclose(C @ X, np.eye(params.d + 1), atol=1e-12)

    def test_grid_reports_its_worst_lambda(self):
        # one block solve over the grid equals the per-lambda checks, bitwise
        params = TaylorParams(m=3, k=7, p=2, h=1.0)
        lams = [0.0, -1.0, 1j, -0.3 - 0.6j, (-1 + 1j) / math.sqrt(2)]
        singles = [scalar_inverse_columns(lam, params) for lam in lams]
        grid = scalar_inverse_columns(lams, params)
        worst = max(singles, key=lambda r: r.worst_ratio)
        assert grid.instances_checked == len(lams)
        assert (grid.worst_ratio, grid.argmax_instance, grid.details) == (
            worst.worst_ratio, worst.argmax_instance, worst.details)

    def test_minus_one_passes(self):
        report = scalar_inverse_columns(-1.0, TaylorParams(m=3, k=6, p=3, h=1.0))
        assert report.passed
        assert report.verdict == "pass"

    def test_boundary_lambdas_pass(self):
        # |lambda| = 1 with Re(lambda) = 0 is the hardest admissible corner.
        for k in range(5, 13):
            params = TaylorParams(m=4, k=k, p=4, h=1.0)
            for lam in (1j, -1j, 0.0, -1.0, (-1 + 1j) / math.sqrt(2)):
                assert scalar_inverse_columns(lam, params).passed

    def test_hypothesis_errors(self):
        good = TaylorParams(m=2, k=5, p=2, h=1.0)
        with pytest.raises(HypothesisError):
            scalar_inverse_columns(1.5, good)  # |lambda| > 1
        with pytest.raises(HypothesisError):
            scalar_inverse_columns(0.5, good)  # Re > 0
        with pytest.raises(HypothesisError):
            scalar_inverse_columns(-0.5, TaylorParams(m=2, k=4, p=2, h=1.0))
        with pytest.raises(HypothesisError):
            # (k+1)! = 720 < 2m for m = 400
            scalar_inverse_columns(-0.5, TaylorParams(m=400, k=5, p=2, h=0.001))


def small_system(seed=0, N=2, kappa=1.0, m=2, k=5, p=2, b_mode="random"):
    inst = generate(GenSpec(N=N, kappa_V=kappa, b_mode=b_mode, seed=seed,
                            unit_norm=True))
    params = TaylorParams(m=m, k=k, p=p, h=0.95)
    system = encode(inst.A, inst.x_in, inst.b, params)
    return inst, params, system


class TestMatrixNormBounds:
    def test_bound_and_components(self):
        inst, params, system = small_system(seed=1, N=4, m=2, k=5)
        report = matrix_norm_bounds(system)
        assert report.passed
        assert report.details["bound"] == pytest.approx(2.0 * math.sqrt(5))
        assert report.details["component_collector"] == math.sqrt(6.0)
        assert report.details["component_subdiagonal"] == pytest.approx(
            max(params.h * np.linalg.norm(inst.A.toarray(), 2), 1.0), rel=1e-12)
        C1, C2, C3 = component_split(system)
        assert (C1 + C2 + C3 != system.matrix).nnz == 0
        # C2 lives in the collector block rows (i+1)(k+1) and fills them.
        blocks = np.flatnonzero(np.diff(C2.indptr)) // system.N
        np.testing.assert_array_equal(np.unique(blocks),
                                      (np.arange(params.m) + 1) * (params.k + 1))
        assert C2.nnz == params.m * (params.k + 1) * system.N

    def test_zero_generator_component(self):
        params = TaylorParams(m=1, k=5, p=1, h=1.0)
        A = sp.csr_matrix((2, 2), dtype=complex)
        system = encode(A, np.ones(2, dtype=complex), np.zeros(2, dtype=complex),
                        params)
        report = matrix_norm_bounds(system)
        assert report.details["component_subdiagonal"] == pytest.approx(1.0,
                                                                        rel=1e-4)

    # Each tamper keeps C canonical and unit lower triangular: (block row of
    # the changed row's first entry, the array changed, the change).
    TAMPERS = {
        "collector value": (lambda P: 2 * (P.k + 1), "data", lambda v, N: -0.5),
        "collector column": (lambda P: 2 * (P.k + 1), "indices", lambda c, N: c - N),
        "Taylor column": (lambda P: P.k + 3, "indices", lambda c, N: c - 2 * N),
        "copy value": (lambda P: P.d, "data", lambda v, N: -0.5),
        "Taylor value": (lambda P: P.k + 3, "data",
                         lambda v, N: complex(np.nextafter(v.real, np.inf), v.imag)),
    }

    @pytest.mark.parametrize("tamper", TAMPERS)
    def test_tampered_layout_raises(self, tamper):
        inst, params, system = small_system(seed=1, N=4, m=2, k=5)
        block_of, field, change = self.TAMPERS[tamper]
        C = system.matrix
        arrays = {"data": C.data.copy(), "indices": C.indices.copy()}
        entry = C.indptr[block_of(params) * system.N + 1]
        arrays[field][entry] = change(arrays[field][entry], system.N)
        tampered = sp.csr_matrix((arrays["data"], arrays["indices"], C.indptr),
                                 shape=C.shape)
        encoder._check_triangular(tampered)
        with pytest.raises(IntegrityError, match="encoded layout"):
            matrix_norm_bounds(replace(system, matrix=tampered))

    def test_layout_proof_runs_only_in_matrix_norm_bounds(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the layout proof ran outside matrix_norm_bounds")

        monkeypatch.setattr(encoder, "_check_layout", refuse)
        inst, params, system = small_system(seed=2, N=3)
        x = generic_solve(system)
        np.testing.assert_allclose(
            x, forward_substitute(inst.A, params, inst.x_in, inst.b).vector(),
            rtol=0, atol=1e-12)
        assert run(inst, RunConfig(T=1.0, epsilon=1e-3, seed=9)).success_prob > 0

    def test_small_k_not_claimed(self):
        inst, params, system = small_system(k=5)
        bad = TaylorParams(m=2, k=4, p=2, h=0.95)
        bad_system = encode(inst.A, inst.x_in, inst.b, bad)
        with pytest.raises(HypothesisError):
            matrix_norm_bounds(bad_system)


class TestInverseNorm:
    def test_against_dense_svd(self):
        for seed in (0, 1):
            inst, params, system = small_system(seed=seed, N=3, m=2, k=5)
            dense = system.matrix.toarray()
            exact = 1.0 / np.linalg.svd(dense, compute_uv=False)[-1]
            assert inverse_norm(system) == pytest.approx(exact, rel=1e-12)

    def test_scalar_system_against_svd(self):
        # N = 1, lambda = 0, m = p = 1, k = 5: bound 3 sqrt(5) * 2 ~ 13.4.
        params = TaylorParams(m=1, k=5, p=1, h=1.0)
        A = sp.csr_matrix(np.array([[0.0 + 0j]]))
        system = encode(A, np.array([1.0 + 0j]), np.array([0.0 + 0j]), params)
        exact = 1.0 / np.linalg.svd(system.matrix.toarray(),
                                    compute_uv=False)[-1]
        measured = inverse_norm(system)
        assert measured == pytest.approx(exact, rel=1e-12)
        assert measured <= 3.0 * math.sqrt(5.0) * 2.0

    def test_bound_normal_and_conditioned(self):
        for kappa in (1.0, 10.0):
            inst, params, _ = small_system(seed=3, N=4, kappa=kappa)
            report = inverse_norm_bound(problem(inst, params))
            assert report.passed, report.to_json_dict()

    def test_eigenvalue_hypothesis_checked(self):
        # make_instance refuses Re(lambda) > 0, so bypass its validation
        inst = replace(make_instance(np.eye(1), [-0.5], np.zeros(1), np.ones(1)),
                       eigenvalues=np.array([0.5 + 0j]))
        with pytest.raises(HypothesisError):
            inverse_norm_bound(problem(inst, TaylorParams(m=2, k=5, p=2, h=0.95)))

    def test_factor_is_the_matrix_itself(self):
        # the family's largest member: in the natural order with diagonal
        # pivots SuperLU neither permutes nor fills, so L = C and U = I
        member = max(standard_family(0), key=lambda mem: (mem.params.d + 1) * mem.inst.N)
        system = member.system
        assert system.dim == 1680
        lu = unit_lower_factor(system.matrix)
        identity = np.arange(system.dim)
        np.testing.assert_array_equal(lu.perm_r, identity)
        np.testing.assert_array_equal(lu.perm_c, identity)
        assert (lu.U != sp.identity(system.dim)).nnz == 0
        assert (lu.L != system.matrix).nnz == 0

    def test_leaves_the_matrix_untouched(self):
        inst, params, system = small_system(seed=5, N=3)
        C = system.matrix
        before = (C.data.copy(), C.indices.copy(), C.indptr.copy())
        inverse_norm(system)
        for old, new in zip(before, (C.data, C.indices, C.indptr)):
            np.testing.assert_array_equal(old, new)


@pytest.mark.parametrize("m", [1, 4])
@pytest.mark.parametrize("kappa", [1e6, 1e9])
@pytest.mark.parametrize("N", [2, 4, 8])
def test_inverse_norm_and_condition_bounds_at_large_kappa(N, kappa, m):
    # Lemma 2 and Theorem 1 scale with kappa_V; check them where it is large,
    # on the family's layout rule: T a hair under m/||A||, epsilon = 1e-3.
    inst = generate(GenSpec(N=N, kappa_V=kappa, b_mode="random", seed=0,
                            unit_norm=True))
    normA = float(np.linalg.norm(inst.A.toarray(), 2))
    decay = grid(inst, 0.999 * m / normA)
    assert decay.m == m
    params = choose_parameters(inst, decay, 1e-3).params
    large = Problem(inst, params, decay)
    for report in (inverse_norm_bound(large), condition_number_bound(large)):
        assert report.passed, report.to_json_dict()
    system = large.system
    # the dense reference is itself only accurate to ~eps kappa_C
    singular = svdvals(system.matrix.toarray())
    kappa_C = singular[0] / singular[-1]
    assert inverse_norm(system) == pytest.approx(
        1.0 / singular[-1], rel=100 * np.finfo(float).eps * kappa_C, abs=0)


class TestLanczosNorms:
    """The Lanczos path against dense SVDs, and its reproducibility."""

    def test_family_norms_match_dense_svd(self):
        # ||C|| and ||C^-1|| are read from the cached properties the suites use
        checked = 0
        for member in standard_family(0):
            system = member.system
            if system.dim > 432:
                continue
            report = matrix_norm_bounds(system)
            _, C2, C3 = component_split(system)
            singular = svdvals(system.matrix.toarray())
            pairs = (
                (system.norm, singular[0]),
                (report.details["component_collector"], svdvals(C2.toarray())[0]),
                (report.details["component_subdiagonal"], svdvals(C3.toarray())[0]),
                (system.inverse_norm, 1.0 / singular[-1]),
            )
            for measured, exact in pairs:
                assert measured == pytest.approx(exact, rel=1e-12, abs=0)
            checked += 1
        assert checked >= 40

    def test_repeatable_and_leaves_global_rng_alone(self):
        inst, params, system = small_system(seed=2, N=4, kappa=3.0)
        np.random.seed(123)
        before = np.random.get_state()
        first = (matrix_norm_bounds(system).details, inverse_norm(system))
        after = np.random.get_state()
        assert before[0] == after[0]
        np.testing.assert_array_equal(before[1], after[1])
        assert before[2:] == after[2:]
        # a fresh encoding of the same problem measures every norm again
        again = encode(inst.A, inst.x_in, inst.b, params)
        assert (matrix_norm_bounds(again).details, inverse_norm(again)) == first

    def test_system_measures_each_norm_once(self, monkeypatch):
        inst, params, system = small_system(seed=2, N=3)
        calls = []

        def counted(M):
            calls.append(M)
            return numerics.lanczos_norm(M)

        monkeypatch.setattr(encoder, "lanczos_norm", counted)
        singular = svdvals(system.matrix.toarray())
        assert system.norm == pytest.approx(singular[0], rel=1e-12, abs=0)
        assert system.inverse_norm == pytest.approx(1.0 / singular[-1],
                                                    rel=1e-12, abs=0)
        assert system.norm == system.norm
        assert inverse_norm(system) == system.inverse_norm
        assert matrix_norm_bounds(system).details["norm"] == system.norm
        assert len(calls) == 2
        assert calls[0] is system.matrix and not sp.issparse(calls[1])


class TestConditionNumber:
    def test_product_bound_sweep(self):
        for seed, kappa, m in ((0, 1.0, 1), (1, 3.0, 2), (2, 10.0, 4)):
            inst, params, _ = small_system(seed=seed, N=3, kappa=kappa, m=m, p=m)
            report = condition_number_bound(problem(inst, params))
            assert report.passed
            assert report.details["bound"] == pytest.approx(
                6.0 * kappa * params.k * (m + m))

    def test_zero_generator(self):
        inst = make_instance(np.eye(1), [0.0], np.array([0.5]), np.ones(1))
        assert inst.A.nnz == 0
        report = condition_number_bound(problem(inst, TaylorParams(m=2, k=5, p=2, h=1.0)))
        assert report.passed
        assert math.isfinite(report.details["kappa_C"])


class TestSolutionError:
    def test_scalar_frozen_example(self):
        # lambda=-1, h=1, m=1, k=5, b=0: eps_1 = |T_5(-1) - e^-1|, ratio ~ 0.31.
        inst = make_instance(np.eye(1), [-1.0], np.zeros(1), np.ones(1),
                             label="scalar")
        params = TaylorParams(m=1, k=5, p=1, h=1.0)
        report = solution_error_report(problem(inst, params))
        assert report.details["errors"][1] == pytest.approx(
            0.0012127745047756378, abs=1e-14)
        assert report.worst_ratio == pytest.approx(0.31185630122802116, rel=1e-10)
        assert report.passed

    def test_random_conditioned_instances(self):
        for seed in range(4):
            inst = generate(GenSpec(N=4, kappa_V=5.0, b_mode="random",
                                    seed=seed, unit_norm=True))
            params = TaylorParams(m=10, k=7, p=10, h=0.8)
            report = solution_error_report(problem(inst, params))
            assert report.passed, report.to_json_dict()

    def test_monotone_error_growth_homogeneous_normal(self):
        inst = generate(GenSpec(N=4, kappa_V=1.0, b_mode="zero", seed=7,
                                unit_norm=True))
        params = TaylorParams(m=6, k=6, p=2, h=0.9)
        errors = solution_error_report(problem(inst, params)).details["errors"]
        for j in range(len(errors) - 1):
            assert errors[j + 1] >= errors[j] - 1e-10

    def test_hypothesis_rejected(self):
        inst = make_instance(np.eye(1), [-1.0], np.zeros(1), np.ones(1))
        params = TaylorParams(m=1, k=4, p=1, h=1.0)
        with pytest.raises(HypothesisError):
            solution_error_report(problem(inst, params))


class TestSuccessProbability:
    def test_identity_flow_closed_form(self):
        # A = 0, b = 0: every step block equals x_in, Taylor blocks vanish.
        inst = make_instance(np.eye(2), [0.0, 0.0], np.zeros(2),
                             np.array([0.6, 0.8j]), label="flat")
        m = p = 3
        flat = problem(inst, TaylorParams(m=m, k=5, p=p, h=1.0))
        assert flat.decay.g_grid == 1.0
        report = success_probability_report(flat)
        assert report.details["block_ratio"] == pytest.approx(
            1.0 / math.sqrt(m + p + 1))
        assert report.details["success_prob"] == pytest.approx(
            (p + 1) / (m + p + 1))
        assert report.passed
        # p = m puts the squared success probability above 1/(78 g^2)
        assert report.details["success_prob"] >= report.details["success_prob_floor"]

    def test_decaying_scalar(self):
        inst = make_instance(np.eye(1), [-1.0], np.zeros(1), np.ones(1))
        decaying = problem(inst, TaylorParams(m=5, k=9, p=5, h=1.0))
        assert decaying.decay.g_grid > 1.0
        report = success_probability_report(decaying)
        assert report.passed, report.to_json_dict()

    def test_k_condition_enforced(self):
        inst = make_instance(np.eye(1), [-1.0], np.zeros(1), np.ones(1))
        params = TaylorParams(m=5, k=5, p=5, h=1.0)
        # (k+1)! = 720 < 70 * 1 * 5 * 1 / e^-5 ~ 51940
        with pytest.raises(HypothesisError):
            success_probability_report(problem(inst, params))


class TestHypothesisGate:
    """The one gate behind every checker that rests on Lemmas 1-2."""

    def test_bound_hypotheses(self):
        # k >= 5 and (k+1)! >= 2m
        _require_hypotheses(TaylorParams(m=2, k=5, p=2, h=1.0), [])
        with pytest.raises(HypothesisError):
            _require_hypotheses(TaylorParams(m=2, k=4, p=2, h=1.0), [])
        with pytest.raises(HypothesisError):
            _require_hypotheses(TaylorParams(m=400, k=5, p=2, h=0.001), [])

    def test_success_probability_checks_the_eigenvalues(self):
        # lambda = -1, h = 2: |lambda h| = 2, although the truncation
        # condition holds with room to spare at k = 20
        inst = make_instance(np.eye(1), [-1.0], np.zeros(1), np.ones(1))
        with pytest.raises(HypothesisError, match=r"\|lambda h\| > 1"):
            success_probability_report(problem(inst, TaylorParams(m=2, k=20, p=2, h=2.0)))

    def test_step_bar_is_the_encoders_rounding_bar(self):
        # |lambda h| may exceed 1 by the step gate's 1e-12, not by 1e-10
        params = TaylorParams(m=1, k=5, p=1, h=1.0)

        def scalar(lam):
            return problem(make_instance(np.eye(1), [lam], np.zeros(1), np.ones(1)), params)

        assert inverse_norm_bound(scalar(-1.0 - 1e-13)).passed
        with pytest.raises(HypothesisError):
            scalar_inverse_columns(-1.0 - 1e-10, params)
        # the gate runs before the system is built, so the encoder's own
        # step gate (a ParameterError) is never reached
        for check in (inverse_norm_bound, condition_number_bound):
            steep = scalar(-1.0 - 1e-10)
            with pytest.raises(HypothesisError):
                check(steep)
            assert "system" not in vars(steep)
        with pytest.raises(ParameterError):
            steep.system


class TestProblem:
    SCALAR = make_instance(np.eye(1), [-1.0], np.zeros(1), np.ones(1))
    PARAMS = TaylorParams(m=2, k=9, p=2, h=0.5)

    def test_decay_of_another_grid_rejected(self):
        with pytest.raises(DimensionError):
            Problem(self.SCALAR, self.PARAMS, decay_profile(self.SCALAR, self.PARAMS.T, 4))

    def test_decay_of_another_time_grid_rejected(self):
        # Same m, twice the T: the states have the right shape but the wrong
        # times, and would read as an error of 3.1e5 times the bound.
        inst, params = self.SCALAR, self.PARAMS
        with pytest.raises(DimensionError):
            Problem(inst, params, decay_profile(inst, 2 * params.T, params.m))
        assert solution_error_report(problem(inst, params)).passed

    def test_history_not_starting_at_x_in_is_an_integrity_error(self, monkeypatch):
        inst, params = self.SCALAR, self.PARAMS
        sol = forward_substitute(inst.A, params, inst.x_in, inst.b)
        data = sol.data.copy()
        data[0] += 1e-3
        broken = BlockSolution(params=params, data=data)
        monkeypatch.setattr(analysis, "forward_substitute", lambda *args: broken)
        with pytest.raises(IntegrityError):
            solution_error_report(problem(inst, params))

    def test_system_and_solution_are_built_once(self, monkeypatch):
        calls = []

        def counted(name, inner):
            def wrapper(*args):
                calls.append(name)
                return inner(*args)
            return wrapper

        monkeypatch.setattr(analysis, "encode", counted("encode", analysis.encode))
        monkeypatch.setattr(analysis, "forward_substitute",
                            counted("solve", analysis.forward_substitute))
        scalar = problem(self.SCALAR, self.PARAMS)
        assert calls == []
        for check in (inverse_norm_bound, condition_number_bound, solution_error_report,
                      success_probability_report):
            assert check(scalar).passed
        assert matrix_norm_bounds(scalar.system).passed
        assert calls == ["encode", "solve"]

    def test_theorems_2_and_3_read_one_weight(self):
        inst = generate(GenSpec(N=3, kappa_V=2.0, b_mode="random", seed=5, unit_norm=True))
        member = problem(inst, TaylorParams(m=2, k=9, p=2, h=0.5))
        assert member.decay.weight == float(np.linalg.norm(inst.x_in)
                                            + 2 * 0.5 * np.linalg.norm(inst.b))
        assert solution_error_report(member).passed
        assert success_probability_report(member).passed
        # both checkers read the profile's value, not their own copy of the formula
        reweighted = lambda w: replace(member, decay=replace(member.decay, weight=w))
        assert not solution_error_report(reweighted(1e-300)).passed
        with pytest.raises(HypothesisError, match=r"\(k\+1\)! < 70"):
            success_probability_report(reweighted(1e300))

    @pytest.mark.parametrize("check", [inverse_norm_bound, condition_number_bound,
                                       solution_error_report, success_probability_report])
    def test_instance_checkers_take_one_problem(self, check):
        assert list(inspect.signature(check).parameters) == ["problem"]


class TestDecayProfile:
    def test_keeps_its_trajectory(self):
        inst = generate(GenSpec(N=3, kappa_V=2.0, b_mode="random", seed=5,
                                unit_norm=True))
        decay = decay_profile(inst, T=1.5, m=3)
        states = reference_trajectory(inst, 1.5, 3)
        assert np.array_equal(decay.states, states)
        assert np.array_equal(decay.x_T, states[-1])
        assert np.array_equal(decay.step_norms, np.linalg.norm(states, axis=1))

    def test_scalar_exponential_grid(self):
        inst = make_instance(np.eye(1), [-1.0], np.zeros(1), np.ones(1))
        decay = decay_profile(inst, T=2.0, m=2)
        assert decay.g_grid == pytest.approx(math.exp(2.0), rel=1e-12)
        np.testing.assert_allclose(decay.step_norms,
                                   [1.0, math.exp(-1), math.exp(-2)], rtol=1e-12)

    def test_degenerate_final_state(self):
        # x(T) ~ 0: start in the dead direction of a strongly decaying mode.
        inst = make_instance(np.eye(1), [-1.0], np.zeros(1), np.full(1, 1e-200))
        with pytest.raises(DegenerateInputError):
            decay_profile(inst, T=500.0, m=2)
        # x_in = b = 0: x(t) vanishes everywhere
        inst = make_instance(np.eye(2), [-1.0, -0.5], np.zeros(2), np.zeros(2))
        with pytest.raises(DegenerateInputError, match="vanishes"):
            decay_profile(inst, T=1.0, m=2)


class TestStateDistance:
    def test_bulk_random(self):
        reports = state_distance_checks(trials=2000, seed=3)
        assert [r.bound_name for r in reports] == [
            "normalized-distance", "conditional-distance", "amplitude-floor"]
        for r in reports:
            assert r.passed and r.worst_ratio <= 1.0
            assert r.instances_checked == 2000

    def test_predicates_apply_elementwise(self):
        alpha, delta = np.array([0.5, 0.9]), np.array([0.1, 0.3])
        np.testing.assert_allclose(conditional_distance_bound(alpha, delta), [0.5, 1.0])
        np.testing.assert_allclose(perturbed_amplitude_floor(alpha, delta), [0.4, 0.6])
        with pytest.raises(ParameterError):
            perturbed_amplitude_floor(alpha, np.array([0.1, 0.95]))

    def test_unit_circle_closed_form(self):
        # psi = (1,0), phi = (cos t, sin t): normalized distance 2 sin(t/2).
        theta = 0.1
        psi = np.array([1.0, 0.0])
        phi = np.array([math.cos(theta), math.sin(theta)])
        dist = np.linalg.norm(psi - phi)
        gap = np.linalg.norm(psi / np.linalg.norm(psi) - phi / np.linalg.norm(phi))
        assert gap == pytest.approx(2 * math.sin(theta / 2), abs=1e-12)
        assert gap <= normalized_distance_bound(1.0, dist)

    def test_amplitude_floor_example(self):
        assert perturbed_amplitude_floor(0.5, 0.3) == pytest.approx(0.2)

    def test_predicate_domains(self):
        with pytest.raises(ParameterError):
            conditional_distance_bound(0.2, 0.3)
        with pytest.raises(ParameterError):
            normalized_distance_bound(0.0, 0.1)

    def test_trials_validated(self):
        with pytest.raises(ParameterError):
            state_distance_checks(trials=0, seed=0)


class TestBoundReport:
    def test_merge(self):
        a = BoundReport("x", 1, 0.5, "a", {"norm": 1.0})
        b = BoundReport("x", 2, 0.9, "b", {"norm": 2.0})
        merged = merge_reports([a, b])
        assert merged.instances_checked == 3
        assert merged.worst_ratio == 0.9
        assert merged.argmax_instance == "b"
        assert merged.details == {"norm": 2.0, "merged": 2}
        assert merged.passed

    def test_merge_rejects_mixed(self):
        with pytest.raises(ParameterError):
            merge_reports([BoundReport("x", 1, 0.5, "a"),
                           BoundReport("y", 1, 0.5, "b")])

    def test_verdicts(self):
        assert BoundReport("x", 1, 1.5, "a").verdict == "fail"
        assert BoundReport("x", 1, 1.0 + 1e-10, "a").verdict == "pass"
        assert list(BoundReport("x", 1, 0.5, "a").to_json_dict()) == [
            "bound", "instances_checked", "worst_ratio", "argmax_instance", "verdict",
            "details"]
