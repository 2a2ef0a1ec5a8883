"""Tests for the bound checkers: inverse columns, norms, error, probability."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from odeql.analysis import (
    COLUMN_ENTRY_BOUND,
    BoundReport,
    _component_split,
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
from odeql.encoder import TaylorParams, encode
from odeql.errors import DegenerateInputError, HypothesisError, ParameterError
from odeql.instances import GenSpec, generate
from odeql.numerics import make_instance
from odeql.solver import block_solve, forward_substitute


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
        assert report.details["component_collector"] == pytest.approx(
            math.sqrt(6.0), rel=1e-4)
        assert report.details["components_ok"]
        C1, C2, C3 = _component_split(system)
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
            assert inverse_norm(system) == pytest.approx(exact, rel=1e-4)

    def test_scalar_system_against_svd(self):
        # N = 1, lambda = 0, m = p = 1, k = 5: bound 3 sqrt(5) * 2 ~ 13.4.
        params = TaylorParams(m=1, k=5, p=1, h=1.0)
        A = sp.csr_matrix(np.array([[0.0 + 0j]]))
        system = encode(A, np.array([1.0 + 0j]), np.array([0.0 + 0j]), params)
        exact = 1.0 / np.linalg.svd(system.matrix.toarray(),
                                    compute_uv=False)[-1]
        measured = inverse_norm(system)
        assert measured == pytest.approx(exact, rel=1e-5)
        assert measured <= 3.0 * math.sqrt(5.0) * 2.0

    def test_bound_normal_and_conditioned(self):
        for kappa in (1.0, 10.0):
            inst, params, system = small_system(seed=3, N=4, kappa=kappa)
            report = inverse_norm_bound(system, inst.kappa_V, inst.eigenvalues)
            assert report.passed, report.to_json_dict()

    def test_eigenvalue_hypothesis_checked(self):
        inst, params, system = small_system(seed=4)
        with pytest.raises(HypothesisError):
            inverse_norm_bound(system, inst.kappa_V, np.array([0.5 + 0j]))


class TestConditionNumber:
    def test_product_bound_sweep(self):
        for seed, kappa, m in ((0, 1.0, 1), (1, 3.0, 2), (2, 10.0, 4)):
            inst, params, system = small_system(seed=seed, N=3, kappa=kappa,
                                                m=m, p=m)
            report = condition_number_bound(system, inst.kappa_V,
                                            inst.eigenvalues)
            assert report.passed
            assert report.details["bound"] == pytest.approx(
                6.0 * kappa * params.k * (m + m))

    def test_zero_generator(self):
        params = TaylorParams(m=2, k=5, p=2, h=1.0)
        A = sp.csr_matrix((1, 1), dtype=complex)
        system = encode(A, np.array([1.0 + 0j]), np.array([0.5 + 0j]), params)
        report = condition_number_bound(system, 1.0, np.array([0.0 + 0j]))
        assert report.passed
        assert math.isfinite(report.details["kappa_C"])


class TestSolutionError:
    def test_scalar_frozen_example(self):
        # lambda=-1, h=1, m=1, k=5, b=0: eps_1 = |T_5(-1) - e^-1|, ratio ~ 0.31.
        inst = make_instance(np.eye(1), [-1.0], np.zeros(1), np.ones(1),
                             label="scalar")
        params = TaylorParams(m=1, k=5, p=1, h=1.0)
        sol = forward_substitute(inst.A, params, inst.x_in, inst.b)
        report = solution_error_report(inst, params, sol)
        assert report.details["errors"][1] == pytest.approx(
            0.0012127745047756378, abs=1e-14)
        assert report.worst_ratio == pytest.approx(0.31185630122802116, rel=1e-10)
        assert report.passed

    def test_random_conditioned_instances(self):
        for seed in range(4):
            inst = generate(GenSpec(N=4, kappa_V=5.0, b_mode="random",
                                    seed=seed, unit_norm=True))
            params = TaylorParams(m=10, k=7, p=10, h=0.8)
            sol = forward_substitute(inst.A, params, inst.x_in, inst.b)
            report = solution_error_report(inst, params, sol)
            assert report.passed, report.to_json_dict()

    def test_monotone_error_growth_homogeneous_normal(self):
        inst = generate(GenSpec(N=4, kappa_V=1.0, b_mode="zero", seed=7,
                                unit_norm=True))
        params = TaylorParams(m=6, k=6, p=2, h=0.9)
        sol = forward_substitute(inst.A, params, inst.x_in, inst.b)
        errors = solution_error_report(inst, params, sol).details["errors"]
        for j in range(len(errors) - 1):
            assert errors[j + 1] >= errors[j] - 1e-10

    def test_hypothesis_rejected(self):
        inst = make_instance(np.eye(1), [-1.0], np.zeros(1), np.ones(1))
        params = TaylorParams(m=1, k=4, p=1, h=1.0)
        sol = forward_substitute(inst.A, params, inst.x_in, inst.b)
        with pytest.raises(HypothesisError):
            solution_error_report(inst, params, sol)


class TestSuccessProbability:
    def test_identity_flow_closed_form(self):
        # A = 0, b = 0: every step block equals x_in, Taylor blocks vanish.
        inst = make_instance(np.eye(2), [0.0, 0.0], np.zeros(2),
                             np.array([0.6, 0.8j]), label="flat")
        m = p = 3
        params = TaylorParams(m=m, k=5, p=p, h=1.0)
        sol = forward_substitute(inst.A, params, inst.x_in, inst.b)
        decay = decay_profile(inst, params.T, m)
        assert decay.g_grid == 1.0
        report = success_probability_report(inst, params, sol, decay)
        assert report.details["block_ratio"] == pytest.approx(
            1.0 / math.sqrt(m + p + 1))
        assert report.details["success_prob"] == pytest.approx(
            (p + 1) / (m + p + 1))
        assert report.passed
        # p = m puts the squared success probability above 1/(78 g^2)
        assert report.details["success_prob"] >= report.details["success_prob_floor"]

    def test_decaying_scalar(self):
        inst = make_instance(np.eye(1), [-1.0], np.zeros(1), np.ones(1))
        params = TaylorParams(m=5, k=9, p=5, h=1.0)
        sol = forward_substitute(inst.A, params, inst.x_in, inst.b)
        decay = decay_profile(inst, params.T, params.m)
        assert decay.g_grid > 1.0
        report = success_probability_report(inst, params, sol, decay)
        assert report.passed, report.to_json_dict()

    def test_k_condition_enforced(self):
        inst = make_instance(np.eye(1), [-1.0], np.zeros(1), np.ones(1))
        params = TaylorParams(m=5, k=5, p=5, h=1.0)
        sol = forward_substitute(inst.A, params, inst.x_in, inst.b)
        # (k+1)! = 720 < 70 * 1 * 5 * 1 / e^-5 ~ 51940
        with pytest.raises(HypothesisError):
            success_probability_report(inst, params, sol)


class TestDecayProfile:
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


class TestStateDistance:
    def test_bulk_random(self):
        report = state_distance_checks(trials=2000, seed=3)
        assert report["passed"]
        assert not report["violations"]
        for slack in report["worst_slack"].values():
            assert slack >= -1e-12

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
        a = BoundReport("x", 1, 0.5, "a")
        b = BoundReport("x", 2, 0.9, "b")
        merged = merge_reports([a, b])
        assert merged.instances_checked == 3
        assert merged.worst_ratio == 0.9
        assert merged.argmax_instance == "b"
        assert merged.passed

    def test_merge_rejects_mixed(self):
        with pytest.raises(ParameterError):
            merge_reports([BoundReport("x", 1, 0.5, "a"),
                           BoundReport("y", 1, 0.5, "b")])

    def test_verdicts(self):
        assert BoundReport("x", 1, 1.5, "a").verdict == "fail"
        assert BoundReport("x", 1, 0.5, "a", hypotheses_ok=False).verdict == \
            "not claimed"
