"""Tests for norms, the exponential kernel and the ODE reference oracle.

Independent oracles used here: an SVD-constructed matrix with known largest
singular value, scipy.linalg.expm, a step-halving RK4 integrator driven
to 1e-12, and the eigenbasis closed form of x(t) (never the code paths
under test).
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from odeql.errors import DimensionError, ParameterError
from odeql.instances import GenSpec, generate, random_unitary
from odeql.numerics import (
    Instance,
    evolve,
    exp_action,
    make_instance,
    reference_solution,
    reference_trajectory,
    spectral_norm,
)


def rk4_oracle(A, b, x0, t, rel_tol=1e-12):
    """Step-halving classical RK4; independent of every library code path."""
    A = np.asarray(A, dtype=complex)
    b = np.asarray(b, dtype=complex)

    def f(x):
        return A @ x + b

    def integrate(n):
        x = np.asarray(x0, dtype=complex).copy()
        hh = t / n
        for _ in range(n):
            k1 = f(x)
            k2 = f(x + hh / 2 * k1)
            k3 = f(x + hh / 2 * k2)
            k4 = f(x + hh * k3)
            x = x + hh / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        return x

    n = 64
    prev = integrate(n)
    for _ in range(20):
        n *= 2
        cur = integrate(n)
        if np.linalg.norm(cur - prev) <= rel_tol * max(1.0, np.linalg.norm(cur)):
            return cur
        prev = cur
    raise AssertionError("RK4 oracle did not converge")


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0, rel=1e-6)

    def test_diagonal(self):
        assert spectral_norm(np.diag([-0.5, -0.25])) == pytest.approx(0.5, rel=1e-6)

    def test_constructed_svd_8x8(self):
        # Build the matrix from its own SVD factors; top singular value 2.
        rng = np.random.default_rng(7)
        Q1, Q2 = random_unitary(8, rng), random_unitary(8, rng)
        sigma = np.array([2.0, 1.0, 0.9, 0.5, 0.3, 0.2, 0.1, 0.05])
        M = (Q1 * sigma) @ Q2.conj().T
        assert spectral_norm(M, tol=1e-8) == pytest.approx(2.0, rel=1e-7)

    def test_sparse_input(self):
        M = sp.csr_matrix(np.diag([1.0, -3.0, 2.0]).astype(complex))
        assert spectral_norm(M) == pytest.approx(3.0, rel=1e-6)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((4, 4))) == 0.0

    def test_reproducible(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        assert spectral_norm(M) == spectral_norm(M)

    def test_bad_tol_rejected(self):
        with pytest.raises(ParameterError):
            spectral_norm(np.eye(2), tol=0.5)

    def test_nonfinite_rejected(self):
        M = np.eye(2)
        M[0, 1] = np.inf
        with pytest.raises(ParameterError):
            spectral_norm(M)

    def test_nonconvergence_carries_diagnostics(self):
        from odeql.errors import ConvergenceError
        rng = np.random.default_rng(1)
        M = rng.normal(size=(5, 5))
        with pytest.raises(ConvergenceError) as exc:
            spectral_norm(M, tol=1e-6, max_iter=2)
        assert exc.value.last_iterate is not None
        assert exc.value.residual is not None


class TestExpAction:
    def test_t_zero_is_identity(self):
        v = np.array([1.0 + 2j, -0.5, 3j])
        out = exp_action(np.eye(3), 0.0, v)
        np.testing.assert_array_equal(out, v)

    def test_eigenvector(self):
        lam = -0.8 + 0.4j
        A = np.diag([lam, -2.0 + 0j])
        out = exp_action(A, 1.7, np.array([1.0, 0.0]))
        assert out[0] == pytest.approx(np.exp(lam * 1.7), rel=1e-12)
        assert out[1] == 0.0

    def test_anti_hermitian_preserves_norm(self):
        rng = np.random.default_rng(12)
        G = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        A = G - G.conj().T  # anti-Hermitian
        A /= spectral_norm(A, tol=1e-8)
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        out = exp_action(A, 2.3, v)
        assert abs(np.linalg.norm(out) / np.linalg.norm(v) - 1.0) <= 1e-10

    def test_semigroup(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        A /= 2 * spectral_norm(A, tol=1e-8)
        v = rng.normal(size=5) + 1j * rng.normal(size=5)
        tol = 1e-13
        once = exp_action(A, 0.9 + 0.6, v, tol)
        twice = exp_action(A, 0.9, exp_action(A, 0.6, v, tol), tol)
        assert np.linalg.norm(once - twice) <= 10 * tol * np.linalg.norm(once)

    def test_against_scipy_expm(self):
        rng = np.random.default_rng(42)
        for n in (2, 5, 9):
            A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            expected = sla.expm(A * 0.7) @ v
            out = exp_action(A, 0.7, v)
            np.testing.assert_allclose(out, expected, rtol=1e-11, atol=1e-12)

    def test_sparse_matrix(self):
        A = sp.diags([[-1.0, -2.0, -0.5]], [0], format="csr").astype(complex)
        v = np.ones(3, dtype=complex)
        out = exp_action(A, 1.0, v)
        np.testing.assert_allclose(out, np.exp([-1.0, -2.0, -0.5]), rtol=1e-12)


class TestEvolve:
    def test_zero_generator_linear_drift(self):
        b0 = np.array([0.5, -1.0 + 0.5j])
        x0 = np.array([1.0, 2.0 + 0j])
        out = evolve(np.zeros((2, 2)), b0, x0, 2.0)
        np.testing.assert_allclose(out, x0 + 2.0 * b0, rtol=0, atol=1e-13)

    def test_scalar_exponential(self):
        out = evolve(np.array([[-1.0]]), np.array([0.0]), np.array([1.0]), 1.0)
        assert out[0] == pytest.approx(0.36787944117144233, abs=1e-13)

    def test_rk4_oracle_two_by_two(self):
        # Inhomogeneous upper-triangular system checked against step-halving RK4.
        A = np.array([[-1.0, 1.0], [0.0, -0.5]], dtype=complex)
        b = np.array([1.0, 0.0], dtype=complex)
        x0 = np.zeros(2, dtype=complex)
        expected = rk4_oracle(A, b, x0, 1.0)
        out = evolve(A, b, x0, 1.0, tol=1e-13)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-11)

    def test_singular_A_with_inhomogeneity(self):
        # A is nilpotent (singular); the phi-form must still be exact:
        # x(t) = x0 + t b + (t^2/2) A b for A^2 = 0.
        A = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        b = np.array([0.0, 1.0], dtype=complex)
        x0 = np.array([1.0, 0.0], dtype=complex)
        t = 3.0
        expected = x0 + t * b + 0.5 * t**2 * (A @ b)
        np.testing.assert_allclose(evolve(A, b, x0, t), expected, rtol=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            evolve(np.eye(2), np.zeros(3), np.zeros(2), 1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ParameterError):
            evolve(np.eye(2), np.zeros(2), np.ones(2), -1.0)


class TestReferenceSolution:
    def _instance(self, seed=0, b_mode="random"):
        return generate(GenSpec(N=4, kappa_V=2.0, b_mode=b_mode, seed=seed,
                                unit_norm=True))

    def test_oracle_consistency_homogeneous(self):
        inst = self._instance(b_mode="zero")
        t, tol = 1.3, 1e-12
        via_ref = reference_solution(inst, t, tol)
        via_exp = exp_action(inst.A, t, inst.x_in, tol)
        assert np.linalg.norm(via_ref - via_exp) <= 10 * tol * np.linalg.norm(via_ref)

    def test_ode_residual_finite_difference(self):
        # Central difference of x(t) must reproduce A x(t) + b to 1e-6 relative.
        inst = self._instance(seed=3)
        t, dt = 0.9, 1e-5
        x_plus = reference_solution(inst, t + dt)
        x_minus = reference_solution(inst, t - dt)
        derivative = (x_plus - x_minus) / (2 * dt)
        target = inst.A @ reference_solution(inst, t) + inst.b
        assert (np.linalg.norm(derivative - target)
                <= 1e-6 * np.linalg.norm(target))

    def test_t_zero_exact(self):
        inst = self._instance(seed=5)
        np.testing.assert_array_equal(reference_solution(inst, 0.0), inst.x_in)

    def test_tol_validation(self):
        inst = self._instance()
        with pytest.raises(ParameterError):
            reference_solution(inst, 1.0, tol=1e-3)


def closed_form(inst, t):
    """V (e^{Lambda t} V^-1 x_in + t phi_1(Lambda t) V^-1 b), phi_1(0) = 1."""
    z = inst.eigenvalues * t
    safe = np.where(z == 0, 1.0, z)
    phi1 = np.where(z == 0, 1.0, np.expm1(z) / safe)
    return inst.V @ (np.exp(z) * (inst.V_inv @ inst.x_in)
                     + t * phi1 * (inst.V_inv @ inst.b))


class TestReferenceTrajectory:
    def _check_against_closed_form(self, inst, T, m):
        states = reference_trajectory(inst, T, m)
        assert states.shape == (m + 1, inst.N)
        assert states[0].tobytes() == inst.x_in.tobytes()
        expected = np.array([closed_form(inst, i * T / m) for i in range(m + 1)])
        scale = np.linalg.norm(expected, axis=1).max()
        assert np.abs(states - expected).max() <= 1e-12 * scale

    @pytest.mark.parametrize("kappa", [1.0, 3.0, 10.0])
    @pytest.mark.parametrize("b_mode", ["zero", "random"])
    def test_generated_instances(self, kappa, b_mode):
        inst = generate(GenSpec(N=6, kappa_V=kappa, b_mode=b_mode, seed=11,
                                unit_norm=True))
        self._check_against_closed_form(inst, T=4.0, m=7)

    def test_singular_A(self):
        # a zero eigenvalue: A is singular and b drives that mode linearly
        rng = np.random.default_rng(4)
        V = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
        b = rng.normal(size=3) + 1j * rng.normal(size=3)
        inst = make_instance(V, [0.0, -0.5, -0.2 + 0.7j], b, np.ones(3))
        self._check_against_closed_form(inst, T=3.0, m=5)

    def test_m_validated(self):
        inst = make_instance(np.eye(1), [-1.0], np.zeros(1), np.ones(1))
        with pytest.raises(ParameterError):
            reference_trajectory(inst, 1.0, 0)

    @pytest.mark.parametrize("layout", ["csr", "dense"])
    @pytest.mark.parametrize("b_mode", ["zero", "random"])
    def test_bitwise_equal_to_stepping_evolve(self, b_mode, layout):
        # the operator and propagator built once must step exactly like a
        # fresh evolve call per interval, to the last bit
        inst = generate(GenSpec(N=5, kappa_V=3.0, b_mode=b_mode, seed=21,
                                unit_norm=True))
        if layout == "dense":
            inst = replace(inst, A=inst.A.toarray())
        T, m = 3.7, 6
        states = reference_trajectory(inst, T, m)
        expected = [inst.x_in]
        for _ in range(m):
            expected.append(evolve(inst.A, inst.b, expected[-1], T / m))
        assert states.tobytes() == np.array(expected).tobytes()


class TestInstanceValidation:
    def test_positive_real_part_rejected(self):
        with pytest.raises(ParameterError):
            make_instance(np.eye(2), [0.5, -1.0], np.zeros(2), np.ones(2))

    def test_kappa_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            make_instance(np.eye(2), [-1.0, -0.5], np.zeros(2), np.ones(2),
                          kappa_V=5.0)

    def test_make_instance_builds_A(self):
        inst = make_instance(np.eye(2), [-1.0, -0.5], np.zeros(2), np.ones(2))
        np.testing.assert_allclose(inst.A.toarray(), np.diag([-1.0, -0.5]),
                                   atol=1e-15)
        assert inst.kappa_V == pytest.approx(1.0)
        assert isinstance(inst, Instance)
