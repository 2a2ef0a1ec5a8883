"""Tests for norms, instances and the ODE reference oracle.

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
from scipy.sparse.linalg import LinearOperator

from odeql import numerics
from odeql.errors import DimensionError, ParameterError
from odeql.instances import GenSpec, generate, random_unitary
from odeql.numerics import (
    LANCZOS_CUTOFF,
    Instance,
    lanczos_norm,
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


class TestLanczosNorm:
    def test_constructed_svd_sparse_and_operator(self):
        # Top two singular values 1e-9 apart: Lanczos still resolves the top.
        rng = np.random.default_rng(7)
        Q1, Q2 = random_unitary(8, rng), random_unitary(8, rng)
        sigma = np.array([2.0, 2.0 - 1e-9, 0.9, 0.5, 0.3, 0.2, 0.1, 0.05])
        M = (Q1 * sigma) @ Q2.conj().T
        assert lanczos_norm(sp.csr_matrix(M)) == pytest.approx(2.0, rel=1e-13)
        op = LinearOperator(M.shape, dtype=complex, matvec=lambda x: M @ x,
                            rmatvec=lambda y: M.conj().T @ y)
        assert lanczos_norm(op) == pytest.approx(2.0, rel=1e-13)


class TestNorm2:
    @pytest.mark.parametrize("N", [8, LANCZOS_CUTOFF + 44])
    def test_dense_and_csr_on_both_paths(self, N):
        # a permuted diagonal with complex phases: its singular values are
        # the moduli of the diagonal, the largest 2
        rng = np.random.default_rng(N)
        sigma = np.concatenate([[2.0], rng.uniform(0.1, 1.9, N - 1)])
        M = np.zeros((N, N), dtype=complex)
        M[rng.permutation(N), np.arange(N)] = sigma * np.exp(2j * np.pi * rng.uniform(size=N))
        assert numerics.norm2(M) == pytest.approx(2.0, rel=1e-13)
        assert numerics.norm2(sp.csr_matrix(M)) == pytest.approx(2.0, rel=1e-13)

    @pytest.mark.parametrize("N", [3, LANCZOS_CUTOFF])
    def test_non_finite_rejected(self, N):
        M = np.eye(N, dtype=complex)
        M[0, 1] = np.nan
        for matrix in (M, sp.csr_matrix(M)):
            with pytest.raises(ParameterError, match="non-finite"):
                numerics.norm2(matrix)

    def test_zero_matrix_is_zero_without_arpack(self, monkeypatch):
        def no_arpack(M):
            raise AssertionError("ARPACK called on a zero matrix")

        monkeypatch.setattr(numerics, "lanczos_norm", no_arpack)
        N = LANCZOS_CUTOFF
        assert numerics.norm2(np.zeros((N, N), dtype=complex)) == 0.0
        assert numerics.norm2(sp.csr_matrix((N, N), dtype=complex)) == 0.0
        assert numerics.norm2(sp.csr_matrix(np.zeros((N, N)))) == 0.0

    def test_instance_measures_norm_A_once(self, monkeypatch):
        inst = generate(GenSpec(N=6, kappa_V=3.0, unit_norm=True, seed=2))
        calls = _counting(monkeypatch, "norm2")
        assert inst.norm_A == np.linalg.norm(inst.A.toarray(), 2)
        assert inst.norm_A == inst.norm_A
        assert calls == [(6, 6)]


def _from_matrix(A, b, x_in):
    """An Instance of dx/dt = A x + b, its eigendecomposition taken by eig."""
    eigenvalues, V = np.linalg.eig(np.asarray(A, dtype=complex))
    return make_instance(V, eigenvalues, b, x_in, A=A)


def _expm_oracle(inst, t):
    """x(t) as the leading block of scipy's expm([[A, b], [0, 0]] t) (x_in, 1)."""
    n = inst.N
    M = np.zeros((n + 1, n + 1), dtype=complex)
    M[:n, :n] = inst.A.toarray()
    M[:n, n] = inst.b
    return (sla.expm(M * t) @ np.append(inst.x_in, 1.0))[:n]


class TestExpAction:
    """The homogeneous flow x(t) = exp(At) x_in through the oracle (b = 0)."""

    def test_t_zero_is_identity(self):
        inst = make_instance(np.eye(3), [-1.0, -0.5, -0.2j], np.zeros(3),
                             np.array([1.0 + 2j, -0.5, 3j]))
        out = reference_solution(inst, 0.0)
        np.testing.assert_array_equal(out, inst.x_in)

    def test_eigenvector(self):
        lam = -0.8 + 0.4j
        inst = make_instance(np.eye(2), [lam, -2.0], np.zeros(2), np.array([1.0, 0.0]))
        out = reference_solution(inst, 1.7)
        assert out[0] == pytest.approx(np.exp(lam * 1.7), rel=1e-12)
        assert out[1] == 0.0

    def test_anti_hermitian_preserves_norm(self):
        # a pure-imaginary spectrum with unitary V (kappa_V = 1) is a unitary flow
        rng = np.random.default_rng(12)
        inst = make_instance(random_unitary(6, rng), 1j * rng.uniform(-1, 1, size=6),
                             np.zeros(6), rng.normal(size=6) + 1j * rng.normal(size=6))
        assert inst.kappa_V == pytest.approx(1.0)
        out = reference_solution(inst, 2.3)
        assert abs(np.linalg.norm(out) / np.linalg.norm(inst.x_in) - 1.0) <= 1e-10

    def test_semigroup(self):
        # two intervals of the trajectory reach what one interval does
        inst = generate(GenSpec(N=5, kappa_V=4.0, seed=5, unit_norm=True))
        once = reference_trajectory(inst, 0.9 + 0.6, 1)[-1]
        twice = reference_trajectory(inst, 0.9 + 0.6, 2)[-1]
        assert np.linalg.norm(once - twice) <= 1e-12 * np.linalg.norm(once)

    def test_against_scipy_expm(self):
        for n in (2, 5, 9):
            inst = generate(GenSpec(N=n, kappa_V=3.0, b_mode="random", seed=42,
                                    unit_norm=True))
            np.testing.assert_allclose(reference_solution(inst, 0.7),
                                       _expm_oracle(inst, 0.7), rtol=1e-11, atol=1e-12)

    def test_sparse_matrix(self):
        # a CSR and a dense A give the same state
        inst = make_instance(np.eye(3), [-1.0, -2.0, -0.5], np.zeros(3), np.ones(3))
        out = reference_solution(inst, 1.0)
        np.testing.assert_allclose(out, np.exp([-1.0, -2.0, -0.5]), rtol=1e-12)
        dense = reference_solution(replace(inst, A=inst.A.toarray()), 1.0)
        np.testing.assert_allclose(dense, out, rtol=1e-15)


class TestEvolve:
    """The inhomogeneous flow through the oracle, and its argument checks."""

    def test_zero_generator_linear_drift(self):
        b0 = np.array([0.5, -1.0 + 0.5j])
        x0 = np.array([1.0, 2.0 + 0j])
        inst = make_instance(np.eye(2), [0.0, 0.0], b0, x0)
        out = reference_solution(inst, 2.0)
        np.testing.assert_allclose(out, x0 + 2.0 * b0, rtol=0, atol=1e-13)

    def test_scalar_exponential(self):
        inst = make_instance(np.eye(1), [-1.0], np.zeros(1), np.ones(1))
        out = reference_solution(inst, 1.0)
        assert out[0] == pytest.approx(0.36787944117144233, abs=1e-13)

    def test_rk4_oracle_two_by_two(self):
        # Inhomogeneous upper-triangular system checked against step-halving RK4.
        A = np.array([[-1.0, 1.0], [0.0, -0.5]], dtype=complex)
        b = np.array([1.0, 0.0], dtype=complex)
        x0 = np.zeros(2, dtype=complex)
        expected = rk4_oracle(A, b, x0, 1.0)
        out = reference_solution(_from_matrix(A, b, x0), 1.0)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-11)

    def test_dimension_mismatch(self):
        inst = make_instance(np.eye(2), [-1.0, -0.5], np.zeros(2), np.ones(2))
        with pytest.raises(DimensionError):
            reference_solution(replace(inst, b=np.ones(3)), 1.0)

    def test_negative_time_rejected(self):
        inst = make_instance(np.eye(2), [-1.0, -0.5], np.zeros(2), np.ones(2))
        with pytest.raises(ParameterError):
            reference_solution(inst, -1.0)


class TestReferenceSolution:
    def _instance(self, seed=0, b_mode="random"):
        return generate(GenSpec(N=4, kappa_V=2.0, b_mode=b_mode, seed=seed,
                                unit_norm=True))

    def test_oracle_consistency_homogeneous(self):
        inst = self._instance(b_mode="zero")
        t = 1.3
        via_ref = reference_solution(inst, t)
        via_expm = sla.expm(inst.A.toarray() * t) @ inst.x_in
        assert np.linalg.norm(via_ref - via_expm) <= 1e-12 * np.linalg.norm(via_ref)

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
        # fresh one-interval oracle call per interval, to the last bit
        inst = generate(GenSpec(N=5, kappa_V=3.0, b_mode=b_mode, seed=21,
                                unit_norm=True))
        if layout == "dense":
            inst = replace(inst, A=inst.A.toarray())
        T, m = 3.7, 6
        states = reference_trajectory(inst, T, m)
        expected = [inst.x_in]
        for _ in range(m):
            expected.append(reference_solution(replace(inst, x_in=expected[-1]), T / m))
        assert states.tobytes() == np.array(expected).tobytes()


class TestInstanceValidation:
    def test_positive_real_part_rejected(self):
        with pytest.raises(ParameterError):
            make_instance(np.eye(2), [0.5, -1.0], np.zeros(2), np.ones(2))

    def test_kappa_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            make_instance(np.eye(2), [-1.0, -0.5], np.zeros(2), np.ones(2),
                          kappa_V=5.0)

    def test_inverse_residual_tolerance_stays_tight_when_well_conditioned(self):
        # kappa = 1: N kappa eps_machine is far below 1e-12, which still applies
        with pytest.raises(ParameterError, match="exceeds 1e-12"):
            make_instance(np.eye(2), [-1.0, -0.5], np.zeros(2), np.ones(2),
                          V_inv=np.eye(2) + 1e-10)

    def test_inconsistent_or_non_finite_decomposition_rejected(self):
        V = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        A = (V * np.array([-1.0, -0.5])) @ np.linalg.inv(V)
        with pytest.raises(ParameterError, match=r"\|A V - V diag"):
            make_instance(V, [-1.0, -0.5], np.zeros(2), np.ones(2),
                          A=A + 1e-6 * np.eye(2))
        with pytest.raises(ParameterError, match=r"\|A V - V diag"):
            make_instance(V, [-1.0, -0.5], np.zeros(2), np.ones(2),
                          A=np.where(A == 0, np.nan, A))
        with pytest.raises(ParameterError, match="non-finite"):
            make_instance(V + 1.0, [-np.inf, -0.5], np.zeros(2), np.ones(2),
                          A=A)

    def test_zero_V_on_the_lanczos_branch_rejected(self):
        # an all-zero V (say a zeroed V.mtx) is a bad instance, not an ARPACK crash
        N = LANCZOS_CUTOFF
        with pytest.raises(ParameterError, match=r"\|V V_inv - I\|_max"):
            make_instance(np.zeros((N, N)), -np.ones(N), np.zeros(N), np.ones(N),
                          V_inv=np.eye(N), A=-sp.eye(N), kappa_V=1.0)

    def test_make_instance_builds_A(self):
        inst = make_instance(np.eye(2), [-1.0, -0.5], np.zeros(2), np.ones(2))
        np.testing.assert_allclose(inst.A.toarray(), np.diag([-1.0, -0.5]),
                                   atol=1e-15)
        assert inst.kappa_V == pytest.approx(1.0)
        assert isinstance(inst, Instance)


def _counting(monkeypatch, name):
    calls = []
    inner = getattr(numerics, name)

    def wrapper(M):
        calls.append(M.shape)
        return inner(M)

    monkeypatch.setattr(numerics, name, wrapper)
    return calls


class TestConditionMeasurement:
    """kappa_V = |V||V_inv| is measured once per instance, on either path."""

    def test_sparse_generate_takes_two_norms(self, monkeypatch):
        calls = _counting(monkeypatch, "norm2")
        generate(GenSpec(N=10, kappa_V=None, sparsity=3, b_mode="random", seed=6))
        assert calls == [(10, 10), (10, 10)]

    @pytest.mark.parametrize("N", [LANCZOS_CUTOFF - 1, LANCZOS_CUTOFF])
    def test_known_singular_values_on_both_paths(self, monkeypatch, N):
        lanczos_calls = _counting(monkeypatch, "lanczos_norm")
        rng = np.random.default_rng(N)
        sigma = np.concatenate([[40.0], rng.uniform(0.5, 40.0, N - 2), [0.5]])
        Q1 = random_unitary(N, rng)
        Q2 = random_unitary(N, rng)
        V = (Q1 * sigma) @ Q2.conj().T
        V_inv = (Q2 / sigma) @ Q1.conj().T
        eigenvalues = -rng.uniform(0.1, 1.0, N)
        inst = make_instance(V, eigenvalues, np.zeros(N), np.ones(N), V_inv=V_inv)
        assert inst.kappa_V == pytest.approx(80.0, rel=1e-12, abs=0)
        assert len(lanczos_calls) == (2 if N >= LANCZOS_CUTOFF else 0)
