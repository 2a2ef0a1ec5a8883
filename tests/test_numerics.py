"""Tests for norms, instances and the ODE reference oracle.

Independent oracles used here: an SVD-constructed matrix with known largest
singular value, scipy.linalg.expm, a step-halving RK4 integrator driven
to 1e-12, and the eigenbasis closed form of x(t) (never the code paths
under test).
"""

import math
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
    DENSE_CUTOFF,
    Instance,
    lanczos_norm,
    make_instance,
    reference_solution,
    reference_trajectory,
    spectral_norm,
)
from odeql.solver import forward_substitute
from odeql.taylor import TaylorParams


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

    @pytest.mark.parametrize("tol", [-1e-4, 1.0, math.nan])
    def test_tolerance_outside_zero_one_rejected(self, tol):
        with pytest.raises(ParameterError, match=r"tol must lie in \[0, 1\)"):
            lanczos_norm(sp.identity(4, format="csr"), tol=tol)

    def test_a_loose_tolerance_stays_below_the_norm(self):
        # a Ritz value never exceeds the norm, at any tolerance
        M = sp.random(60, 60, density=0.2, random_state=3, format="csr")
        exact = np.linalg.norm(M.toarray(), 2)
        for tol in (0.0, 1e-4, 0.5):
            assert lanczos_norm(M, tol=tol) <= exact * (1 + 1e-15)


class TestNorm2:
    @pytest.mark.parametrize("N", [8, DENSE_CUTOFF + 44])
    def test_dense_and_csr_on_both_paths(self, N):
        # a permuted diagonal with complex phases: its singular values are
        # the moduli of the diagonal, the largest 2
        rng = np.random.default_rng(N)
        sigma = np.concatenate([[2.0], rng.uniform(0.1, 1.9, N - 1)])
        M = np.zeros((N, N), dtype=complex)
        M[rng.permutation(N), np.arange(N)] = sigma * np.exp(2j * np.pi * rng.uniform(size=N))
        assert numerics.norm2(M) == pytest.approx(2.0, rel=1e-13)
        assert numerics.norm2(sp.csr_matrix(M)) == pytest.approx(2.0, rel=1e-13)

    @pytest.mark.parametrize("N", [3, DENSE_CUTOFF])
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
        N = DENSE_CUTOFF
        assert numerics.norm2(np.zeros((N, N), dtype=complex)) == 0.0
        assert numerics.norm2(sp.csr_matrix((N, N), dtype=complex)) == 0.0
        assert numerics.norm2(sp.csr_matrix(np.zeros((N, N)))) == 0.0

    def test_instance_measures_norm_A_once(self, monkeypatch):
        inst = generate(GenSpec(N=6, kappa_V=3.0, unit_norm=True, seed=2))
        calls = _counting(monkeypatch, "norm2")
        assert inst.norm_A == np.linalg.norm(numerics.as_dense(inst.A), 2)
        assert inst.norm_A == inst.norm_A
        assert calls == [(6, 6)]


def _from_matrix(A, b, x_in):
    """An Instance of dx/dt = A x + b, its eigendecomposition taken by eig."""
    eigenvalues, V = np.linalg.eig(np.asarray(A, dtype=complex))
    return make_instance(V, eigenvalues, b, x_in, A=A)


def _augmented_dense(inst):
    """The dense augmented operator [[A, b], [0, 0]] of an Instance."""
    n = inst.N
    M = np.zeros((n + 1, n + 1), dtype=complex)
    M[:n, :n] = numerics.as_dense(inst.A)
    M[:n, n] = inst.b
    return M


def _expm_oracle(inst, t):
    """x(t) as the leading block of scipy's expm([[A, b], [0, 0]] t) (x_in, 1)."""
    return (sla.expm(_augmented_dense(inst) * t) @ np.append(inst.x_in, 1.0))[:inst.N]


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
        csr = reference_solution(replace(inst, A=numerics.as_csr(inst.A)), 1.0)
        np.testing.assert_allclose(csr, out, rtol=1e-15)


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
        via_expm = sla.expm(numerics.as_dense(inst.A) * t) @ inst.x_in
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
        inst = replace(inst, A=(numerics.as_csr if layout == "csr" else
                                numerics.as_dense)(inst.A))
        T, m = 3.7, 6
        states = reference_trajectory(inst, T, m)
        expected = [inst.x_in]
        for _ in range(m):
            expected.append(reference_solution(replace(inst, x_in=expected[-1]), T / m))
        assert states.tobytes() == np.array(expected).tobytes()


class TestOracleAccuracy:
    """The trajectory against expm of [[A, b], [0, 0]] on both sides of DENSE_CUTOFF."""

    @staticmethod
    def _worst_relative_error(inst, T, m):
        states = reference_trajectory(inst, T, m)
        worst = 0.0
        for i in range(1, m + 1):
            expected = _expm_oracle(inst, i * T / m)
            worst = max(worst, np.linalg.norm(states[i] - expected)
                        / np.linalg.norm(expected))
        return worst

    @pytest.mark.parametrize("N", [DENSE_CUTOFF - 1, DENSE_CUTOFF])
    def test_generated_instance(self, N):
        inst = generate(GenSpec(N=N, kappa_V=3.0, b_mode="random", seed=N,
                                unit_norm=True))
        assert self._worst_relative_error(inst, T=5.0, m=4) <= 1e-13

    @pytest.mark.parametrize("N", [DENSE_CUTOFF - 1, DENSE_CUTOFF])
    def test_dense_row(self, N):
        # one dense row of -3 over a diagonal; with a random b the 1-norm of
        # the augmented operator overstates its 2-norm
        rng = np.random.default_rng(N)
        A = np.diag(-rng.uniform(0.5, 1.5, N)).astype(complex)
        A[0, :] = -3.0
        b = rng.normal(size=N) + 1j * rng.normal(size=N)
        inst = _from_matrix(A, b, rng.normal(size=N) + 0j)
        op = _augmented_dense(inst)
        assert np.linalg.norm(op, 1) > 2 * np.linalg.norm(op, 2)
        assert self._worst_relative_error(inst, T=4.0, m=4) <= 1e-13

    @pytest.mark.parametrize("kappa", [1.0, 1e3, 1e6, 1e9])
    def test_kappa_ladder(self, kappa):
        # one and several substeps per interval, on V of any conditioning
        inst = generate(GenSpec(N=12, kappa_V=kappa, b_mode="random", seed=3,
                                unit_norm=True))
        assert inst.kappa_V == pytest.approx(kappa, rel=1e-6)
        assert max(numerics._oracle_layout(inst, T / m)[0] for T, m in ((7.3, 8), (10.0, 3))) > 1
        for T, m in ((7.3, 8), (10.0, 3)):
            assert self._worst_relative_error(inst, T, m) <= 1e-14

    @pytest.mark.parametrize("N", [64, DENSE_CUTOFF])
    def test_source_enters_every_substep(self, N):
        # s = 3 substeps per interval with b random; at N = 64 the dense
        # operator steps the state, as 64^2 > PROPAGATOR_CROSSOVER m s
        inst = generate(GenSpec(N=N, kappa_V=3.0, b_mode="random", seed=N,
                                unit_norm=True))
        s, _ = numerics._oracle_layout(inst, 6.0 / 2)
        assert s > 1
        assert N ** 2 > numerics.PROPAGATOR_CROSSOVER * 2 * s
        assert self._worst_relative_error(inst, T=6.0, m=2) <= 1e-13

    @pytest.mark.parametrize("m", [4, 5])
    def test_both_dense_paths(self, m, monkeypatch):
        # 41^2 = 1681 lies between 400 m s at m = 4 and m = 5: four intervals
        # step the state, m s kernel solves; five build the propagator, one solve
        inst = generate(GenSpec(N=41, kappa_V=10.0, b_mode="random", seed=5,
                                unit_norm=True))
        s, _ = numerics._oracle_layout(inst, 4.0 / m)
        assert s == 1
        calls = _counting(monkeypatch, "block_solve", numerics)
        assert self._worst_relative_error(inst, T=4.0, m=m) <= 1e-14
        assert len(calls) == (1 if m == 5 else m * s)


class TestOracleLayout:
    """The oracle's kernel layout, fixed from hypot(||A||, ||b||) before any product."""

    @staticmethod
    def _tail(rho, k):
        """The bound rho^(k+1)/(k+1)! (k+2)/(k+2-rho) on exp's series past order k."""
        return rho ** (k + 1) / math.factorial(k + 1) * (k + 2) / (k + 2 - rho)

    @pytest.mark.parametrize("b_mode", ["zero", "random"])
    def test_substeps_and_order(self, b_mode):
        inst = generate(GenSpec(N=6, kappa_V=3.0, b_mode=b_mode, seed=8))
        scale = math.hypot(inst.norm_A, np.linalg.norm(inst.b))
        op = _augmented_dense(inst) if b_mode == "random" else numerics.as_dense(inst.A)
        assert scale >= numerics.norm2(op)
        doubled = replace(inst)
        doubled.__dict__["norm_A"] = 2.0 * inst.norm_A  # a norm estimate that errs high
        for x in np.concatenate([np.linspace(0.05, 7.0, 70), [1.0, 2.0, 4.0, 6.0]]):
            h = x / scale
            s, layout = numerics._oracle_layout(inst, h)
            rho = h * scale / s
            assert s == math.ceil(h * scale / 2) and rho <= 2.0
            assert (layout.m, layout.p, layout.h) == (1, 1, h / s)
            assert self._tail(rho, layout.k) <= 2.0 ** -53 < self._tail(rho, layout.k - 1)
            _, high = numerics._oracle_layout(doubled, h)
            assert self._tail(high.h * numerics.norm2(op), high.k) <= 2.0 ** -53


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
        with pytest.raises(ParameterError, match="A contains non-finite entries"):
            make_instance(V, [-1.0, -0.5], np.zeros(2), np.ones(2),
                          A=np.where(A == 0, np.nan, A))
        with pytest.raises(ParameterError, match="non-finite"):
            make_instance(V + 1.0, [-np.inf, -0.5], np.zeros(2), np.ones(2),
                          A=A)

    def test_zero_V_on_the_lanczos_branch_rejected(self):
        # an all-zero V (say a zeroed V.mtx) is a bad instance, not an ARPACK crash
        N = DENSE_CUTOFF
        with pytest.raises(ParameterError, match=r"\|V V_inv - I\|_max"):
            make_instance(np.zeros((N, N)), -np.ones(N), np.zeros(N), np.ones(N),
                          V_inv=np.eye(N), A=-sp.eye(N), kappa_V=1.0)

    def test_make_instance_builds_A(self):
        inst = make_instance(np.eye(2), [-1.0, -0.5], np.zeros(2), np.ones(2))
        np.testing.assert_allclose(numerics.as_dense(inst.A), np.diag([-1.0, -0.5]),
                                   atol=1e-15)
        assert inst.kappa_V == pytest.approx(1.0)
        assert isinstance(inst, Instance)


def _counting(monkeypatch, name, module=numerics):
    """Record the shape of the first argument of each call to module.name."""
    calls = []
    inner = getattr(module, name)

    def wrapper(M, *args):
        calls.append(M.shape)
        return inner(M, *args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestConditionMeasurement:
    """kappa_V = |V||V_inv| is measured once per instance, on either path."""

    def test_sparse_generate_takes_two_norms(self, monkeypatch):
        calls = _counting(monkeypatch, "norm2")
        generate(GenSpec(N=10, kappa_V=None, sparsity=3, b_mode="random", seed=6))
        assert calls == [(10, 10), (10, 10)]

    @pytest.mark.parametrize("N", [DENSE_CUTOFF - 1, DENSE_CUTOFF])
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
        assert len(lanczos_calls) == (2 if N >= DENSE_CUTOFF else 0)

    def test_a_measured_kappa_never_falls_below_1(self):
        # |V||V_inv| >= |V V_inv| = 1: a product rounded below 1 is recorded as 1
        V_inv = np.eye(2) * np.nextafter(1.0, 0.0)
        assert numerics.norm2(np.eye(2)) * numerics.norm2(V_inv) < 1.0
        inst = make_instance(np.eye(2), [-1.0, -0.5], np.zeros(2), np.ones(2), V_inv=V_inv)
        assert inst.kappa_V == 1.0


def _array_likes(M):
    """M as an ndarray, a nested list and a nested tuple."""
    rows = M.tolist()
    return {"ndarray": M, "list": rows, "tuple": tuple(map(tuple, rows))}


class TestMatrixForms:
    """A dense A is kept dense below DENSE_CUTOFF, whatever array-like it comes as."""

    def _problem(self):
        V = random_unitary(3, np.random.default_rng(4)) * [1.0, 2.0, 0.5]
        lam = np.array([-1.0, -0.25 + 0.5j, -0.5j])
        return V, lam, (V * lam) @ np.linalg.inv(V)

    def test_array_likes_agree_bitwise(self):
        V, lam, A = self._problem()
        params = TaylorParams(m=2, k=6, p=1, h=0.4)
        x_in, b = np.ones(3), np.array([0.5, 0.0, -1.0j])
        seen = {}
        for name, form in _array_likes(A).items():
            csr = numerics.as_csr(form)
            seen[name] = (
                b"".join(a.tobytes() for a in (csr.data, csr.indices, csr.indptr)),
                numerics.norm2(form), spectral_norm(form),
                forward_substitute(form, params, x_in, b).data.tobytes(),
                make_instance(V, lam, b, x_in, A=form).A.tobytes())
        assert seen["list"] == seen["ndarray"] and seen["tuple"] == seen["ndarray"]

    @pytest.mark.parametrize("form", ["ndarray", "list"])
    def test_hostile_dense_A_gets_one_error(self, form):
        V, lam, A = self._problem()
        nan, wide = A.copy(), np.ones((2, 3))
        nan[0, 1] = np.nan
        params = TaylorParams(m=1, k=5, p=1, h=0.1)
        calls = (numerics.as_csr, numerics.as_matrix,
                 lambda M: forward_substitute(M, params, np.ones(3), np.zeros(3)),
                 lambda M: make_instance(V, lam, np.zeros(3), np.ones(3), A=M))
        for call in calls:
            with pytest.raises(ParameterError, match="^A contains non-finite entries$"):
                call(_array_likes(nan)[form])
            with pytest.raises(DimensionError, match=r"^A must be square, got shape \(2, 3\)$"):
                call(_array_likes(wide)[form])
        with pytest.raises(ParameterError, match="non-finite"):
            numerics.norm2(_array_likes(nan)[form])

    def test_the_form_follows_the_input_and_the_cutoff(self):
        # dense stays dense below the cutoff; sparse, or from the cutoff, is CSR
        for N in (DENSE_CUTOFF - 1, DENSE_CUTOFF):
            for A in (np.eye(N), sp.eye(N, format="coo")):
                M = numerics.as_matrix(A)
                assert isinstance(M, np.ndarray) == (N < DENSE_CUTOFF and not sp.issparse(A))
                assert isinstance(M, np.ndarray) or M.format == "csr"
                np.testing.assert_array_equal(numerics.as_dense(M), np.eye(N))
