"""Tests for the truncated Taylor polynomials and their remainder bounds.

Oracle: direct partial sums with exact integer factorials, evaluated
term-by-term (independent of the Horner path under test).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odeql.errors import ParameterError
from odeql.taylor import (
    BOUNDARY_CASES,
    half_disk_samples,
    phi1,
    tail_poly,
    truncated_exp,
    truncated_phi,
    verify_remainder_bounds,
)

from oracles import poly_action


def sum_T(z, k):
    return sum(z**j / math.factorial(j) for j in range(k + 1))


def sum_S(z, k):
    return sum(z ** (j - 1) / math.factorial(j) for j in range(1, k + 1))


def sum_tail(z, b, k):
    return sum(math.factorial(b) * z ** (j - b) / math.factorial(j)
               for j in range(b, k + 1))


half_disk_points = st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                                      allow_infinity=False).map(
    lambda z: complex(-abs(z.real), z.imag))


class TestTruncatedExp:
    def test_z_zero_any_k(self):
        for k in (0, 1, 5, 20):
            assert truncated_exp(0.0, k) == 1.0

    def test_minus_one_k2(self):
        assert truncated_exp(-1.0, 2) == pytest.approx(0.5, abs=1e-15)

    def test_minus_one_k5_frozen(self):
        # Partial sum 11/30 and its distance to exp(-1), both under 1/6!.
        val = truncated_exp(-1.0, 5)
        assert val == pytest.approx(0.3666666666666667, abs=1e-15)
        err = abs(val - math.exp(-1.0))
        assert err == pytest.approx(0.0012127745047756378, abs=1e-15)
        assert err <= 1.0 / math.factorial(6)

    def test_matches_direct_sum(self):
        for z in half_disk_samples(25, seed=3):
            for k in (1, 4, 9):
                assert truncated_exp(z, k) == pytest.approx(sum_T(z, k), abs=1e-14)

    def test_negative_order_rejected(self):
        with pytest.raises(ParameterError):
            truncated_exp(1.0, -1)


class TestTruncatedPhi:
    def test_k1_is_one(self):
        for z in (0.0, -1.0, 0.5j, -0.3 + 0.4j):
            assert truncated_phi(z, 1) == 1.0

    def test_z_zero(self):
        for k in (1, 3, 8):
            assert truncated_phi(0.0, k) == 1.0

    def test_minus_one_k5_frozen(self):
        val = truncated_phi(-1.0, 5)
        assert val == pytest.approx(0.6333333333333333, abs=1e-15)
        assert abs(val - (math.exp(-1.0) - 1.0) / (-1.0)) <= 1.0 / math.factorial(6)

    def test_matches_direct_sum(self):
        for z in half_disk_samples(25, seed=4):
            for k in (1, 4, 9):
                assert truncated_phi(z, k) == pytest.approx(sum_S(z, k), abs=1e-14)

    def test_order_zero_rejected(self):
        with pytest.raises(ParameterError):
            truncated_phi(1.0, 0)


class TestTailPoly:
    def test_b_equals_k(self):
        assert tail_poly(-0.7 + 0.1j, 6, 6) == 1.0

    def test_b_zero_reduces_to_truncated_exp(self):
        z = -1.0
        assert tail_poly(z, 0, 2) == pytest.approx(0.5, abs=1e-15)
        for k in (3, 7):
            assert tail_poly(z, 0, k) == truncated_exp(z, k)

    def test_two_terms(self):
        z = -0.3 + 0.2j
        for k in (5, 9):
            assert tail_poly(z, k - 1, k) == pytest.approx(1 + z / k, abs=1e-15)

    def test_matches_direct_sum(self):
        for z in half_disk_samples(10, seed=5):
            for k in (5, 8):
                for b in range(k + 1):
                    assert tail_poly(z, b, k) == pytest.approx(
                        sum_tail(z, b, k), abs=1e-13)

    def test_b_above_k_rejected(self):
        with pytest.raises(ParameterError):
            tail_poly(0.5, 4, 3)


@given(z=half_disk_points, k=st.integers(min_value=1, max_value=20))
@settings(max_examples=300, deadline=None)
def test_phi_exp_identity(z, k):
    # z S_k(z) + 1 == T_k(z) as polynomials.
    assert abs(z * truncated_phi(z, k) + 1.0 - truncated_exp(z, k)) <= 1e-14


@given(z=half_disk_points, k=st.integers(min_value=5, max_value=12),
       data=st.data())
@settings(max_examples=300, deadline=None)
def test_tail_partial_sum_identity(z, k, data):
    # T_{b,k}(z) z^b / b! equals the bare partial sum over j = b..k.
    b = data.draw(st.integers(min_value=0, max_value=k))
    lhs = tail_poly(z, b, k) * z**b / math.factorial(b)
    rhs = sum(z**j / math.factorial(j) for j in range(b, k + 1))
    assert abs(lhs - rhs) <= 1e-14


class TestPolyAction:
    """The Horner oracle of tests/oracles.py against the scalar polynomials."""

    def test_zero_matrix_is_identity_for_both_kinds(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=5) + 1j * rng.normal(size=5)
        A = np.zeros((5, 5), dtype=complex)
        np.testing.assert_allclose(poly_action(A, 0.3, v, "T", 6), v, atol=1e-15)
        np.testing.assert_allclose(poly_action(A, 0.3, v, "S", 6), v, atol=1e-15)

    def test_dimension_one_matches_scalars(self):
        lam, h = -0.6 + 0.3j, 0.8
        A = np.array([[lam]])
        v = np.array([1.0 + 0.5j])
        for k in (1, 5, 9):
            assert poly_action(A, h, v, "T", k)[0] == pytest.approx(
                truncated_exp(lam * h, k) * v[0], abs=1e-14)
            assert poly_action(A, h, v, "S", k)[0] == pytest.approx(
                truncated_phi(lam * h, k) * v[0], abs=1e-14)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            poly_action(np.eye(2), 0.1, np.ones(2), "R", 3)


class TestRemainderBounds:
    def test_report_passes_and_is_shaped(self):
        report = verify_remainder_bounds(200, (5, 12), seed=11)
        assert report["passed"]
        assert not report["violations"]
        for entry in report["bounds"].values():
            assert entry["worst_slack"] >= -1e-12
            assert {"z_re", "z_im", "k"} <= set(entry["argmax"])

    def test_boundary_cases_present_in_sampling(self):
        # z = i is a Re(z) = 0 boundary point the bounds must cover.
        assert 1j in BOUNDARY_CASES
        err = abs(truncated_exp(1j, 5) - np.exp(1j))
        assert err <= 1.0 / math.factorial(6)

    def test_small_k_rejected_at_api_boundary(self):
        with pytest.raises(ParameterError):
            verify_remainder_bounds(10, (4, 8), seed=0)

    def test_zero_samples_rejected(self):
        with pytest.raises(ParameterError):
            verify_remainder_bounds(0, (5, 8), seed=0)

    def test_phi1_series_switch_is_smooth(self):
        # 25-term series is exact to double precision for |z| <= 0.5.
        def oracle(z):
            return sum(complex(z) ** j / math.factorial(j + 1) for j in range(25))

        for z in (1e-9, -1e-9 + 1e-10j, 5e-9j):  # series branch: tight
            assert phi1(z) == pytest.approx(oracle(z), rel=1e-13)
        # closed-form branch loses ~eps/|z| to cancellation near the switch
        assert phi1(1e-7) == pytest.approx(oracle(1e-7), rel=1e-8)
        assert phi1(-0.5) == pytest.approx(oracle(-0.5), rel=1e-14)
