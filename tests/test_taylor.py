"""Tests for the truncated Taylor polynomials and their remainder bounds.

Oracle: direct partial sums with exact integer factorials, evaluated
term-by-term (independent of the Horner path under test).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odeql import analysis
from odeql.analysis import PASS_SLACK, REMAINDER_ORDERS, verify_remainder_bounds
from odeql.errors import ParameterError
from odeql.taylor import (
    BOUNDARY_CASES,
    MIN_TAIL_ORDER,
    half_disk_samples,
    magnitude_ratio,
    remainder_ratios,
    tail_poly,
    truncated_exp,
)

from oracles import poly_action, truncated_phi


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
    def test_report_passes_and_is_shaped(self, monkeypatch):
        monkeypatch.setattr(analysis, "REMAINDER_ORDERS", range(5, 13))
        reports = verify_remainder_bounds(200, seed=11)
        names = ["exp-remainder", "exp-magnitude", "phi-remainder", "tail-magnitude"]
        # one report per bound and k, k-major
        assert [r.bound_name for r in reports] == names * 8
        for k, r in zip(np.repeat(np.arange(5, 13), 4), reports):
            assert r.passed and r.worst_ratio <= 1.0 + PASS_SLACK
            # 5 boundary cases and 200 draws, times k+1 tail starts b
            points = (k + 1) * 205 if r.bound_name == "tail-magnitude" else 205
            assert r.instances_checked == points
            assert f"k={k}" in r.argmax_instance and r.argmax_instance.startswith("z=")

    def test_remainder_ratios_match_the_differences_where_they_do_not_cancel(self):
        # k <= 8 leaves 1/(k+1)! >= 2.8e-6, far above rounding, so the
        # differences resolve the remainders to ~1e-10
        z = np.array(BOUNDARY_CASES, dtype=complex)
        nonzero = z[z != 0]  # (exp(z)-1)/z has a removable singularity at 0
        for k in range(5, 9):
            scale = math.factorial(k + 1)
            exp_ratio, _ = remainder_ratios(z, k)
            _, phi_ratio = remainder_ratios(nonzero, k)
            np.testing.assert_allclose(
                exp_ratio, scale * np.abs(np.exp(z) - truncated_exp(z, k)), rtol=1e-9)
            np.testing.assert_allclose(
                phi_ratio, scale * np.abs(np.expm1(nonzero) / nonzero
                                          - truncated_phi(nonzero, k)), rtol=1e-9)
            # |T_k| - 1 carries rounding of ~1e-16, so (k+1)! of it ~1e-12
            np.testing.assert_allclose(
                magnitude_ratio(z, k), scale * (np.abs(truncated_exp(z, k)) - 1.0),
                rtol=1e-9, atol=scale * 1e-15)

    def test_remainders_resolved_where_differences_cancel(self, monkeypatch):
        # from k = 17, 1/(k+1)! is below the rounding of e^z - T_k(z); the
        # tail keeps the margin visible, worst at z = +-i
        monkeypatch.setattr(analysis, "REMAINDER_ORDERS", range(17, 21))
        reports = verify_remainder_bounds(500, seed=17)
        assert len(reports) == 4 * 4  # four bounds at each of the four orders
        for r in reports:
            if r.bound_name in ("exp-remainder", "phi-remainder"):
                assert 0.99 <= r.worst_ratio < 1.0

    def test_magnitude_resolved_at_every_order(self):
        # 1 + 1/(k+1)! rounds to 1 from k = 18, where |T_k| over it read 1.0
        # at z = 0; (k+1)! (|T_k| - 1) keeps the margin, worst at z = i
        for r in verify_remainder_bounds(1000, seed=0):
            if r.bound_name == "exp-magnitude":
                assert r.worst_ratio <= 0.9, (r.argmax_instance, r.worst_ratio)

    def test_boundary_cases_present_in_sampling(self):
        # z = i is a Re(z) = 0 boundary point the bounds must cover.
        assert 1j in BOUNDARY_CASES
        err = abs(truncated_exp(1j, 5) - np.exp(1j))
        assert err <= 1.0 / math.factorial(6)

    def test_orders_start_where_the_tail_bound_is_claimed(self):
        # the tail magnitude bound is only claimed from k = 5; the suite
        # checks every order from there to 20
        assert REMAINDER_ORDERS == range(MIN_TAIL_ORDER, 21)

    def test_zero_samples_rejected(self):
        with pytest.raises(ParameterError):
            verify_remainder_bounds(0, seed=0)
