"""Tests for the seeded instance factory."""

import math
import re

import numpy as np
import pytest
import scipy.sparse as sp

from odeql import instances
from odeql.errors import ParameterError
from odeql.instances import KAPPA_V_MAX, GenSpec, generate, random_unitary
from odeql.numerics import DENSE_CUTOFF, as_dense, spectral_norm


class TestFormOfA:
    """Dense mode keeps A as an ndarray below DENSE_CUTOFF; every other A is CSR."""

    def test_dense_mode_below_the_cutoff_is_an_ndarray(self):
        inst = generate(GenSpec(N=8, kappa_V=3.0, seed=1))
        assert isinstance(inst.A, np.ndarray) and inst.A.dtype == complex

    def test_dense_mode_at_the_cutoff_is_csr(self):
        inst = generate(GenSpec(N=DENSE_CUTOFF, kappa_V=3.0, seed=1))
        assert sp.issparse(inst.A) and inst.A.format == "csr"

    def test_sparse_mode_is_csr_at_any_size(self):
        inst = generate(GenSpec(N=16, kappa_V=None, sparsity=3, seed=1))
        assert sp.issparse(inst.A) and inst.A.format == "csr" and inst.A.nnz <= 48


class TestDenseMode:
    def test_scalar_instance(self):
        inst = generate(GenSpec(N=1, kappa_V=1.0, eig_profile="scalar",
                                eig_value=-1.0, seed=0))
        assert inst.kappa_V == 1.0
        assert inst.eigenvalues[0] == -1.0
        np.testing.assert_allclose(as_dense(inst.A), [[-1.0]], atol=1e-15)

    def test_exact_kappa_by_construction(self):
        inst = generate(GenSpec(N=8, kappa_V=10.0, seed=3))
        measured = (np.linalg.norm(inst.V, 2)
                    * np.linalg.norm(inst.V_inv, 2))
        assert abs(measured - 10.0) <= 1e-6 * 10.0

    def test_eigenvalues_in_left_half_disk(self):
        for profile in ("uniform-half-disk", "boundary", "pure-imaginary"):
            inst = generate(GenSpec(N=6, kappa_V=3.0, eig_profile=profile,
                                    seed=1))
            assert np.all(inst.eigenvalues.real <= 1e-15)
            assert np.all(np.abs(inst.eigenvalues) <= 1.0 + 1e-12)

    def test_boundary_profile_on_circle(self):
        inst = generate(GenSpec(N=5, kappa_V=1.0, eig_profile="boundary",
                                seed=2))
        np.testing.assert_allclose(np.abs(inst.eigenvalues), 1.0, atol=1e-12)

    def test_pure_imaginary_profile(self):
        inst = generate(GenSpec(N=5, kappa_V=1.0, eig_profile="pure-imaginary",
                                seed=4))
        np.testing.assert_allclose(inst.eigenvalues.real, 0.0, atol=1e-15)
        # kappa_V = 1 makes A normal, so the flow preserves norms for b = 0
        norm = spectral_norm(as_dense(inst.A))
        assert norm <= 1.0 + 1e-9

    def test_unit_norm_rescaling(self):
        inst = generate(GenSpec(N=6, kappa_V=10.0, seed=5, unit_norm=True))
        assert spectral_norm(as_dense(inst.A), tol=1e-8) <= 1.0 + 1e-9

    def test_deterministic(self):
        a = generate(GenSpec(N=4, kappa_V=2.0, b_mode="random", seed=9))
        b = generate(GenSpec(N=4, kappa_V=2.0, b_mode="random", seed=9))
        np.testing.assert_array_equal(as_dense(a.A), as_dense(b.A))
        np.testing.assert_array_equal(a.x_in, b.x_in)
        np.testing.assert_array_equal(a.b, b.b)

    @pytest.mark.parametrize("kappa", [1e6, 1e9])
    @pytest.mark.parametrize("unit_norm", [False, True])
    def test_ill_conditioned_similarity_generates(self, kappa, unit_norm):
        # |V V_inv - I| is ~N kappa eps_machine here, far above 1e-12
        inst = generate(GenSpec(N=8, kappa_V=kappa, seed=0, unit_norm=unit_norm))
        residual = np.abs(inst.V @ inst.V_inv - np.eye(8)).max()
        assert 1e-12 < residual <= 8 * kappa * np.finfo(float).eps
        measured = (np.linalg.norm(inst.V, 2) * np.linalg.norm(inst.V_inv, 2))
        assert abs(measured - kappa) <= 1e-6 * kappa

    def test_scalar_with_large_kappa_rejected(self):
        with pytest.raises(ParameterError):
            generate(GenSpec(N=1, kappa_V=3.0, seed=0))


class TestSparseMode:
    def test_pattern_and_spectrum(self):
        spec = GenSpec(N=10, kappa_V=None, sparsity=3, seed=6)
        inst = generate(spec)
        dense = as_dense(inst.A)
        row_nnz = (dense != 0).sum(axis=1)
        col_nnz = (dense != 0).sum(axis=0)
        assert row_nnz.max() <= 3
        assert col_nnz.max() <= 3
        assert np.all(inst.eigenvalues.real < 0)
        assert spectral_norm(dense, tol=1e-8) <= 1.0 + 1e-9
        # kappa_V is measured, not prescribed
        measured = (np.linalg.norm(inst.V, 2) * np.linalg.norm(inst.V_inv, 2))
        assert inst.kappa_V == pytest.approx(measured, rel=1e-9)

    def test_rescale_measures_the_sparse_matrix(self, monkeypatch):
        # the power iteration runs on A's stored entries, never a dense copy
        seen, real = [], instances.spectral_norm
        monkeypatch.setattr(instances, "spectral_norm",
                            lambda M, **kw: seen.append(M) or real(M, **kw))
        inst = generate(GenSpec(N=40, kappa_V=None, sparsity=3, seed=5))
        assert len(seen) == 1 and sp.issparse(seen[0])
        assert sp.issparse(inst.A) and inst.A.nnz == seen[0].nnz

    def test_exclusive_modes(self):
        with pytest.raises(ParameterError, match="mutually exclusive"):
            GenSpec(N=6, kappa_V=5.0, sparsity=2, seed=0)

    @pytest.mark.parametrize("dense_only, named", [
        (dict(eig_profile="boundary"), "given: eig_profile$"),
        (dict(eig_value=-0.5), "given: eig_value$"),
        (dict(eig_profile="scalar", eig_value=-0.5), "given: eig_profile, eig_value$")],
        ids=["profile", "value", "both"])
    def test_dense_only_fields_rejected(self, dense_only, named):
        # sparse mode draws its own spectrum: a requested one is refused, not dropped
        with pytest.raises(ParameterError, match=named):
            GenSpec(N=8, kappa_V=None, sparsity=2, **dense_only)
        # unit_norm is not refused: sparse mode rescales whatever it says
        GenSpec(N=8, kappa_V=None, sparsity=2, unit_norm=False)

    def test_one_dimensional_sparse(self):
        inst = generate(GenSpec(N=1, kappa_V=None, sparsity=1, seed=3))
        assert inst.kappa_V == pytest.approx(1.0)
        assert inst.eigenvalues[0].real < 0


class TestSpecValidation:
    @pytest.mark.parametrize("field, value", [
        ("N", 2.5), ("N", np.float64(4.0)), ("N", "3"), ("N", None), ("sparsity", 2.5)])
    def test_non_integer_size_refused_where_it_enters(self, field, value):
        # each used to build a GenSpec and die later in numpy, naming no input
        fields = {"N": 8, "kappa_V": None if field == "sparsity" else 1.0, field: value}
        message = f"^{field} must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(ParameterError, match=message):
            generate(GenSpec(**fields))

    def test_numpy_integer_sizes_accepted(self):
        dense = generate(GenSpec(N=np.int64(3), seed=np.uint8(2)))
        sparse = generate(GenSpec(N=np.int32(6), sparsity=np.int64(2), kappa_V=None))
        assert dense.N == 3 and sparse.N == 6

    def test_bad_profile(self):
        with pytest.raises(ParameterError):
            GenSpec(N=4, eig_profile="spiral")

    def test_scalar_needs_value(self):
        with pytest.raises(ParameterError):
            GenSpec(N=4, eig_profile="scalar")

    @pytest.mark.parametrize("spectrum", [
        dict(eig_profile="scalar"), dict(eig_value=-0.5),
        dict(eig_profile="boundary", eig_value=-0.5),
        dict(eig_profile="pure-imaginary", eig_value=-0.5j)],
        ids=["scalar-without-value", "value-alone", "value-with-boundary",
             "value-with-pure-imaginary"])
    def test_eig_value_given_exactly_with_the_scalar_profile(self, spectrum):
        # a value beside another profile would be dropped without a word
        with pytest.raises(ParameterError, match="^eig_value is given exactly when "
                                                 "eig_profile is 'scalar', got "):
            GenSpec(N=4, **spectrum)

    def test_positive_real_scalar_rejected(self):
        with pytest.raises(ParameterError):
            generate(GenSpec(N=2, kappa_V=1.0, eig_profile="scalar",
                             eig_value=0.5, seed=0))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_parameters_rejected(self, bad):
        with pytest.raises(ParameterError):
            GenSpec(N=2, kappa_V=bad)
        with pytest.raises(ParameterError):
            GenSpec(N=2, eig_profile="scalar", eig_value=complex(-bad, 0.0))

    def test_kappa_above_ceiling_rejected(self):
        # seed 122 at N=2 is the spec whose V V_inv misses validate's bar
        generate(GenSpec(N=2, kappa_V=KAPPA_V_MAX, seed=122))
        for kappa in (1.01 * KAPPA_V_MAX, 1e12):
            with pytest.raises(ParameterError, match="KAPPA_V_MAX"):
                GenSpec(N=2, kappa_V=kappa, seed=122)

    def test_unitary_is_unitary(self):
        rng = np.random.default_rng(0)
        Q = random_unitary(7, rng)
        np.testing.assert_allclose(Q @ Q.conj().T, np.eye(7), atol=1e-12)
