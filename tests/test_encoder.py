"""Tests for the block matrix construction, layout math and state preparation."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from odeql import encoder
from odeql.encoder import (
    TaylorParams,
    build_matrix,
    build_rhs,
    encode,
)
from odeql.errors import (
    DimensionError,
    IntegrityError,
    ParameterError,
)
from odeql.analysis import matrix_norm_bounds
from odeql.instances import GenSpec, generate, random_unitary
from odeql.numerics import norm2
from odeql.solver import forward_substitute, generic_solve
from odeql.taylor import BlockIndex

from oracles import simulate_state_prep


def expected_block_matrix(A: np.ndarray, params: TaylorParams) -> np.ndarray:
    """Independent dense construction straight from the block layout.

    Identity diagonal, -(Ah)/j below each Taylor block, -I collectors under
    all k+1 blocks of each step, -I copy rows for the padding. Coefficients
    are formed as A * (-h/j), matching exact floating point.
    """
    m, k, p, h = params.m, params.k, params.p, params.h
    N = A.shape[0]
    d = params.d
    out = np.zeros(((d + 1) * N, (d + 1) * N), dtype=complex)

    def put(row_block, col_block, block):
        out[row_block * N:(row_block + 1) * N,
            col_block * N:(col_block + 1) * N] += block

    for l in range(d + 1):
        put(l, l, np.eye(N))
    for i in range(m):
        for j in range(1, k + 1):
            put(i * (k + 1) + j, i * (k + 1) + j - 1, A * (-h / j))
        for j in range(k + 1):
            put((i + 1) * (k + 1), i * (k + 1) + j, -np.eye(N))
    for l in range(d - p + 1, d + 1):
        put(l, l - 1, -np.eye(N))
    return out


class TestTaylorParams:
    def test_d_formula(self):
        params = TaylorParams(m=2, k=3, p=2, h=0.5)
        assert params.d == 2 * 4 + 2 == 10
        assert params.T == pytest.approx(1.0)

    def test_flat_block_round_trip(self):
        params = TaylorParams(m=3, k=4, p=2, h=1.0)
        for flat in range(params.d + 1):
            idx = params.block(flat)
            assert params.flat(idx.i, idx.j) == flat
        assert params.block(params.d) == BlockIndex(i=3, j=2, flat=params.d)

    def test_success_set(self):
        params = TaylorParams(m=2, k=3, p=2, h=1.0)
        assert list(params.success_set()) == [8, 9, 10]

    def test_validation(self):
        with pytest.raises(ParameterError):
            TaylorParams(m=0, k=3, p=1, h=1.0)
        with pytest.raises(ParameterError):
            TaylorParams(m=1, k=3, p=1, h=-1.0)
        with pytest.raises(DimensionError):
            TaylorParams(m=1, k=3, p=1, h=1.0).flat(0, 4)

    @pytest.mark.parametrize("h", [np.float32(0.5), np.float16(0.5), np.float64(0.5),
                                   np.int64(1), np.uint8(1), 0.5, 1])
    def test_h_accepts_any_real_scalar_and_holds_a_float(self, h):
        params = TaylorParams(m=1, k=5, p=1, h=h)
        # a float32 h kept as such would round h/j to single precision
        assert type(params.h) is float and params.h == float(h)

    @pytest.mark.parametrize("h", [True, np.bool_(True), np.float32("nan"), np.inf,
                                   np.float64(0.0), -1, "0.5", 0.5j])
    def test_h_refuses_a_bool_or_non_positive_or_non_real(self, h):
        with pytest.raises(ParameterError, match="^h must be a positive finite real"):
            TaylorParams(m=1, k=5, p=1, h=h)


class TestBuildMatrix:
    def test_printed_layout_2_3_2_scalar(self):
        # The eleven-block-row system with coefficients -Ah/2, -Ah/3 and two
        # collector rows, reproduced entrywise for N = 1.
        a, h = -0.5, 1.0
        params = TaylorParams(m=2, k=3, p=2, h=h)
        A = sp.csr_matrix(np.array([[a]], dtype=complex))
        C = build_matrix(A, params, norm2(A))
        np.testing.assert_array_equal(
            C.toarray(), expected_block_matrix(np.array([[a]]), params))

    @pytest.mark.parametrize("m, k, p", [(1, 1, 1), (2, 3, 2), (3, 5, 1), (1, 6, 4)])
    def test_printed_layout_2_3_2_matrix(self, m, k, p):
        # The printed layout and three others, with one explicitly stored
        # zero in A, which the -(Ah)/j blocks must keep as a structural entry.
        rng = np.random.default_rng(17)
        N = 3
        dense = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
        dense /= 2.0 * np.linalg.norm(dense, 2)
        A = sp.csr_matrix(dense)
        A.data[4] = 0.0
        dense = A.toarray()
        params = TaylorParams(m=m, k=k, p=p, h=1.0)
        C = build_matrix(A, params, norm2(A))
        np.testing.assert_array_equal(C.toarray(),
                                      expected_block_matrix(dense, params))
        assert C.has_sorted_indices
        system = encode(A, np.ones(N, dtype=complex), np.zeros(N, dtype=complex),
                        params)
        assert system.matrix.nnz == system.expected_nnz

    def test_single_entry_value(self):
        # N=1, lambda=-1, h=1, m=1, k=5, p=1: row 2 holds -lambda h/2 = +0.5.
        params = TaylorParams(m=1, k=5, p=1, h=1.0)
        C = build_matrix(sp.csr_matrix(np.array([[-1.0 + 0j]])), params, 1.0)
        assert C[2, 1] == 0.5
        assert C[3, 2] == pytest.approx(1.0 / 3.0)

    def test_zero_generator_structure(self):
        params = TaylorParams(m=2, k=3, p=1, h=1.0)
        A = sp.csr_matrix((2, 2), dtype=complex)
        C = build_matrix(A, params, norm2(A))
        dense = C.toarray()
        np.testing.assert_array_equal(np.diag(dense), np.ones(C.shape[0]))
        # only collector and padding entries beside the diagonal
        off = dense - np.diag(np.diag(dense))
        assert set(np.unique(off)) <= {0.0 + 0j, -1.0 + 0j}

    def test_nnz_formula_random_sparse(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            N = int(rng.integers(2, 9))
            density = rng.uniform(0.1, 0.6)
            A = sp.random(N, N, density=density,
                          random_state=np.random.RandomState(trial), dtype=float)
            A = sp.csr_matrix(A.astype(complex))
            norm = np.linalg.norm(A.toarray(), 2)
            h = 0.9 / norm if norm > 0 else 1.0
            params = TaylorParams(m=3, k=6, p=2, h=h)
            system = encode(A, np.ones(N, dtype=complex),
                            np.zeros(N, dtype=complex), params)
            assert system.matrix.nnz == system.expected_nnz

    def test_lower_triangular_unit_diagonal(self):
        rng = np.random.default_rng(9)
        N = 4
        dense = (rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))) / 8
        params = TaylorParams(m=2, k=5, p=3, h=1.0)
        C = build_matrix(sp.csr_matrix(dense), params, norm2(dense))
        rows = np.repeat(np.arange(C.shape[0]), np.diff(C.indptr))
        assert np.all(C.indices <= rows)
        diag = C.diagonal()
        np.testing.assert_array_equal(diag, np.ones(C.shape[0]))

    def test_scale_equivariance_in_h(self):
        rng = np.random.default_rng(2)
        dense = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))) / 6
        params_a = TaylorParams(m=2, k=5, p=1, h=0.4)
        # rounding commutes with powers of two, so alpha = 2 is bit-exact
        C_a = build_matrix(sp.csr_matrix(dense), params_a, norm2(dense))
        C_b = build_matrix(sp.csr_matrix(dense * 2.0),
                           TaylorParams(m=2, k=5, p=1, h=0.2), norm2(dense * 2.0))
        assert (C_a != C_b).nnz == 0
        # generic alpha matches to one ulp per product
        C_c = build_matrix(sp.csr_matrix(dense * 2.5),
                           TaylorParams(m=2, k=5, p=1, h=0.4 / 2.5), norm2(dense * 2.5))
        np.testing.assert_allclose(C_c.toarray(), C_a.toarray(), rtol=1e-15,
                                   atol=0)

    def test_step_bound_rejected(self):
        A = sp.csr_matrix(np.array([[-2.0 + 0j]]))
        with pytest.raises(ParameterError, match="shrink the step"):
            build_matrix(A, TaylorParams(m=1, k=5, p=1, h=1.0), norm2(A))

    @pytest.mark.parametrize("sigma", [
        np.array([2.0]),
        # N = 300 takes the Lanczos branch of the norm; top gap 1e-9
        np.concatenate([[1.0, 1.0 - 1e-9], np.linspace(0.9, 0.1, 298)]),
    ], ids=["1x1", "300x300"])
    def test_step_bound_tolerates_h_equal_inverse_norm(self, sigma):
        A = sp.diags(-sigma.astype(complex), format="csr")
        build_matrix(A, TaylorParams(m=1, k=5, p=1, h=1.0 / sigma[0]), norm2(A))
        with pytest.raises(ParameterError, match="shrink the step"):
            build_matrix(A, TaylorParams(m=1, k=5, p=1, h=(1.0 + 1e-6) / sigma[0]), norm2(A))

    def test_step_bound_is_sound_when_the_top_singular_values_nearly_coincide(self):
        # 200 seeded 50x50 matrices whose top two singular values are within
        # 1e-4 relative, where an iterative estimate converges slowly and low
        rng = np.random.default_rng(11)
        for _ in range(200):
            sigma = np.concatenate([[1.0, 1.0 - rng.uniform(0.0, 1e-4)],
                                    rng.uniform(0.0, 0.9, 48)])
            A = (random_unitary(50, rng) * sigma) @ random_unitary(50, rng).conj().T
            norm = np.linalg.norm(A, 2)
            with pytest.raises(ParameterError, match="shrink the step"):
                build_matrix(A, TaylorParams(m=1, k=5, p=1, h=(1.0 + 1e-6) / norm), norm2(A))
            build_matrix(A, TaylorParams(m=1, k=5, p=1, h=(1.0 - 1e-9) / norm), norm2(A))

    def test_zero_generator_passes_the_gate_on_the_lanczos_branch(self):
        A = sp.csr_matrix((300, 300), dtype=complex)
        system = encode(A, np.ones(300), np.zeros(300), TaylorParams(m=1, k=5, p=1, h=1.0))
        assert system.matrix.nnz == system.expected_nnz


def test_assembly_writes_C_once():
    # the three arrays are allocated at their final dtype and filled in place:
    # no staged copy of the m step blocks, no index downcast afterwards
    inst = generate(GenSpec(N=64, sparsity=4, kappa_V=None, seed=3))
    params = TaylorParams(m=20, k=12, p=20, h=0.999 / norm2(inst.A))
    tracemalloc.start()
    try:
        C = build_matrix(inst.A, params, inst.norm_A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (C.data.dtype, C.indices.dtype, C.indptr.dtype) == (
        np.complex128, np.int32, np.int32)
    assert peak <= 1.25 * (C.data.nbytes + C.indices.nbytes + C.indptr.nbytes)


def test_triangular_proof_allocates_a_chunks_worth():
    # the check reads the rows in chunks, so no temporary is full length
    N = 8192
    A = sp.diags(np.full(N, -0.5 + 0j), format="csr")
    system = encode(A, np.ones(N), np.ones(N), TaylorParams(m=2, k=5, p=2, h=1.0))
    assert system.dim >= 10**5
    tracemalloc.start()
    try:
        encoder._check_triangular(system.matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("row", [0, 4, 9])
def test_triangular_proof_reads_every_chunk(monkeypatch, row):
    # chunks of 3 rows over 10: the last chunk is a single row; the generic
    # solve proves each chunk inside its solve loop, with the same messages
    monkeypatch.setattr(encoder, "TRIANGULAR_CHUNK", 3)
    C = sp.identity(10, dtype=complex, format="csr") - sp.eye(10, k=-1, format="csr")
    encoder._check_triangular(C)
    data, indices, indptr = C.data.copy(), C.indices.copy(), C.indptr.copy()
    data[indptr[row + 1] - 1] = 2.0
    empty = C.tolil()
    empty[row, :] = 0
    for broken, message in ((sp.csr_matrix((data, indices, indptr), shape=C.shape),
                             "last entry of every row"),
                            (empty.tocsr(), "empty row")):
        with pytest.raises(IntegrityError, match=message):
            encoder._check_triangular(broken)
        with pytest.raises(IntegrityError, match=message):
            generic_solve(SimpleNamespace(matrix=broken, rhs=np.ones(10, dtype=complex)))


def test_duplicate_entries_in_A_are_summed():
    # scipy accepts a CSR A that repeats a column within a row (the entry is
    # the sum); encoding it must still give a canonical C
    data = np.array([0.2, 0.1, 0.15, 0.3j, 0.1, -0.2, 0.25])
    indices = np.array([1, 0, 1, 2, 0, 2, 2])
    A = sp.csr_matrix((data, indices, np.array([0, 3, 4, 7])), shape=(3, 3))
    before = A.indices.copy()
    params = TaylorParams(m=2, k=5, p=2, h=0.9 / norm2(A))
    x_in, b = np.array([1.0, -0.5j, 0.25]), np.array([0.0, 0.5, 1.0j])
    system = encode(A, x_in, b, params)
    np.testing.assert_array_equal(A.indices, before)
    assert system.matrix.has_canonical_format
    assert system.N == 3  # read from A, so the two cannot disagree
    assert system.A.nnz == 5 and system.matrix.nnz == system.expected_nnz
    np.testing.assert_allclose(
        generic_solve(system), forward_substitute(A, params, x_in, b).vector(),
        rtol=0, atol=1e-12)
    assert matrix_norm_bounds(system).passed


def test_mismatched_state_is_rejected_before_assembly(monkeypatch):
    # the x_in / A size check comes before the ||A|| gate and the O(nnz) build
    from odeql import encoder

    calls = []
    original = encoder.build_matrix
    monkeypatch.setattr(encoder, "build_matrix",
                        lambda *args: calls.append(args) or original(*args))
    A, params = 0.5 * np.eye(3), TaylorParams(m=1, k=5, p=1, h=1.0)
    with pytest.raises(DimensionError):
        encode(A, np.ones(2), np.zeros(2), params)
    assert calls == []
    encode(A, np.ones(3), np.zeros(3), params)
    assert len(calls) == 1


class TestBuildRhs:
    def test_pattern_2_3_2(self):
        params = TaylorParams(m=2, k=3, p=2, h=0.7)
        x_in = np.array([1.0, 2.0], dtype=complex)
        b = np.array([3.0, -1.0], dtype=complex)
        rhs = build_rhs(x_in, b, params)
        blocks = rhs.reshape(params.d + 1, 2)
        np.testing.assert_array_equal(blocks[0], x_in)
        np.testing.assert_array_equal(blocks[1], 0.7 * b)
        np.testing.assert_array_equal(blocks[5], 0.7 * b)
        others = np.delete(np.arange(params.d + 1), [0, 1, 5])
        assert not blocks[others].any()

    def test_homogeneous_single_block(self):
        params = TaylorParams(m=3, k=4, p=1, h=1.0)
        rhs = build_rhs(np.array([2.0 + 0j]), np.array([0.0 + 0j]), params)
        assert rhs[0] == 2.0
        assert not rhs[1:].any()

    def test_zero_initial_state(self):
        params = TaylorParams(m=1, k=4, p=1, h=0.5)
        rhs = build_rhs(np.array([0.0 + 0j]), np.array([4.0 + 0j]), params)
        assert rhs[1] == 2.0
        assert not np.delete(rhs, 1).any()

    def test_length_mismatch(self):
        params = TaylorParams(m=1, k=4, p=1, h=0.5)
        with pytest.raises(DimensionError):
            build_rhs(np.ones(2), np.ones(3), params)


class TestSimulateStatePrep:
    """The amplitude-level preparation of tests/oracles.py against build_rhs."""

    def test_no_inhomogeneity(self):
        params = TaylorParams(m=2, k=3, p=1, h=0.5)
        x_bar = np.array([0.6, 0.8j])
        out = simulate_state_prep(2.0, 0.0, x_bar, np.array([1.0, 0.0]), params)
        blocks = out.reshape(params.d + 1, 2)
        np.testing.assert_array_equal(blocks[0], x_bar)
        assert not blocks[1:].any()

    def test_uniform_spreader(self):
        params = TaylorParams(m=4, k=3, p=1, h=1.0)
        b_bar = np.array([1.0 + 0j])
        out = simulate_state_prep(0.0, 3.0, np.array([1.0 + 0j]), b_bar, params)
        blocks = out.reshape(params.d + 1, 1)
        for i in range(4):
            assert blocks[i * 4 + 1, 0] == pytest.approx(0.5, abs=1e-15)

    def test_matches_normalized_rhs_random(self):
        rng = np.random.default_rng(23)
        for trial in range(100):
            N = int(rng.integers(1, 6))
            params = TaylorParams(m=int(rng.integers(1, 5)),
                                  k=int(rng.integers(1, 7)),
                                  p=int(rng.integers(1, 4)),
                                  h=float(rng.uniform(0.1, 1.0)))
            x_in = rng.normal(size=N) + 1j * rng.normal(size=N)
            b = rng.normal(size=N) + 1j * rng.normal(size=N)
            rhs = build_rhs(x_in, b, params)
            prepared = simulate_state_prep(
                np.linalg.norm(x_in), np.linalg.norm(b),
                x_in / np.linalg.norm(x_in), b / np.linalg.norm(b), params)
            assert np.linalg.norm(prepared - rhs / np.linalg.norm(rhs)) <= 1e-12
