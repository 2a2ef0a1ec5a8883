"""Tests for block forward substitution and its generic cross-check."""

import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve_triangular

from odeql.analysis import inverse_norm
from odeql.encoder import TRIANGULAR_CHUNK, TaylorParams, encode
from odeql.errors import IntegrityError, ParameterError
from odeql import encoder, solver
from odeql.instances import GenSpec, generate
from odeql.numerics import DENSE_CUTOFF, norm2
from odeql.solver import (
    block_solve,
    forward_substitute,
    generic_solve,
    residual,
)
from odeql.taylor import truncated_exp

from oracles import poly_action


def random_problem(seed, N=4, m=3, k=6, p=2, b_mode="random"):
    inst = generate(GenSpec(N=N, kappa_V=2.0, b_mode=b_mode, seed=seed,
                            unit_norm=True))
    params = TaylorParams(m=m, k=k, p=p, h=0.9)
    return inst, params


def apply_Ah_power(A, h, v, j):
    """(Ah)^j v / j! by repeated products (independent of poly_action)."""
    out = np.asarray(v, dtype=complex).copy()
    for i in range(1, j + 1):
        out = (h / i) * (A @ out)
    return out


class TestForwardSubstitute:
    def test_zero_generator_homogeneous(self):
        params = TaylorParams(m=3, k=4, p=2, h=1.0)
        v = np.array([1.0, -2.0 + 1j])
        A = sp.csr_matrix((2, 2), dtype=complex)
        sol = forward_substitute(A, params, v, np.zeros(2, dtype=complex))
        for i in range(4):
            np.testing.assert_array_equal(sol.block(i, 0), v)
        for i in range(3):
            for j in range(1, 5):
                assert not sol.block(i, j).any()
        for j in range(3):
            np.testing.assert_array_equal(sol.block(3, j), v)

    def test_zero_generator_drift(self):
        params = TaylorParams(m=4, k=5, p=1, h=0.25)
        x0 = np.array([1.0 + 0j])
        b0 = np.array([2.0 + 0j])
        A = sp.csr_matrix((1, 1), dtype=complex)
        sol = forward_substitute(A, params, x0, b0)
        for i in range(5):
            assert sol.block(i, 0)[0] == pytest.approx(1.0 + i * 0.25 * 2.0,
                                                       abs=1e-15)

    def test_scalar_truncated_exponential(self):
        # lambda=-1, h=1, m=1, k=5, b=0: final state is the k=5 partial sum.
        params = TaylorParams(m=1, k=5, p=1, h=1.0)
        A = sp.csr_matrix(np.array([[-1.0 + 0j]]))
        sol = forward_substitute(A, params, np.array([1.0 + 0j]),
                                 np.array([0.0 + 0j]))
        assert sol.block(1, 0)[0] == pytest.approx(0.3666666666666667, abs=1e-15)

    def test_initial_block_exact_and_padding_bitwise(self):
        inst, params = random_problem(1)
        sol = forward_substitute(inst.A, params, inst.x_in, inst.b)
        np.testing.assert_array_equal(sol.block(0, 0), inst.x_in)
        for j in range(1, params.p + 1):
            np.testing.assert_array_equal(sol.block(params.m, j),
                                          sol.block(params.m, 0))

    def test_blocks_read_only(self):
        inst, params = random_problem(2)
        sol = forward_substitute(inst.A, params, inst.x_in, inst.b)
        with pytest.raises(ValueError):
            sol.data[0, 0] = 1.0


class TestRecurrenceCertificates:
    def assert_certificates(self, A, params, x_in, b, data, rel=1e-12):
        """The five defining relations, checked against an arbitrary solution."""
        m, k, p, h = params.m, params.k, params.p, params.h
        scale = np.linalg.norm(data)

        def close(u, v):
            assert np.linalg.norm(u - v) <= rel * scale

        np.testing.assert_array_equal(data[0], np.asarray(x_in))
        for i in range(m):
            base = i * (k + 1)
            close(data[base + 1], h * (A @ data[base]) + h * b)
            for j in range(2, k + 1):
                close(data[base + j], (h / j) * (A @ data[base + j - 1]))
            close(data[base + k + 1], data[base:base + k + 1].sum(axis=0))
        top = m * (k + 1)
        for j in range(1, p + 1):
            close(data[top + j], data[top + j - 1])

    def test_forward_substitution_is_exact(self):
        inst, params = random_problem(3)
        sol = forward_substitute(inst.A, params, inst.x_in, inst.b)
        self.assert_certificates(inst.A, params, inst.x_in, inst.b, sol.data,
                                 rel=1e-15)

    def test_solver_checks_no_step_bound(self):
        # |A| h = 2: encode refuses this C, but forward substitution checks no
        # hypothesis of the paper and still replays the recurrences
        inst, _ = random_problem(5)
        params = TaylorParams(m=3, k=6, p=2, h=2.0 / inst.norm_A)
        with pytest.raises(ParameterError, match="shrink the step"):
            encode(inst.A, inst.x_in, inst.b, params)
        sol = forward_substitute(inst.A, params, inst.x_in, inst.b)
        self.assert_certificates(inst.A, params, inst.x_in, inst.b, sol.data,
                                 rel=1e-15)

    def test_generic_solution_satisfies_recurrences(self):
        for seed in range(6):
            inst, params = random_problem(seed, N=3, m=2, k=5)
            system = encode(inst.A, inst.x_in, inst.b, params)
            x = generic_solve(system)
            data = x.reshape(params.d + 1, inst.N)
            m, k = params.m, params.k
            scale = np.linalg.norm(data)
            assert np.linalg.norm(data[0] - inst.x_in) <= 1e-12 * scale
            self.assert_certificates(inst.A, params, data[0], inst.b, data)

    def test_closed_form_block_identities(self):
        # x_{i,j} = (Ah)^j/j! x_{i,0} + (Ah)^{j-1}/j! h b for 1 <= j <= k.
        inst, params = random_problem(4)
        A, h = inst.A, params.h
        sol = forward_substitute(inst.A, params, inst.x_in, inst.b)
        scale = np.linalg.norm(sol.data)
        for i in range(params.m):
            x_i0 = sol.block(i, 0)
            for j in range(1, params.k + 1):
                first = apply_Ah_power(A, h, x_i0, j)
                second = apply_Ah_power(A, h, h * inst.b, j - 1) / j
                expected = first + second
                assert (np.linalg.norm(sol.block(i, j) - expected)
                        <= 1e-11 * max(scale, 1.0))

    def test_one_step_map(self):
        inst, params = random_problem(5)
        sol = forward_substitute(inst.A, params, inst.x_in, inst.b)
        for i in range(params.m):
            expected = (poly_action(inst.A, params.h, sol.block(i, 0), "T", params.k)
                        + poly_action(inst.A, params.h, params.h * inst.b, "S",
                                      params.k))
            assert (np.linalg.norm(sol.block(i + 1, 0) - expected)
                    <= 1e-11 * max(np.linalg.norm(expected), 1.0))


class TestGenericSolve:
    def test_agrees_with_forward_substitution(self):
        for seed in range(8):
            inst, params = random_problem(seed, N=3, m=2, k=5)
            system = encode(inst.A, inst.x_in, inst.b, params)
            direct = forward_substitute(inst.A, params, inst.x_in, inst.b).vector()
            generic = generic_solve(system)
            assert (np.linalg.norm(direct - generic)
                    <= 1e-12 * np.linalg.norm(generic))

    def test_paper_scale_scalar_example(self):
        params = TaylorParams(m=2, k=3, p=2, h=1.0)
        A = sp.csr_matrix(np.array([[-0.5 + 0j]]))
        x_in = np.array([1.0 + 0j])
        b = np.array([0.25 + 0j])
        system = encode(A, x_in, b, params)
        direct = forward_substitute(A, params, x_in, b).vector()
        np.testing.assert_allclose(generic_solve(system), direct, rtol=0,
                                   atol=1e-14)

    def test_zero_generator_reproduces_rhs_flow(self):
        # A = 0: blocks are sums/copies of rhs pieces, nothing else.
        params = TaylorParams(m=1, k=5, p=1, h=1.0)
        A = sp.csr_matrix((1, 1), dtype=complex)
        x_in = np.array([2.0 + 0j])
        b = np.array([3.0 + 0j])
        system = encode(A, x_in, b, params)
        x = generic_solve(system).reshape(params.d + 1, 1)
        assert x[0, 0] == 2.0          # x_{0,0} = x_in
        assert x[1, 0] == 3.0          # x_{0,1} = h b
        assert not x[2:6].any()        # higher Taylor blocks vanish
        assert x[6, 0] == 5.0          # collector: x_in + h b
        assert x[7, 0] == 5.0          # padding copy

    @pytest.mark.parametrize("breaker", [
        "above_diagonal", "duplicate_diagonal", "diagonal_two", "unsorted_row"])
    def test_triangularity_integrity(self, breaker):
        inst, params = random_problem(0, N=2, m=1, k=5, p=1)
        system = encode(inst.A, inst.x_in, inst.b, params)
        C = system.matrix
        data, indices, indptr = C.data.copy(), C.indices.copy(), C.indptr.copy()
        r = 3  # row of block (0,1): -Ah entries in columns 0, 1, then the diagonal
        start, end = indptr[r], indptr[r + 1]
        assert list(indices[start:end]) == [0, 1, r] and data[end - 1] == 1.0
        if breaker == "above_diagonal":
            broken = C.tolil()
            broken[0, 3] = 1.0
            broken = broken.tocsr()
        else:
            if breaker == "duplicate_diagonal":
                # (r, r) stored twice, 0.5 then 1.0: the true diagonal is 1.5
                data = np.insert(data, end - 1, 0.5)
                indices = np.insert(indices, end - 1, r)
                indptr[r + 1:] += 1
            elif breaker == "diagonal_two":
                data[end - 1] = 2.0
            else:
                # off-diagonal columns swapped: the diagonal is still last and 1
                swap = [start + 1, start]
                indices[[start, start + 1]] = indices[swap]
                data[[start, start + 1]] = data[swap]
            broken = sp.csr_matrix((data, indices, indptr), shape=C.shape)
        bad = replace(system, matrix=broken)
        for solve in (generic_solve, inverse_norm):
            with pytest.raises(IntegrityError):
                solve(bad)


def test_one_norm_per_encoded_and_solved_system(norm2_calls):
    # the solve task: encode gates |A| h <= 1, the solvers measure nothing
    inst, params = random_problem(6)
    norm2_calls.clear()
    system = encode(inst.A, inst.x_in, inst.b, params)
    sol = forward_substitute(inst.A, params, inst.x_in, inst.b)
    generic_solve(system)
    residual(system, sol.vector())
    assert norm2_calls == [(4, 4)]


class TestResidual:
    def test_exact_solution(self):
        inst, params = random_problem(8)
        system = encode(inst.A, inst.x_in, inst.b, params)
        x = forward_substitute(inst.A, params, inst.x_in, inst.b).vector()
        assert residual(system, x) <= 1e-12

    def test_zero_vector(self):
        inst, params = random_problem(9)
        system = encode(inst.A, inst.x_in, inst.b, params)
        assert residual(system, np.zeros(system.dim, dtype=complex)) == 1.0

    def test_perturbed_solution_bounded_by_matrix_norm(self):
        inst, params = random_problem(10)
        system = encode(inst.A, inst.x_in, inst.b, params)
        x = forward_substitute(inst.A, params, inst.x_in, inst.b).vector()
        delta = 1e-6
        e = np.zeros(system.dim, dtype=complex)
        e[3] = delta
        norm_bound = 2.0 * math.sqrt(params.k)  # the claimed |C| bound
        assert (residual(system, x + e)
                <= norm_bound * delta / np.linalg.norm(system.rhs) + 1e-15)


@pytest.mark.parametrize("layout", ["dense", "empty_row", "stored_zero", "N=1", "narrow"])
def test_any_layout_cross_validates(layout):
    # random small layouts, including k below the bound regime, an A with an
    # empty row (its Taylor rows hold only their diagonal), an A storing an
    # explicit zero, N = 1, and N = 1 at m = p = 200, k = 20, whose 4401 rows
    # are 4401 one-row panels (a few seeds: its layout is fixed): the
    # encoding, the structure-aware solve and the generic solve must always
    # agree, and SuperLU, an outside oracle, too
    @given(m=st.integers(1, 4), k=st.integers(1, 8), p=st.integers(1, 4),
           N=st.integers(1, 4), seed=st.integers(0, 2**16))
    @settings(max_examples=3 if layout == "narrow" else 60, deadline=None)
    def check(m, k, p, N, seed):
        cross_validate(layout, m, k, p, N, seed)

    check()


def cross_validate(layout, m, k, p, N, seed):
    rng = np.random.default_rng(seed)
    if layout == "narrow":
        m, k, p = 200, 20, 200
    N = 1 if layout in ("N=1", "narrow") else N
    dense = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    if layout == "empty_row":
        dense[seed % N] = 0.0
    if layout == "narrow":
        dense.real = -abs(dense.real)  # Re(lambda) <= 0: 200 steps do not grow
    norm = np.linalg.norm(dense, 2)
    if norm > 0:
        dense /= 1.25 * norm
    A = sp.csr_matrix(dense)
    if layout == "stored_zero":
        A.data[seed % A.nnz] = 0.0
    params = TaylorParams(m=m, k=k, p=p, h=1.0)
    x_in = rng.normal(size=N) + 1j * rng.normal(size=N)
    b = rng.normal(size=N) + 1j * rng.normal(size=N)
    system = encode(A, x_in, b, params)
    assert system.matrix.nnz == system.expected_nnz
    assert system.A.nnz == A.nnz  # a stored zero stays in C's pattern
    direct = forward_substitute(A, params, x_in, b).vector()
    C = system.matrix
    before = (C.data.copy(), C.indices.copy(), C.indptr.copy(), system.rhs.copy())
    generic = generic_solve(system)
    scale = np.linalg.norm(generic)
    superlu = spsolve_triangular(C, system.rhs, lower=True)
    assert np.linalg.norm(superlu - generic) <= 1e-14 * scale
    assert np.linalg.norm(direct - generic) <= 1e-12 * scale
    assert residual(system, direct) <= 1e-12
    # C and rhs are frozen: the solves leave them untouched, and a write into
    # any of their arrays raises
    for old, new in zip(before, (C.data, C.indices, C.indptr, system.rhs)):
        assert np.array_equal(old, new)
        assert not new.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            new[0] = new[0]

    # three right-hand sides in one kernel call equal three one-column solves
    shape = (params.d + 1, N)
    rhs = rng.normal(size=shape + (3,)) + 1j * rng.normal(size=shape + (3,))
    stacked = block_solve(A, params, rhs.copy())
    for c in range(3):
        single = block_solve(A, params, rhs[:, :, c].copy())
        np.testing.assert_allclose(stacked[:, :, c], single,
                                   rtol=0, atol=1e-14 * np.abs(single).max())


def unit_lower(n, below):
    """Canonical unit lower-triangular CSR with the given (row, col) -> value
    entries below the diagonal."""
    dense = np.eye(n, dtype=complex)
    for (r, c), v in below.items():
        dense[r, c] = v
    return sp.csr_matrix(dense)


def random_unit_lower(n, seed):
    rng = np.random.default_rng(seed)
    vals = (rng.random((n, n)) < 0.15) * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return sp.csr_matrix(np.eye(n) + np.tril(vals, -1) / 2)


CROSSING = 3 * TRIANGULAR_CHUNK + 5
HAND_BUILT = {
    "random": random_unit_lower(40, 0),
    # every panel is one row
    "bidiagonal_chain": unit_lower(12, {(r, r - 1): 0.5 - 0.5j for r in range(1, 12)}),
    "identity": unit_lower(9, {}),
    # row r reads row r - 700: panels of 700 rows, which straddle the
    # boundaries of the triangularity proof's chunks
    "chunk_crossing": (sp.eye(CROSSING, format="csr", dtype=complex)
                       + sp.eye(CROSSING, k=-700, format="csr", dtype=complex) * (0.5 + 1j)),
    # rows 0-2, 5 and 7 hold only their diagonal; 3 reads 1, 4 reads 0, 6 reads 4
    "diagonal_only_rows": unit_lower(8, {(3, 1): 2.0, (4, 0): -1j, (6, 4): 0.25}),
}


def assert_solves(C):
    """generic_solve on C matches SuperLU, an outside oracle, within 1e-14."""
    n = C.shape[0]
    rng = np.random.default_rng(n)
    rhs = rng.normal(size=n) + 1j * rng.normal(size=n)
    x = generic_solve(SimpleNamespace(matrix=C, rhs=rhs))
    expected = spsolve_triangular(C, rhs, lower=True)
    assert np.linalg.norm(x - expected) <= 1e-14 * np.linalg.norm(expected)


@pytest.mark.parametrize("name", HAND_BUILT)
def test_generic_solve_reads_only_the_triangular_form(name):
    # matrices the encoder never made: generic_solve reads their canonical
    # unit lower-triangular CSR, nothing of the Taylor layout
    assert_solves(HAND_BUILT[name])


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_generic_solve_cuts_panels_at_any_chunk(monkeypatch, chunk):
    # chunks of 1-7 rows cut the panels at every row, so pieces of one panel
    # are solved in turn and some chunks' first row starts a new panel
    monkeypatch.setattr(encoder, "TRIANGULAR_CHUNK", chunk)
    for C in HAND_BUILT.values():
        assert_solves(C)
    inst, params = random_problem(5, N=3, m=2, k=4, p=2)
    assert_solves(encode(inst.A, inst.x_in, inst.b, params).matrix)


@pytest.mark.parametrize("breaker, message", [
    ("unsorted", "not canonical CSR"),
    ("diagonal_two", "equal to 1"),
    ("above_diagonal", "nothing above the diagonal"),
    ("empty_row", "empty row"),
])
def test_generic_solve_refuses_a_hand_built_matrix(breaker, message):
    C = unit_lower(4, {(2, 0): 1.0, (3, 1): -1.0})
    data, indices, indptr = C.data.copy(), C.indices.copy(), C.indptr.copy()
    if breaker == "unsorted":
        # row 2 stores (2, 2) before (2, 0)
        indices[[2, 3]], data[[2, 3]] = indices[[3, 2]], data[[3, 2]]
    elif breaker == "diagonal_two":
        data[-1] = 2.0
    elif breaker == "above_diagonal":
        indices[0] = 1  # row 0 holds (0, 1), not its diagonal
    else:
        # row 1 loses its diagonal
        data, indices = np.delete(data, 1), np.delete(indices, 1)
        indptr[2:] -= 1
    broken = sp.csr_matrix((data, indices, indptr), shape=C.shape)
    with pytest.raises(IntegrityError, match=message):
        generic_solve(SimpleNamespace(matrix=broken, rhs=np.ones(4, dtype=complex)))


def test_generic_solve_memory_is_a_panels_worth():
    # the traced peak of one call is the solution, at most one index array
    # of C's dimension, and a MiB of panel and chunk temporaries
    inst = generate(GenSpec(N=256, sparsity=4, kappa_V=None, b_mode="random", seed=3))
    params = TaylorParams(m=8, k=10, p=8, h=0.999 / norm2(inst.A))
    system = encode(inst.A, inst.x_in, inst.b, params)
    tracemalloc.start()
    try:
        x = generic_solve(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    index_bytes = system.dim * system.matrix.indices.itemsize
    assert peak <= x.nbytes + index_bytes + 2 ** 20
    assert residual(system, x) <= 1e-12


@pytest.mark.parametrize("reads", ["nothing", "row 0"])
def test_generic_solve_memory_is_flat_in_a_panel_over_many_chunks(reads):
    # the identity is one panel, and so are rows 1.. when each reads row 0: a
    # panel over 6 chunks is solved a chunk at a time, so the temporaries
    # above the solution stay those of one chunk
    n = 6 * TRIANGULAR_CHUNK + 5
    C = sp.eye(n, format="csr", dtype=complex)
    if reads == "row 0":
        C = C + sp.csr_matrix((np.full(n - 1, 0.5j), (np.arange(1, n), np.zeros(n - 1, int))),
                              shape=(n, n))
    rhs = np.ones(n, dtype=complex)
    tracemalloc.start()
    try:
        x = generic_solve(SimpleNamespace(matrix=C, rhs=rhs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - x.nbytes <= 2 * 2 ** 20
    np.testing.assert_array_equal(x[0], 1.0)
    np.testing.assert_array_equal(x[1:], 1.0 - (0.5j if reads == "row 0" else 0.0))


@pytest.mark.parametrize("N", [DENSE_CUTOFF - 1, DENSE_CUTOFF])
def test_block_kernel_on_both_sides_of_the_dense_cutoff(monkeypatch, N):
    # below the cutoff the kernel gets A as an ndarray, from it as CSR; both
    # agree with the assembled system and keep the exact-copy blocks exact
    rng = np.random.default_rng(N)
    A = (sp.random(N, N, density=4 / N, format="csr", random_state=rng)
         - 1j * sp.random(N, N, density=4 / N, format="csr", random_state=rng))
    params = TaylorParams(m=3, k=6, p=2, h=0.99 / norm2(A))
    x_in = rng.normal(size=N) + 1j * rng.normal(size=N)
    b = rng.normal(size=N) + 1j * rng.normal(size=N)
    kinds = []
    inner = solver.block_solve

    def spy(A, params, rhs):
        kinds.append(sp.issparse(A))
        return inner(A, params, rhs)

    monkeypatch.setattr(solver, "block_solve", spy)
    sol = forward_substitute(A, params, x_in, b)
    assert kinds == [N >= DENSE_CUTOFF]
    generic = generic_solve(encode(A, x_in, b, params))
    assert np.linalg.norm(sol.vector() - generic) <= 1e-12 * np.linalg.norm(generic)
    assert sol.block(0, 0).tobytes() == x_in.tobytes()
    for j in range(1, params.p + 1):
        assert sol.block(params.m, j).tobytes() == sol.final_state().tobytes()


def test_desk_scale_ceiling():
    # the largest layout the package promises: N=16, m=p=16, k=25
    inst = generate(GenSpec(N=16, kappa_V=10.0, b_mode="random", seed=42,
                            unit_norm=True))
    params = TaylorParams(m=16, k=25, p=16, h=0.99)
    system = encode(inst.A, inst.x_in, inst.b, params)
    assert system.dim == (params.d + 1) * 16
    assert system.matrix.nnz == system.expected_nnz
    sol = forward_substitute(inst.A, params, inst.x_in, inst.b)
    assert residual(system, sol.vector()) <= 1e-12
    gap = np.linalg.norm(sol.vector() - generic_solve(system))
    assert gap <= 1e-12 * np.linalg.norm(sol.vector())
