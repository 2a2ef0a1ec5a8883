"""Round-trip tests for the matrix, vector and instance file formats."""

import tempfile
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from odeql.fileio import (
    load_instance,
    load_matrix,
    load_vector,
    save_instance,
    save_matrix,
    save_vector,
)
from odeql.instances import GenSpec, generate
from odeql.numerics import as_csr, as_dense


def test_sparse_matrix_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    M = sp.random(12, 12, density=0.2, random_state=np.random.RandomState(0))
    M = sp.csr_matrix(M + 1j * M.T)
    path = tmp_path / "m.mtx"
    save_matrix(path, M)
    back = load_matrix(path)
    assert sp.issparse(back)
    assert (M != back).nnz == 0
    np.testing.assert_array_equal(M.toarray(), back.toarray())


def test_dense_matrix_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    V = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    path = tmp_path / "v.mtx"
    save_matrix(path, V)
    np.testing.assert_array_equal(load_matrix(path), V)


def test_vector_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    v = rng.normal(size=40) * 10.0**rng.integers(-12, 12, size=40) \
        + 1j * rng.normal(size=40)
    path = tmp_path / "v.txt"
    save_vector(path, v)
    np.testing.assert_array_equal(load_vector(path), v)


def test_single_entry_vector(tmp_path):
    path = tmp_path / "one.txt"
    save_vector(path, np.array([0.5 - 0.25j]))
    back = load_vector(path)
    assert back.shape == (1,)
    assert back[0] == 0.5 - 0.25j


def test_instance_round_trip(tmp_path):
    inst = generate(GenSpec(N=5, kappa_V=4.0, b_mode="random", seed=11,
                            unit_norm=True))
    save_instance(tmp_path / "inst", inst, {"note": "test"})
    back = load_instance(tmp_path / "inst")
    np.testing.assert_array_equal(back.V, inst.V)
    np.testing.assert_array_equal(back.V_inv, inst.V_inv)
    np.testing.assert_array_equal(back.eigenvalues, inst.eigenvalues)
    np.testing.assert_array_equal(back.x_in, inst.x_in)
    np.testing.assert_array_equal(back.b, inst.b)
    np.testing.assert_array_equal(as_dense(back.A), as_dense(inst.A))
    assert back.kappa_V == inst.kappa_V
    assert back.label == inst.label


def test_A_file_is_coordinate_whatever_the_form_of_A(tmp_path):
    # an ndarray A is written as its CSR would be, so gen's files keep their bytes
    inst = generate(GenSpec(N=5, kappa_V=4.0, b_mode="random", seed=11))
    assert isinstance(inst.A, np.ndarray)
    save_instance(tmp_path / "inst", inst)
    save_matrix(tmp_path / "csr.mtx", as_csr(inst.A))
    written = (tmp_path / "inst" / "A.mtx").read_bytes()
    assert written.startswith(b"%%MatrixMarket matrix coordinate complex")
    assert written == (tmp_path / "csr.mtx").read_bytes()
    back = load_instance(tmp_path / "inst")
    np.testing.assert_array_equal(as_dense(back.A), inst.A)


def test_a_file_keeps_the_form_it_is_read_in(tmp_path):
    # a coordinate A.mtx loads as CSR, an array A.mtx as an ndarray, same values
    inst = generate(GenSpec(N=4, kappa_V=2.0, seed=3))
    save_instance(tmp_path / "inst", inst)
    coordinate = load_instance(tmp_path / "inst")
    save_matrix(tmp_path / "inst" / "A.mtx", inst.A)
    array = load_instance(tmp_path / "inst")
    assert sp.issparse(coordinate.A) and coordinate.A.format == "csr"
    assert isinstance(array.A, np.ndarray)
    np.testing.assert_array_equal(as_dense(coordinate.A), array.A)


def test_instance_with_coordinate_similarity_round_trip(tmp_path):
    # V.mtx and V_inv.mtx in coordinate format load as CSR; the instance
    # stores them dense, equal to what was saved
    inst = generate(GenSpec(N=5, kappa_V=4.0, b_mode="random", seed=11,
                            unit_norm=True))
    save_instance(tmp_path / "inst", inst)
    save_matrix(tmp_path / "inst" / "V.mtx", sp.csr_matrix(inst.V))
    save_matrix(tmp_path / "inst" / "V_inv.mtx", sp.csr_matrix(inst.V_inv))
    back = load_instance(tmp_path / "inst")
    assert isinstance(back.V, np.ndarray) and isinstance(back.V_inv, np.ndarray)
    np.testing.assert_array_equal(back.V, inst.V)
    np.testing.assert_array_equal(back.V_inv, inst.V_inv)


@given(N=st.integers(1, 12), kappa=st.floats(1.0, 1e9), sparse=st.booleans(),
       sparsity=st.integers(1, 12), b_mode=st.sampled_from(["zero", "random"]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_instance_round_trip_fuzz(N, kappa, sparse, sparsity, b_mode, seed):
    # load_instance re-validates, so every drawn instance also passes the
    # file path's checks; what comes back must be bit for bit what was saved.
    if sparse:
        spec = GenSpec(N=N, kappa_V=None, sparsity=min(sparsity, N),
                       b_mode=b_mode, seed=seed)
    else:
        spec = GenSpec(N=N, kappa_V=1.0 if N == 1 else kappa, b_mode=b_mode,
                       seed=seed)
    inst = generate(spec)
    with tempfile.TemporaryDirectory() as tmp:
        save_instance(Path(tmp) / "inst", inst)
        back = load_instance(Path(tmp) / "inst")
    for name in ("V", "V_inv", "eigenvalues", "x_in", "b"):
        np.testing.assert_array_equal(getattr(back, name), getattr(inst, name))
    for name in ("indptr", "indices", "data"):  # A.mtx holds A in coordinate form
        np.testing.assert_array_equal(getattr(back.A, name), getattr(as_csr(inst.A), name))
    assert back.kappa_V == inst.kappa_V
