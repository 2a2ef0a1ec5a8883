"""File formats: Matrix Market for matrices, two-column text for vectors.

Vectors are stored one entry per line as "re im" with 17 significant digits,
which round-trips IEEE doubles exactly. Instances live in a directory with a
meta.json manifest next to the matrix and vector files.
"""

from __future__ import annotations

import json
import sys
import warnings
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.io import mmread, mmwrite

from .errors import DimensionError, ParameterError
from .numerics import Instance, as_state, make_instance


def save_matrix(path, M) -> None:
    """Write a sparse (coordinate) or dense (array) Matrix Market file."""
    if sp.issparse(M):
        mmwrite(str(path), M.tocoo())
    else:
        mmwrite(str(path), np.asarray(M, dtype=complex))


def load_matrix(path):
    """Read a Matrix Market file; sparse input comes back as CSR."""
    M = mmread(str(path))
    if sp.issparse(M):
        M = M.tocsr()
        M.sort_indices()
        return M.astype(complex)
    return np.asarray(M, dtype=complex)


def save_vector(path, v) -> None:
    v = as_state(v, "vector")
    np.savetxt(str(path), np.column_stack([v.real, v.imag]), fmt="%.17g")


def load_vector(path) -> np.ndarray:
    with warnings.catch_warnings():
        # numpy warns on a file without data; the error below says so instead
        warnings.simplefilter("ignore", UserWarning)
        raw = np.loadtxt(str(path), ndmin=2)
    if raw.size == 0:
        raise DimensionError(f"{path}: no entries")
    if raw.shape[1] != 2:
        raise DimensionError(f"{path}: expected two columns (re, im), got {raw.shape[1]}")
    return raw[:, 0] + 1j * raw[:, 1]


def load_manifest(path) -> dict:
    """The JSON object stored at path; any other JSON value is a ParameterError."""
    blob = json.loads(Path(path).read_text())
    if not isinstance(blob, dict):
        raise ParameterError(f"{path}: expected a JSON object, got {type(blob).__name__}")
    return blob


def manifest_field(manifest: dict, key: str, kind: type, source):
    """manifest[key] as kind: int takes integers only (not bools or floats),
    float takes finite integers and floats. A missing or mistyped field is a
    ParameterError that names source."""
    if key not in manifest:
        raise ParameterError(f"{source}: missing field {key!r}")
    value = manifest[key]
    if kind is int:
        ok, what = isinstance(value, int), "an integer"
    else:
        ok = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
        what = "a finite number"
    if isinstance(value, bool) or not ok:
        raise ParameterError(f"{source}: {key} must be {what}, got {json.dumps(value)}")
    return kind(value)


def save_instance(directory, inst: Instance, extra_meta: dict | None = None) -> Path:
    """Write an instance as a directory of Matrix Market / vector files."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_matrix(directory / "A.mtx", inst.A)
    save_matrix(directory / "V.mtx", inst.V)
    save_matrix(directory / "V_inv.mtx", inst.V_inv)
    save_vector(directory / "eigenvalues.txt", inst.eigenvalues)
    save_vector(directory / "b.txt", inst.b)
    save_vector(directory / "x_in.txt", inst.x_in)
    meta = {
        "schema": 1,
        "N": inst.N,
        "kappa_V": inst.kappa_V,
        "label": inst.label,
    }
    if extra_meta:
        meta.update(extra_meta)
    (directory / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    return directory


def load_instance(directory) -> Instance:
    directory = Path(directory)
    meta_path = directory / "meta.json"
    meta = load_manifest(meta_path)
    return make_instance(
        V=load_matrix(directory / "V.mtx"),
        eigenvalues=load_vector(directory / "eigenvalues.txt"),
        b=load_vector(directory / "b.txt"),
        x_in=load_vector(directory / "x_in.txt"),
        V_inv=load_matrix(directory / "V_inv.mtx"),
        A=load_matrix(directory / "A.mtx"),
        kappa_V=manifest_field(meta, "kappa_V", float, meta_path),
        label=meta.get("label", str(directory)),
    )
