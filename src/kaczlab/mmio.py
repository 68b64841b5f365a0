"""File IO: MatrixMarket matrices (by scipy, imported only when a matrix is
read or written) and one-value-per-line vectors."""

from __future__ import annotations

import numpy as np

from .linalg import as_matrix, as_vector


def read_matrix(path) -> np.ndarray:
    """Read a MatrixMarket file (array or coordinate format) as dense."""
    import scipy.io
    import scipy.sparse

    M = scipy.io.mmread(path)
    if scipy.sparse.issparse(M):
        M = M.toarray()
    return as_matrix(M)


def write_matrix(path, A) -> None:
    import scipy.io

    scipy.io.mmwrite(path, as_matrix(A))


def read_vector(path) -> np.ndarray:
    return as_vector(np.loadtxt(path, ndmin=1))


def write_vector(path, v) -> None:
    np.savetxt(path, as_vector(v), fmt="%.17g")
