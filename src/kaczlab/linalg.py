"""Dense linear-algebra kernel: row normalization, symmetric spectra,
min-norm least squares, and projection onto the solution set.  What a
system derives (the spectrum of A A^T, the rank, the projector's row-space
basis V_r and coordinates c) comes from its one cached thin SVD.

Everything here is sized for desk-scale problems (m, n up to a few
thousand) and works on plain float64 numpy arrays.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InconsistentSystemError,
    NotSquareError,
    NotSymmetricError,
    ZeroRowError,
)

# Eigenvalues, or squared singular values, up to RANK_TOL times the
# largest count as zero (``rank_mask``).
RANK_TOL = 1e-10
# A row whose squared norm (``row_norms_sq``) is below this is a zero row
# (``check_row_norms``).
ZERO_ROW_NORM_SQ = 1e-28
# b counts as outside range(A) when ||A A^+ b - b|| exceeds this times
# 1 + ||b||.
CONSISTENCY_TOL = 1e-6
# Bytes of matrix rows one block of ``stacked_matvec`` holds: a quarter of
# the 2 MB L2 it was sized on, so a block stays in cache for every gemv of
# the stack (see ``row_blocks``).
ROW_BLOCK_BYTES = 1 << 19


def check_row_norms(norms_sq, rows=None) -> None:
    """The zero-row rule: raise ZeroRowError naming the first row whose
    squared norm in ``norms_sq`` is below ZERO_ROW_NORM_SQ, as ``rows[i]``
    (its position i when ``rows`` is None)."""
    zero = np.flatnonzero(norms_sq < ZERO_ROW_NORM_SQ)
    if zero.size:
        raise ZeroRowError(int(zero[0] if rows is None else rows[zero[0]]))


def row_blocks(m: int, n: int) -> list[slice]:
    """The blocks of rows ``stacked_matvec`` takes an m x n matrix in: about
    ROW_BLOCK_BYTES of float64 rows each, a multiple of 4 rows, the last
    taking the remainder.  A gemv kernel takes rows in fours from the start
    of its call and ends with a tail, so each row of a block is computed as
    in one gemv over all m rows.  No block holds one row: numpy takes a
    one-row matrix down another path, with other bits."""
    rows = max(4, ROW_BLOCK_BYTES // (8 * n) // 4 * 4)
    starts = range(0, m - 1, rows)
    return [slice(a, b) for a, b in zip(starts, [*starts[1:], m])]


def stacked_matvec(M: np.ndarray, X: np.ndarray, owner) -> np.ndarray:
    """``np.matvec(M, X)`` of one iterate X (n,) or a stack X (..., n), each
    iterate with the bits of its own gemv.  Only a stack of two or more reads
    ``owner.matvec_blocks`` (so only it probes M) and, unless that is None,
    takes M by those row blocks (``blocked_matvec``)."""
    if X.ndim == 1 or len(X) < 2 or (blocks := owner.matvec_blocks) is None:
        return np.matvec(M, X)
    return blocked_matvec(M, X, blocks)


def blocked_matvec(M: np.ndarray, X: np.ndarray, blocks: list[slice]) -> np.ndarray:
    """``np.matvec(M, X)`` of a stack X (..., n), one gemv per iterate and
    row block: a block stays in cache for all the stack's gemvs instead of M
    streaming through once per iterate (Goto-van de Geijn, ACM TOMS 2008)."""
    out = np.empty(X.shape[:-1] + M.shape[:1])
    for rows in blocks:
        np.matvec(M[rows], X, out=out[..., rows])
    return out


def matvec_blocks(M: np.ndarray) -> list[slice] | None:
    """M's ``row_blocks`` where a stack's ``blocked_matvec`` keeps the bits
    of its ``np.matvec``, else None (one gemv per iterate over all of M).
    None where M fits in one block, or where a probe stack of 8 iterates
    differs in a bit: a threaded BLAS splits one gemv's rows between
    threads, and a row at a split can be computed by the tail kernel in one
    product and not in the other (at two OpenBLAS threads, a 2001 x 500
    stack in 128-row blocks differs from whole gemvs in rows 1000 and
    2000).  Where a row differs, most probe iterates show it."""
    blocks = row_blocks(*M.shape)
    if len(blocks) < 2:
        return None
    probe = np.random.default_rng(0).standard_normal((8, M.shape[1]))
    return blocks if np.array_equal(blocked_matvec(M, probe, blocks), np.matvec(M, probe)) else None


def as_matrix(A) -> np.ndarray:
    """Coerce to a 2-d float64 array and reject non-finite entries."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError(f"expected a 2-d matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains NaN or Inf entries")
    return A


def as_vector(v, length: int | None = None) -> np.ndarray:
    v = np.asarray(v, dtype=float).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise ValueError("vector contains NaN or Inf entries")
    if length is not None and v.size != length:
        raise ValueError(f"expected vector of length {length}, got {v.size}")
    return v


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """A consistent dense system A x = b.

    ``planted_solution`` is an optional known solution (problem generators
    always store one); ``normalized`` asserts every row of A has unit norm.
    Instances are immutable and safe to share across threads.  What
    depends only on the system (row norms, the SVD and all it gives) is
    computed on first use and cached.
    """

    A: np.ndarray
    b: np.ndarray
    planted_solution: np.ndarray | None = None
    normalized: bool = False

    def __post_init__(self):
        A = as_matrix(self.A)
        b = as_vector(self.b, A.shape[0])
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        # Values other modules derive from the system, by key (``cached``).
        object.__setattr__(self, "cache", {})
        if self.planted_solution is not None:
            x = as_vector(self.planted_solution, A.shape[1])
            object.__setattr__(self, "planted_solution", x)
            gap = np.linalg.norm(A @ x - b)
            if gap > 1e-10 * (1.0 + np.linalg.norm(b)):
                raise InconsistentSystemError(
                    f"planted solution violates A x = b (residual {gap:.3e})"
                )
        if self.normalized:
            norms = np.linalg.norm(A, axis=1)
            if np.max(np.abs(norms - 1.0)) > 1e-12:
                raise ValueError("normalized flag set but rows are not unit norm")

    @property
    def shape(self) -> tuple[int, int]:
        return self.A.shape

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @cached_property
    def row_norms_sq(self) -> np.ndarray:
        """Each ||a_i||^2 as the ddot a_i . a_i: the norms the iteration
        kernels divide by, and those of the weights, lambda_max^block and W."""
        return np.vecdot(self.A, self.A)

    @cached_property
    def has_zero_rows(self) -> bool:
        """Whether some row is zero (``row_norms_sq`` below ZERO_ROW_NORM_SQ)."""
        return bool(self.row_norms_sq.min() < ZERO_ROW_NORM_SQ)

    def check_nonzero_rows(self) -> None:
        """``check_row_norms`` of every row: ZeroRowError names the first
        zero one.  Whatever divides by the row norms (row normalization, the
        averaged and adaptive steps, lambda_max^block, W) checks it before
        it starts."""
        if self.has_zero_rows:
            check_row_norms(self.row_norms_sq)

    def cached(self, key: tuple, build):
        """``cache[key]``; a miss drops the older key of its kind (key[0]) and stores ``build()``."""
        if key not in self.cache:
            for old in [k for k in self.cache if k[0] == key[0]]:
                del self.cache[old]
            self.cache[key] = build()
        return self.cache[key]

    @cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The thin SVD (U, sigma, V^T) of A, the system's one factorization."""
        return np.linalg.svd(self.A, full_matrices=False)

    @cached_property
    def gram_spectrum(self) -> SpectralSummary:
        """Eigenvalues of A A^T: sigma^2, then m - n zeros when m > n."""
        return SpectralSummary.of(np.concatenate([self.svd[1] ** 2, np.zeros(max(0, self.m - self.n))]))

    @cached_property
    def projector(self) -> SolutionProjector:
        """Raises :class:`InconsistentSystemError` when b is outside range(A)."""
        return SolutionProjector(self)

    @cached_property
    def matvec_blocks(self) -> list[slice] | None:
        """``matvec_blocks`` of A, probed when ``residual`` first takes a
        stack of two or more iterates: how it takes A for one."""
        return matvec_blocks(self.A)

    def residual(self, x: np.ndarray) -> np.ndarray:
        """A x - b of one iterate (n,) or of each in a stack (..., n), each
        with the bits of ``A @ x - b`` (``stacked_matvec`` by
        ``matvec_blocks``)."""
        return stacked_matvec(self.A, x, self) - self.b


@dataclass(frozen=True, eq=False)
class RowScaling:
    """Original row norms recorded by :func:`normalize_rows`, so user
    systems can be round-tripped."""

    scales: np.ndarray

    def __post_init__(self):
        s = as_vector(self.scales)
        if np.any(s <= 0):
            raise ValueError("row scales must be positive")
        object.__setattr__(self, "scales", s)


@dataclass(frozen=True, eq=False)
class SpectralSummary:
    """Eigenvalues of a symmetric matrix, sorted descending, with the
    smallest-nonzero bookkeeping used throughout the rate formulas."""

    eigenvalues: np.ndarray  # descending
    lambda_max: float
    lambda_min: float
    lambda_min_nz: float  # smallest that counts (``rank_mask``), else 0.0
    rank_estimate: int

    @classmethod
    def of(cls, eig: np.ndarray) -> SpectralSummary:
        """The summary of the eigenvalues ``eig``, sorted descending."""
        nz = eig[rank_mask(eig)]
        return cls(eig, float(eig[0]), float(eig[-1]), float(nz[-1]) if nz.size else 0.0, nz.size)


def rank_mask(sq: np.ndarray) -> np.ndarray:
    """The rank rule: an eigenvalue or squared singular value of ``sq`` (..., k)
    counts iff it exceeds RANK_TOL times the largest (Golub-Van Loan, 5.4)."""
    return sq > RANK_TOL * sq.max(axis=-1, keepdims=True)


def pseudoinverse(u: np.ndarray, s: np.ndarray, vt: np.ndarray) -> np.ndarray:
    """A^+ = V diag(1/sigma) U^T over the sigma ``rank_mask`` keeps, from the
    thin SVD of A (..., m, n), by numpy ``pinv``'s product and bits."""
    inv = np.divide(1.0, s, where=rank_mask(s * s), out=np.zeros_like(s))
    return np.matmul(np.swapaxes(vt, -1, -2), np.multiply(inv[..., None], np.swapaxes(u, -1, -2)))


def normalize_rows(system: LinearSystem) -> tuple[LinearSystem, RowScaling]:
    """Divide each row a_i and entry b_i by ||a_i||.

    The solution set is unchanged.  A system with a zero row raises
    :class:`ZeroRowError` (``LinearSystem.check_nonzero_rows``).
    """
    system.check_nonzero_rows()
    norms = np.linalg.norm(system.A, axis=1)
    A = system.A / norms[:, None]
    # Rescaling can leave norms a few ulps off 1; snap them exactly.
    A /= np.linalg.norm(A, axis=1)[:, None]
    b = system.b / norms
    out = LinearSystem(A, b, planted_solution=system.planted_solution, normalized=True)
    return out, RowScaling(norms)


def sym_eigenvalues(S) -> SpectralSummary:
    """All eigenvalues of a symmetric matrix S; ``rank_mask`` decides which
    count as nonzero (intended for PSD Gram matrices)."""
    S = as_matrix(S)
    if S.shape[0] != S.shape[1]:
        raise NotSquareError(f"matrix is {S.shape[0]}x{S.shape[1]}")
    scale = np.linalg.norm(S)
    asym = np.linalg.norm(S - S.T)
    if asym > 1e-10 * max(1.0, scale):
        raise NotSymmetricError(f"relative asymmetry {asym / max(1.0, scale):.3e}")
    return SpectralSummary.of(np.linalg.eigvalsh(0.5 * (S + S.T))[::-1])


def spectral_norm_sq(A) -> float:
    """Squared spectral norm ||A||^2 = sigma_max(A)^2."""
    return float(np.linalg.svd(as_matrix(A), compute_uv=False)[0]) ** 2


def least_squares_min_norm(A, r) -> np.ndarray:
    """Minimum-norm solution of min ||A x - r||: ``pseudoinverse`` times r."""
    A = as_matrix(A)
    r = as_vector(r, A.shape[0])
    return pseudoinverse(*np.linalg.svd(A, full_matrices=False)) @ r


class SolutionProjector:
    """Projection onto the solution set of A x = b from the system's SVD
    (Golub-Van Loan, 5.5): with V_r the right singular vectors ``rank_mask``
    keeps and c = Sigma_r^-1 U_r^T b, Pi_X(x) = x - V_r (V_r^T x - c) and
    dist^2(x) = ||V_r^T x - c||^2 = ||A^+ (A x - b)||^2.  Keeps V_r^T (rows
    of V^T: sigma is sorted descending), c and the system by weak proxy, so
    a system caching its projector forms no reference cycle."""

    def __init__(self, system: LinearSystem):
        u, s, vt = system.svd
        r = int(np.count_nonzero(rank_mask(s * s)))
        ub = u[:, :r].T @ system.b
        # b is outside range(A) when ||U_r U_r^T b - b|| exceeds the tolerance.
        gap = np.linalg.norm(u[:, :r] @ ub - system.b)
        if gap > CONSISTENCY_TOL * (1.0 + np.linalg.norm(system.b)):
            raise InconsistentSystemError(f"system residual floor {gap:.3e}")
        self.vt_r, self.c, self.system = vt[:r], ub / s[:r], weakref.proxy(system)

    def project(self, x: np.ndarray) -> np.ndarray:
        return x - (self.vt_r @ x - self.c) @ self.vt_r

    @cached_property
    def matvec_blocks(self) -> list[slice] | None:
        """``matvec_blocks`` of V_r^T: how ``dist_sq`` takes it for a stack."""
        return matvec_blocks(self.vt_r)

    def dist_sq(self, x: np.ndarray) -> np.ndarray:
        """||x - Pi_X(x)||^2 of one iterate (n,) or of each in a stack
        (..., n), each with the bits of its own call: V_r^T is taken as
        ``LinearSystem.residual`` takes A."""
        y = stacked_matvec(self.vt_r, x, self) - self.c
        return np.vecdot(y, y)


def project_onto_solution_set(system: LinearSystem, x) -> np.ndarray:
    """Pi_X(x) = x - A^+(A x - b): the closest point of {z : A z = b}.

    Raises :class:`InconsistentSystemError` when b is (numerically) outside
    range(A).
    """
    return system.projector.project(as_vector(x, system.n))
