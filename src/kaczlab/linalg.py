"""Dense linear-algebra kernel: row normalization, symmetric spectra,
min-norm least squares, and projection onto the solution set.

Everything here is sized for desk-scale problems (m, n up to a few
thousand) and works on plain float64 numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InconsistentSystemError,
    NotSquareError,
    NotSymmetricError,
    ZeroRowError,
)

# Eigenvalues below RANK_TOL * lambda_max count as zero.
RANK_TOL = 1e-10
# Rows with norm below this are rejected as zero rows.
ZERO_ROW_TOL = 1e-14
# b counts as outside range(A) when ||A A^+ b - b|| exceeds this times
# 1 + ||b||.
CONSISTENCY_TOL = 1e-6


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


@dataclass(frozen=True)
class LinearSystem:
    """A consistent dense system A x = b.

    ``planted_solution`` is an optional known solution (problem generators
    always store one); ``normalized`` asserts every row of A has unit norm.
    Instances are immutable and safe to share across threads.  What
    depends only on the system (row norms, the spectrum of A A^T, the
    solution projector) is computed on first use and cached.
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
        return np.einsum("ij,ij->i", self.A, self.A)

    @cached_property
    def gram_spectrum(self) -> SpectralSummary:
        """Eigenvalues of A A^T."""
        return sym_eigenvalues(self.A @ self.A.T)

    @cached_property
    def projector(self) -> SolutionProjector:
        """Raises :class:`InconsistentSystemError` when b is outside range(A)."""
        # Built on a cache-free system sharing A and b: a projector holding
        # this system would form a reference cycle, which keeps A and the
        # pseudoinverse alive until the cycle collector runs.
        return SolutionProjector(LinearSystem(self.A, self.b))

    def residual(self, x: np.ndarray) -> np.ndarray:
        return self.A @ x - self.b

    def residual_norm(self, x: np.ndarray) -> float:
        return float(np.linalg.norm(self.residual(x)))


@dataclass(frozen=True)
class RowScaling:
    """Original row norms recorded by :func:`normalize_rows`, so user
    systems can be round-tripped."""

    scales: np.ndarray

    def __post_init__(self):
        s = as_vector(self.scales)
        if np.any(s <= 0):
            raise ValueError("row scales must be positive")
        object.__setattr__(self, "scales", s)


@dataclass(frozen=True)
class SpectralSummary:
    """Eigenvalues of a symmetric matrix, sorted descending, with the
    smallest-nonzero bookkeeping used throughout the rate formulas."""

    eigenvalues: np.ndarray  # descending
    lambda_max: float
    lambda_min: float
    lambda_min_nz: float  # smallest eigenvalue above RANK_TOL * lambda_max
    rank_estimate: int


def normalize_rows(system: LinearSystem) -> tuple[LinearSystem, RowScaling]:
    """Divide each row a_i and entry b_i by ||a_i||.

    The solution set is unchanged.  Raises :class:`ZeroRowError` for rows
    with norm below ``ZERO_ROW_TOL``.
    """
    norms = np.linalg.norm(system.A, axis=1)
    small = np.flatnonzero(norms < ZERO_ROW_TOL)
    if small.size:
        raise ZeroRowError(int(small[0]))
    A = system.A / norms[:, None]
    # Rescaling can leave norms a few ulps off 1; snap them exactly.
    A /= np.linalg.norm(A, axis=1)[:, None]
    b = system.b / norms
    out = LinearSystem(A, b, planted_solution=system.planted_solution, normalized=True)
    return out, RowScaling(norms)


def sym_eigenvalues(S) -> SpectralSummary:
    """All eigenvalues of a symmetric matrix S.

    ``rank_estimate`` counts eigenvalues exceeding ``RANK_TOL *
    lambda_max`` (intended for PSD Gram matrices); ``lambda_min_nz`` is the
    smallest such eigenvalue, or 0.0 when none qualifies.
    """
    S = as_matrix(S)
    if S.shape[0] != S.shape[1]:
        raise NotSquareError(f"matrix is {S.shape[0]}x{S.shape[1]}")
    scale = np.linalg.norm(S)
    asym = np.linalg.norm(S - S.T)
    if asym > 1e-10 * max(1.0, scale):
        raise NotSymmetricError(f"relative asymmetry {asym / max(1.0, scale):.3e}")
    eig = np.linalg.eigvalsh(0.5 * (S + S.T))[::-1]  # descending
    lam_max = float(eig[0])
    nonzero = eig[eig > RANK_TOL * lam_max] if lam_max > 0 else eig[:0]
    return SpectralSummary(
        eigenvalues=eig,
        lambda_max=lam_max,
        lambda_min=float(eig[-1]),
        lambda_min_nz=float(nonzero[-1]) if nonzero.size else 0.0,
        rank_estimate=int(nonzero.size),
    )


def spectral_norm_sq(A) -> float:
    """Squared spectral norm ||A||^2 = lambda_max(A^T A), computed on the
    smaller of the two Gram matrices."""
    A = as_matrix(A)
    m, n = A.shape
    G = A @ A.T if m <= n else A.T @ A
    return sym_eigenvalues(G).lambda_max


def least_squares_min_norm(A, r) -> np.ndarray:
    """Minimum-norm solution of min ||A x - r|| (the action of the
    pseudoinverse), with rank cutoff RANK_TOL * sigma_max."""
    A = as_matrix(A)
    r = as_vector(r, A.shape[0])
    x, *_ = np.linalg.lstsq(A, r, rcond=RANK_TOL)
    return x


class SolutionProjector:
    """Projection onto the solution set of A x = b with a cached
    pseudoinverse, for repeated per-iterate diagnostics."""

    def __init__(self, system: LinearSystem):
        self.system = system
        self._pinv = np.linalg.pinv(system.A, rcond=RANK_TOL)
        # ||A A^+ b - b|| > tol means b is not in range(A).
        gap = np.linalg.norm(system.A @ (self._pinv @ system.b) - system.b)
        if gap > CONSISTENCY_TOL * (1.0 + np.linalg.norm(system.b)):
            raise InconsistentSystemError(f"system residual floor {gap:.3e}")

    def project(self, x: np.ndarray) -> np.ndarray:
        return x - self._pinv @ (self.system.A @ x - self.system.b)

    def dist_sq(self, x: np.ndarray) -> float:
        """||x - Pi_X(x)||^2."""
        d = self._pinv @ (self.system.A @ x - self.system.b)
        return float(d @ d)


def project_onto_solution_set(system: LinearSystem, x) -> np.ndarray:
    """Pi_X(x) = x - A^+(A x - b): the closest point of {z : A z = b}.

    Raises :class:`InconsistentSystemError` when b is (numerically) outside
    range(A).
    """
    return system.projector.project(as_vector(x, system.n))
