"""The iteration kernels: the averaged-projection update that the basic
and the block (RBK) methods share, its one-row form, its one-block entry
points, and the block-projection step.

The averaged update works on one trial or on a stack of trials: X is
(..., n), each trial's drawn block J (..., tau), its rows AJ = A[J]
(..., tau, n).  Every stacked form gives each trial the bits of the
one-trial computation, so T trials in lockstep replay T serial runs:

- a per-row dot a . x is ``np.vecdot``, one BLAS ddot per pair like
  ``a @ x`` (einsum and (T, tau, n) @ (T, n, 1) round differently);
- a residual A x - b is ``np.matvec``, one gemv per trial like ``A @ x``
  (``LinearSystem.residual``), and its squared norm a self-``vecdot``, the
  ddot ``np.linalg.norm`` takes the square root of;
- the sum over a block is ``block_sum``, which adds the rows in sequence
  like ``d += term``, in ascending row order (drawn blocks are sorted);
  np.add.reduce sums pairwise where the summed axis is innermost;
- means and standard errors over trials are taken over C-contiguous
  (T, K + 1) stacks (a transposed stack sums in another order).

``row_step`` is the one-trial, one-row case with scalar arithmetic: on a
20-column system a ufunc call on a one-element array costs several times
the arithmetic, and a run of one trial with one-row blocks is mostly such
calls.
"""

from __future__ import annotations

import numpy as np

from .errors import ZeroRowError
from .linalg import ZERO_ROW_NORM_SQ, LinearSystem, block_sum, least_squares_min_norm

BASIC = "basic"
RBK = "rbk"
BLOCK_PROJECTION = "block-projection"


def check_rows(J: np.ndarray, norms: np.ndarray) -> None:
    """Raise ZeroRowError naming the first zero row of A among the drawn."""
    if norms.size and norms.min() < ZERO_ROW_NORM_SQ:
        raise ZeroRowError(int(J[norms < ZERO_ROW_NORM_SQ][0]))


def averaged_update(X, AJ, bJ, norms, weights, alpha) -> np.ndarray:
    """x - alpha * sum_i ((w_i (a_i . x - b_i)) / ||a_i||^2) a_i per trial;
    ``weights=None`` is weight 1 (the basic step).  Overwrites the gathered
    rows ``AJ`` with the terms of the sum."""
    r = np.vecdot(AJ, X[..., None, :]) - bJ
    coef = (r if weights is None else weights * r) / norms
    return X - alpha * block_sum(np.multiply(coef[..., None], AJ, out=AJ), axis=-2)


def row_step(x: np.ndarray, a: np.ndarray, b_i, norm, weight, alpha) -> np.ndarray:
    """``averaged_update`` for one trial x (n,) and the one-row block a, in
    scalar arithmetic with the same bits."""
    r = a.dot(x) - b_i
    return x - alpha * (((r if weight is None else weight * r) / norm) * a + 0.0)


def basic_kaczmarz_step(x: np.ndarray, row: np.ndarray, b_i: float, alpha: float) -> np.ndarray:
    """x - alpha * ((row.x - b_i) / ||row||^2) * row.

    alpha = 1 projects exactly onto the row's hyperplane; alpha = 2 reflects.
    """
    norm = row.dot(row)
    if norm < ZERO_ROW_NORM_SQ:
        raise ZeroRowError(0)
    return row_step(x, row, b_i, norm, None, alpha)


def rbk_step(
    x: np.ndarray,
    system: LinearSystem,
    J: np.ndarray,
    weights: np.ndarray,
    alpha: float,
) -> np.ndarray:
    """Averaged-projection update over the block J.

    Per-row terms are reduced in ascending row-index order so replays are
    bit-reproducible regardless of how callers parallelize row work.
    """
    J, weights = np.asarray(J, dtype=int), np.asarray(weights, dtype=float)
    if J.size == 1:
        i, norm = J[0], system.row_dots[J[0]]
        if norm < ZERO_ROW_NORM_SQ:
            raise ZeroRowError(int(i))
        return row_step(np.asarray(x, dtype=float), system.A[i], system.b[i], norm, weights[0], alpha)
    order = J.argsort(kind="stable")
    J, weights = J.take(order), weights.take(order)
    norms = system.row_dots.take(J)
    check_rows(J, norms)
    return averaged_update(np.asarray(x, dtype=float), system.A.take(J, axis=0),
                           system.b.take(J), norms, weights, alpha)


def block_projection_step(
    x: np.ndarray, system: LinearSystem, J: np.ndarray, alpha: float = 1.0
) -> np.ndarray:
    """x - alpha * A_J^+ (A_J x - b_J); with alpha = 1 this solves the
    whole block exactly (up to rank deficiency)."""
    J = np.asarray(J, dtype=int)
    A_J = system.A[J]
    r = A_J @ x - system.b[J]
    return x - alpha * least_squares_min_norm(A_J, r)
