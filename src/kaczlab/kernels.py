"""The iteration kernels: each method's whole step on a drawn block of
rows.  ``averaged_step`` is the averaged projection that the basic and the
block (RBK) methods share, ``adaptive_step`` the same update with the
adaptive stepsize, and ``block_projection_step`` the exact projection
(``factored_projection_step`` with the block's pseudoinverse given; for
the blocks of a partition ``block_pinvs`` builds them once per system).

The averaged steps work on one trial or on a stack of trials: X is
(..., n), each trial's drawn block J (..., tau), its rows AJ = A[J]
(..., tau, n).  Every stacked form gives each trial the bits of the
one-trial computation, so T trials in lockstep replay T serial runs:

- a per-row dot a . x is ``np.vecdot``, one BLAS ddot per pair like
  ``a @ x`` (a stacked (T, tau, n) @ (T, n, 1) rounds differently);
- a residual A x - b is ``np.matvec``, one gemv per trial like ``A @ x``
  (``LinearSystem.residual``), and its squared norm a self-``vecdot``, the
  ddot ``np.linalg.norm`` takes the square root of.  A stack of two or more
  takes A in row blocks of about ``ROW_BLOCK_BYTES``, a multiple of 4 rows
  each (``linalg.row_blocks``), so a block stays in cache for every
  trial's gemv.  That keeps each row's bits only while the BLAS computes a
  row the same in a block as in a whole gemv: never a one-row block (numpy
  takes one row down another path), and ``linalg.matvec_blocks`` checks it
  on a probe stack once per matrix, falling back to whole gemvs;
- the sum over a block is ``block_sum``, which adds the rows in sequence
  like ``d += term``, in ascending row order (drawn blocks are sorted);
  np.add.reduce sums pairwise where the summed axis is innermost;
- means and standard errors over trials are taken over C-contiguous
  (T, K + 1) stacks (a transposed stack sums in another order).

``averaged_step`` takes one trial's (n,) iterate and a one-row block in
scalar arithmetic (``row_step``): on a 20-column system a ufunc call on a
one-element array costs several times the arithmetic, and a run of one
trial with one-row blocks is mostly such calls.  The engine reaches that
form only through ``averaged_step``.
"""

from __future__ import annotations

import numpy as np

from .linalg import LinearSystem, check_row_norms, pseudoinverse

BASIC = "basic"
RBK = "rbk"
BLOCK_PROJECTION = "block-projection"
METHODS = (BASIC, RBK, BLOCK_PROJECTION)

# Squared direction norms below this make an adaptive step degenerate.
DIRECTION_EPS = 1e-28


def block_sum(terms: np.ndarray, axis: int) -> np.ndarray:
    """The sum over the (negative) ``axis`` in index order: the bits of
    ``s = 0.0`` then ``s += t`` for each t along the axis.  May overwrite
    ``terms``.

    ``np.add.reduce`` sums pairwise when the summed axis ends up innermost
    (the adaptive numerator's axis -1, or rows of length 1), and adds the
    rows in sequence otherwise: it takes the rows of a C-contiguous
    (..., tau, n) stack with n > 1.  ``accumulate`` adds in sequence for
    every shape.  Adding 0.0 gives the +0.0 that starting from 0.0 leaves
    where every term is -0.0.
    """
    if axis == -2 and terms.shape[-1] > 1:
        total = np.add.reduce(terms, axis=-2)
    else:
        if terms.shape[axis] > 1:
            np.add.accumulate(terms, axis=axis, out=terms)
        total = terms[(..., -1) + (slice(None),) * (-1 - axis)]
    return total + 0.0


def row_step(x: np.ndarray, a: np.ndarray, b_i, norm, weight, alpha) -> np.ndarray:
    """``averaged_step`` for one trial x (n,) and the one-row block a, in
    scalar arithmetic with the same bits."""
    r = a.dot(x) - b_i
    return x - alpha * (((r if weight is None else weight * r) / norm) * a + 0.0)


def averaged_step(X: np.ndarray, system: LinearSystem, J: np.ndarray, weights,
                  alpha) -> np.ndarray:
    """x - alpha * sum_i ((w_i (a_i . x - b_i)) / ||a_i||^2) a_i for the
    iterates X (..., n) and their sorted blocks J (..., tau), by ``row_step``
    for one trial and one row.  ``weights`` are (..., tau), one scalar for
    all, or None for weight 1."""
    if X.ndim == 1 and J.size == 1:
        i = J[0]
        w = weights if weights is None or isinstance(weights, float) else weights[0]
        return row_step(X, system.A[i], system.b[i], system.row_norms_sq[i], w, alpha)
    AJ = system.A.take(J, axis=0)
    r = np.vecdot(AJ, X[..., None, :]) - system.b.take(J)
    coef = (r if weights is None else weights * r) / system.row_norms_sq.take(J)
    return X - alpha * block_sum(np.multiply(coef[..., None], AJ, out=AJ), axis=-2)


def adaptive_steps(
    block_rows: np.ndarray, residuals: np.ndarray, weights, norms: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``stepsize.adaptive_alpha``'s L and direction for one block or a stack.

    Takes (..., tau, n) rows with their (..., tau) residuals, weights (or one
    scalar weight for all) and squared norms (none zero); returns (L, d,
    moved): L is NaN where the block's step is skipped (``moved`` False).
    The sums over a block run in row order, so each block of a stack gets
    the bits of a one-block call.  Overwrites ``block_rows`` with the terms
    of d.
    """
    scaled = (weights / norms) * residuals
    numer = block_sum(scaled * residuals, axis=-1)
    d = block_sum(np.multiply(scaled[..., None], block_rows, out=block_rows), axis=-2)
    dnorm_sq = np.vecdot(d, d)
    # All-zero residuals give d = 0, so this also skips them.
    moved = ~(dnorm_sq < DIRECTION_EPS)
    L = np.divide(numer, dnorm_sq, out=np.full(moved.shape, np.nan), where=moved)
    return L, d, moved


def adaptive_step(X: np.ndarray, system: LinearSystem, J: np.ndarray, weights, delta: float):
    """(iterates, alpha, moved): ``averaged_step`` with alpha = (2 - delta) L
    (see ``adaptive_steps``).  Where a block's step is skipped alpha is NaN
    and the iterate stays."""
    AJ = system.A.take(J, axis=0)
    # One gemv per block, like A_J @ x.
    residuals = np.matvec(AJ, X) - system.b.take(J)
    L, d, moved = adaptive_steps(AJ, residuals, 1.0 if weights is None else weights,
                                 system.row_norms_sq.take(J))
    alpha = (2.0 - delta) * L
    new = X - alpha[..., None] * d
    if not moved.all():
        new = np.where(moved[..., None], new, X)
    return new, alpha, moved


def basic_kaczmarz_step(x: np.ndarray, row: np.ndarray, b_i: float, alpha: float) -> np.ndarray:
    """x - alpha * ((row.x - b_i) / ||row||^2) * row.

    alpha = 1 projects exactly onto the row's hyperplane; alpha = 2 reflects.
    """
    norm = row.dot(row)
    check_row_norms(norm)
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
    if J.size > 1:
        order = J.argsort(kind="stable")
        J, weights = J.take(order), weights.take(order)
    if system.has_zero_rows:
        check_row_norms(system.row_norms_sq.take(J), J)
    return averaged_step(np.asarray(x, dtype=float), system, J, weights, alpha)


def block_projection_step(
    x: np.ndarray, system: LinearSystem, J: np.ndarray, alpha: float = 1.0
) -> np.ndarray:
    """x - alpha * A_J^+ (A_J x - b_J) (alpha = 1 solves the block, up to rank
    deficiency) for one trial or a stack (T, n) with blocks (T, tau): the
    bits of ``factored_projection_step`` with the factor ``BlockPinvs`` builds."""
    J = np.asarray(J, dtype=int)
    pinv = pseudoinverse(*np.linalg.svd(system.A.take(J, axis=0), full_matrices=False))
    return factored_projection_step(x, system, J, pinv, alpha)


class BlockPinvs:
    """The pseudoinverse A_J^+ (n, tau_J) of every block a partition can
    draw, stacked by size as its ``support_groups`` are: m * n floats at
    most.  A stacked SVD per size gives each factor the bits
    ``block_projection_step`` uses, for any block; a block of all m rows
    is A, whose factor comes from the system's SVD with the same bits."""

    def __init__(self, system: LinearSystem, spec):
        # Drawable block l's factor is self.stacks[|J_l|][self.slot[l]].
        self.slot = spec._slot
        self.stacks = {size: (pseudoinverse(*system.svd)[None] if size == system.m
                              else pseudoinverse(*np.linalg.svd(system.A.take(rows, axis=0),
                                                                full_matrices=False)))
                       for size, rows in spec._support}

    def take(self, drawn, size: int) -> np.ndarray:
        """The factors of the drawn blocks ``drawn`` (...), all of ``size``
        rows: (..., n, size)."""
        return self.stacks[size][self.slot[drawn]]


def block_pinvs(system: LinearSystem, spec) -> BlockPinvs:
    """``BlockPinvs`` of the partition ``spec``, built once per system, blocks
    and drawable blocks, so laws that draw the same blocks share them: the
    system's cache keeps the latest, m * n factor floats at most."""
    key = ("block_pinvs", spec.blocks, tuple((size, rows.tobytes()) for size, rows in spec._support))
    return system.cached(key, lambda: BlockPinvs(system, spec))


def factored_projection_step(X: np.ndarray, system: LinearSystem, J: np.ndarray,
                             pinv: np.ndarray, alpha) -> np.ndarray:
    """``block_projection_step`` with each block's pseudoinverse given:
    x - alpha * A_J^+ (A_J x - b_J) for the iterates X (..., n), their blocks
    J (..., tau) and factors ``pinv`` (..., n, tau), one gemv per trial for
    each product."""
    r = np.matvec(system.A.take(J, axis=0), X) - system.b.take(J)
    return X - alpha * np.matvec(pinv, r)
