"""The lockstep engine: T runs of one solver configuration advanced
together on a (T, n) array of iterates, each trial drawing its blocks from
its own seed.  ``run_solver`` is its one-trial case and ``run_monte_carlo``
its T-trial case (see :mod:`kaczlab.solver`).  It draws, groups, records
and stops the trials; ``Trials._step`` hands each group of trials to the
method's kernel of :mod:`kaczlab.kernels`, whose stacked forms give every
trial the bits of a run on its own.

A run of one trial keeps its iterate as an (n,) vector, so that per-trial
values are numpy scalars and ``averaged_step`` takes a one-row block in
scalar arithmetic.

A run records each per-step series as one list with an entry per step.
While every trial is live an entry is the step's values over the stack;
once some trial has left, it is a copy of the previous entry with the live
trials' values written in, so a stopped trial carries its last value
forward and the list stacks into (K + 1, T, ...) as it stands.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigMismatchError
from .kernels import (
    BASIC,
    BLOCK_PROJECTION,
    adaptive_step,
    averaged_step,
    block_pinvs,
    block_projection_step,
    factored_projection_step,
)
from .linalg import LinearSystem, as_vector
from .sampling import BlockStream, check_covers

if TYPE_CHECKING:
    from .solver import SolverConfig

NORMS_ONLY = "norms"
FULL_ITERATES = "iterates"

# An adaptive run is declared stalled after this many consecutive skips.
STALL_LIMIT = 100

CONVERGED = "converged"
DIVERGED = "diverged"
MAX_ITERS = "max-iters"
STALLED = "stalled"
# A finished trial's status, by the code ``Trials._run`` writes.
_STATUSES = np.array([MAX_ITERS, STALLED, CONVERGED, DIVERGED], dtype=object)


def pad_to(series: np.ndarray, length: int) -> np.ndarray:
    """``series`` with its last entry repeated up to ``length`` entries."""
    return np.concatenate([series, np.repeat(series[-1:], length - len(series), axis=0)])


def square_threshold(tol: float) -> float:
    """The largest s with sqrt(s) <= tol.  sqrt rounds correctly, so it is
    monotone, and ``s <= square_threshold(tol)`` is ``sqrt(s) <= tol``
    without taking the root (both False for a NaN s)."""
    tol = float(tol)
    if not tol < math.inf:
        return tol
    s = tol * tol
    while s > 0.0 and math.sqrt(s) > tol:
        s = math.nextafter(s, 0.0)
    while math.sqrt(math.nextafter(s, math.inf)) <= tol:
        s = math.nextafter(s, math.inf)
    return s


def runs_on(s, tol_sq: float):
    """Whether a trial at squared residual ``s`` takes another step: while
    s is above ``tol_sq`` and finite.  At or below it the trial has
    converged; an inf or NaN s (``not s < inf``) ends it as diverged."""
    return (s > tol_sq) & (s < math.inf)


class Trials:
    """T runs of one configuration advanced in lockstep, trial t drawing its
    blocks from ``np.random.default_rng(seeds[t])``, ``seeds[t]`` an int or
    a seed sequence (a Generator raises ``TypeError``: see ``WordSource``);
    a trial that stops leaves the stack.

    Each step appends one entry to every column (``residual_sq``, the
    squared residual norm; ``dist_sq`` with diagnostics; ``alpha`` of
    adaptive runs; ``iterates`` at trace level ``iterates``): the values of
    all trials, a trial that has stopped keeping its last value.  After the
    run, ``iterations``, ``status`` and ``final_x`` hold each trial's K,
    status and x^K (lists, and a (T, n) array), ``series`` gives a column
    as recorded and ``column`` a padded one; ``blocks`` gives the drawn
    blocks of a run of one trial.
    """

    def __init__(self, config: SolverConfig, system: LinearSystem, seeds,
                 x0: np.ndarray | None = None):
        check_covers(config.sampling, system)
        if config.method == BASIC and config.sampling.mean_block_size() != 1.0:
            raise ConfigMismatchError("basic method requires |J| = 1 sampling")
        self.alphas = config.stepsize.stepsizes(config.weights, config.max_iters)
        if config.method == BLOCK_PROJECTION and self.alphas is None:
            raise ConfigMismatchError("adaptive stepsize applies to the averaged update only")
        if config.method != BLOCK_PROJECTION:
            system.check_nonzero_rows()
        # Partition blocks recur: block projection applies their pseudoinverses,
        # built once per system and partition; other blocks are factored per step.
        self.pinvs = (block_pinvs(system, config.sampling)
                      if config.method == BLOCK_PROJECTION and config.sampling.blocks_recur
                      else None)
        self.config, self.system = config, system
        # Building the projector also raises InconsistentSystemError when b
        # lies outside range(A).
        self.projector = (system.projector if config.diagnostics or system.planted_solution is None
                          else None)
        tol = config.residual_tol
        if tol is None:
            tol = 1e-8 * (1.0 + float(np.linalg.norm(system.b)))
        self.tol_sq = square_threshold(tol)

        x = np.zeros(system.n) if x0 is None else as_vector(x0, system.n)
        self.T = T = len(seeds)
        self.single = T == 1
        self.stream = BlockStream(config.sampling, seeds, config.max_iters)
        iterations, codes = np.zeros(T, dtype=int), np.zeros(T, dtype=int)
        self.final_x = np.empty((T, system.n))
        # A one-trial run's draws (from k = 1), for ``blocks``.
        self.drawn = [] if self.single else None
        self.columns = {"residual_sq": []}
        if config.diagnostics:
            self.columns["dist_sq"] = []
        if self.alphas is None:
            self.columns["alpha"] = []
        if config.trace_level == FULL_ITERATES:
            self.columns["iterates"] = []
        # A diverging trial overflows, and inf - inf gives NaN: its status,
        # DIVERGED, reports that, not numpy's warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            self._run(x if self.single else np.repeat(x[None], T, axis=0), iterations, codes)
        self.iterations, self.status = iterations.tolist(), _STATUSES[codes].tolist()

    def _run(self, X: np.ndarray, iterations: np.ndarray, codes: np.ndarray) -> None:
        """Step the trials until each stops, writing its K, status code
        (an index of ``_STATUSES``) and x^K as it leaves."""
        system, projector, stream = self.system, self.projector, self.stream
        max_iters, tol_sq, alphas, single = self.config.max_iters, self.tol_sq, self.alphas, self.single
        residual_sq, dist_sq, alpha_col, iterates = (
            self.columns.get(name) for name in ("residual_sq", "dist_sq", "alpha", "iterates"))
        drawn = self.drawn
        live = np.arange(self.T)
        # Appends a step's values to a column: as they are while every
        # trial is live, then written over a copy of the previous entry.
        record = list.append

        def carry(column: list, values) -> None:
            row = column[-1].copy()
            row[live] = values
            column.append(row)

        # Consecutive skips per live trial; None while no trial is skipping.
        skips = None
        alpha = None if alpha_col is None else (math.nan if single else np.full(self.T, np.nan))
        k = 0
        while True:
            R = system.residual(X)
            s = np.vecdot(R, R)
            record(residual_sq, s)
            if dist_sq is not None:
                record(dist_sq, projector.dist_sq(X))
            if alpha_col is not None:
                record(alpha_col, alpha)
            if iterates is not None:
                record(iterates, X)
            go = runs_on(s, tol_sq)
            stalled = None if skips is None else skips >= STALL_LIMIT
            stop = ~go if stalled is None else ~go | stalled
            if k == max_iters or (stop if single else stop.any()):
                # Every trial that stops, at once: its status is CONVERGED or
                # DIVERGED where it no longer runs on, else STALLED or MAX_ITERS.
                if k == max_iters:
                    stop = np.ones_like(stop)
                code = np.where(go, 0 if stalled is None else stalled.astype(int),
                                np.where(s <= tol_sq, 2, 3))
                if single:
                    iterations[0], codes[0], self.final_x[0] = k, code, X
                    return
                ended = live[stop]
                iterations[ended], codes[ended], self.final_x[ended] = k, code[stop], X[stop]
                if len(ended) == len(live):
                    return
                keep = ~stop
                live, X = live[keep], X[keep]
                skips = None if skips is None else skips[keep]
                stream.keep(keep)
                record = carry
            k += 1
            draw = stream.next()
            if drawn is not None:
                drawn.append(draw)
            X, alpha, moved = self._step(X, draw, None if alphas is None else alphas[k - 1])
            skips = None if moved is None else np.where(moved, 0, 1 if skips is None else skips + 1)

    def _step(self, X: np.ndarray, draw: np.ndarray, alpha):
        """(iterates, alpha, moved) after every trial's step on its drawn
        block.  With ``alpha`` None the step is adaptive, and alpha and
        moved are ``adaptive_step``'s; otherwise alpha is the one given.
        moved is None when no step is skipped."""
        config, system = self.config, self.system
        step_weights = config.weights.step_weights
        out = None
        for sel, J in self.stream.groups(draw):
            Xg = X if sel is None else X[sel]
            step_alpha, moved = alpha, None
            if alpha is None:
                new, step_alpha, moved = adaptive_step(Xg, system, J, step_weights(system, J),
                                                       config.stepsize.delta)
            elif self.pinvs is not None:
                pinv = self.pinvs.take(draw if sel is None else draw[sel], J.shape[-1])
                new = factored_projection_step(Xg, system, J, pinv, alpha)
            elif config.method == BLOCK_PROJECTION:
                new = block_projection_step(Xg, system, J, alpha)
            else:
                new = averaged_step(Xg, system, J, step_weights(system, J), alpha)
            if sel is None:
                return new, step_alpha, (None if moved is None or moved.all() else moved)
            if out is None:
                out, alphas = np.empty_like(X), np.empty(len(X))
                all_moved = np.ones(len(X), dtype=bool)
            out[sel], alphas[sel] = new, step_alpha
            if moved is not None:
                all_moved[sel] = moved
        return out, alphas, (None if all_moved.all() else all_moved)

    def column(self, name: str, width: int) -> np.ndarray:
        """One column as a C-contiguous (T, width, ...) stack; a trial's
        entries past its last step repeat its last value."""
        series = self.columns[name]
        K = len(series)
        out = np.empty((self.T, width, *series[0].shape[1:]), dtype=series[0].dtype)
        out.swapaxes(0, 1)[:K] = series
        out[:, K:] = out[:, K - 1:K]
        return out

    def series(self, name: str) -> np.ndarray:
        """One column as recorded: (K + 1, ...) for a run of one trial,
        (K + 1, T, ...) for T trials, K being the largest of theirs."""
        return np.array(self.columns[name])

    def blocks(self) -> list[np.ndarray | None]:
        """The drawn blocks of a one-trial run, None at k = 0."""
        return [None] + [self.stream.block(draw) for draw in self.drawn]
