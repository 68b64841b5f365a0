"""The lockstep engine: T runs of one solver configuration advanced
together on a (T, n) array of iterates, each trial drawing its blocks from
its own seed.  ``run_solver`` is its one-trial case and ``run_monte_carlo``
its T-trial case (see :mod:`kaczlab.solver`).  It draws, groups, records
and stops the trials; ``Trials._step`` hands each group of trials to the
method's kernel of :mod:`kaczlab.kernels`, whose stacked forms give every
trial the bits of a run on its own.

A run of one trial steps its iterate as an (n,) vector, so that a step's
per-trial values are numpy scalars and ``averaged_step`` takes a one-row
block in scalar arithmetic; its windows are (W, 1, n) stacks.

A run checks its stop rule once per window of steps: it steps the live
trials W times with no residual, keeping each iterate in a (W, T, n)
stack, then takes the window's A x - b (and dist^2 with diagnostics) as
one stacked product, which reads each row block of A once for the W T
iterates (``linalg.stacked_matvec``), and finds each trial's first step
that stops it.  Windows hold 1, 2, 4, ... steps, up to WINDOW_STEPS and
WINDOW_BYTES, so a run steps on past its stop at most min(K, WINDOW_STEPS
- 1) times; those steps, and the draws they take, are dropped.

A run records each per-step series one window at a time, the window's
values of its live trials; a trial that has stopped carries its last value
forward, written once when a column is read (``column``).
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
)
from .linalg import LinearSystem, as_vector
from .sampling import BlockStream, check_covers

if TYPE_CHECKING:
    from .solver import SolverConfig

NORMS_ONLY = "norms"
FULL_ITERATES = "iterates"

# An adaptive run is declared stalled after this many consecutive skips.
STALL_LIMIT = 100

# The most steps a window of ``Trials._run`` holds, and the most bytes of
# its widest stack (its residuals or iterates: W T max(m, n) float64
# values).  Windows double from one step up to both bounds.
WINDOW_STEPS = 32
WINDOW_BYTES = 1 << 19

CONVERGED = "converged"
DIVERGED = "diverged"
MAX_ITERS = "max-iters"
STALLED = "stalled"
# A finished trial's status, by the code ``Trials._run`` writes.
_STATUSES = np.array([MAX_ITERS, STALLED, CONVERGED, DIVERGED], dtype=object)


def pad_to(series: np.ndarray, length: int) -> np.ndarray:
    """``series`` with its last entry repeated up to ``length`` entries."""
    return np.concatenate([series, np.repeat(series[-1:], length - len(series), axis=0)])


def runs_on(r, tol: float):
    """Whether a trial at residual norm ``r`` takes another step: while r
    is above ``tol`` and finite.  At or below it the trial has converged;
    an inf or NaN r (``not r < inf``) ends it as diverged."""
    return (r > tol) & (r < math.inf)


class Trials:
    """T runs of one configuration advanced in lockstep, trial t drawing its
    blocks from the raw words of ``PCG64(seeds[t])``, the bit generator of
    ``np.random.default_rng(seeds[t])``, ``seeds[t]`` an int or a seed
    sequence (a Generator raises ``TypeError``: see ``WordSource``); a
    trial's blocks depend on its seed alone, and a trial that stops leaves
    the stack.

    Each window of steps appends one entry to every column (``residual``,
    the residual norm ||A x - b||; ``dist_sq`` with diagnostics; ``alpha`` of
    adaptive runs; ``iterates`` at trace level ``iterates``): its first
    step, its live trials (None for all) and their values at each of its
    steps.  After the run, ``iterations``, ``status`` and ``final_x`` hold
    each trial's K, status and x^K (lists, and a (T, n) array), ``column``
    gives a column padded to a width, a trial that has stopped keeping its
    last value, and ``blocks`` the drawn blocks of a run of one trial.
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
        self.tol = config.residual_tol
        if self.tol is None:
            self.tol = 1e-8 * (1.0 + float(np.linalg.norm(system.b)))

        x = np.zeros(system.n) if x0 is None else as_vector(x0, system.n)
        self.T = T = len(seeds)
        self.stream = BlockStream(config.sampling, seeds, config.max_iters)
        iterations, codes = np.zeros(T, dtype=int), np.zeros(T, dtype=int)
        self.final_x = np.empty((T, system.n))
        # A one-trial run's draws (from k = 1), for ``blocks``.
        self.drawn = [] if T == 1 else None
        self.columns = {"residual": []}
        if config.diagnostics:
            self.columns["dist_sq"] = []
        if self.alphas is None:
            self.columns["alpha"] = []
        if config.trace_level == FULL_ITERATES:
            self.columns["iterates"] = []
        # A diverging trial overflows, and inf - inf gives NaN: its status,
        # DIVERGED, reports that, not numpy's warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            self._run(x if T == 1 else np.repeat(x[None], T, axis=0), iterations, codes)
        self.iterations, self.status = iterations.tolist(), _STATUSES[codes].tolist()

    def _run(self, X: np.ndarray, iterations: np.ndarray, codes: np.ndarray) -> None:
        """Step the trials a window at a time until each stops, writing its
        K, status code (an index of ``_STATUSES``) and x^K as it leaves."""
        system, projector, stream, columns = self.system, self.projector, self.stream, self.columns
        max_iters, tol, alphas, drawn, T = (self.config.max_iters, self.tol, self.alphas,
                                            self.drawn, self.T)
        n, width = system.n, max(system.shape)
        live = np.arange(T)
        # The first window is x^0 alone; k is the step of its last iterate.
        window, k, W = X.reshape(1, T, n), 0, 1
        alpha_w = np.full((1, T), np.nan) if alphas is None else None
        # Consecutive skips (NaN alphas) per live trial, and per window step
        # of adaptive runs.
        skips, skips_w = np.zeros(T, dtype=int), None
        while True:
            flat = window.reshape(-1, n)
            R = system.residual(flat)
            r = np.sqrt(np.vecdot(R, R)).reshape(window.shape[:2])
            del R  # freed before the next window is stepped
            k0, sel = k + 1 - len(window), None if len(live) == T else live
            for name, values in (("residual", r), ("alpha", alpha_w), ("iterates", window)):
                if name in columns:
                    columns[name].append((k0, sel, values))
            if "dist_sq" in columns:
                columns["dist_sq"].append((k0, sel, projector.dist_sq(flat).reshape(r.shape)))
            go = runs_on(r, tol)
            stalled = None if skips_w is None else skips_w >= STALL_LIMIT
            stop = ~go if stalled is None else ~go | stalled
            if k == max_iters:
                stop[-1] = True
            ended = stop.any(axis=0)
            if ended.any():
                # Each trial that stops, at its first stopping step j: its
                # status is CONVERGED or DIVERGED where it no longer runs on,
                # else STALLED or MAX_ITERS.
                at = np.flatnonzero(ended)
                j = stop.argmax(axis=0)[at]
                code = np.where(go[j, at], 0 if stalled is None else stalled[j, at],
                                np.where(r[j, at] <= tol, 2, 3))
                who = live[at]
                iterations[who], codes[who], self.final_x[who] = k0 + j, code, window[j, at]
                if len(at) == len(live):
                    if drawn is not None:
                        del drawn[iterations[0]:]
                    return
                keep = ~ended
                live, X, skips = live[keep], X[keep], skips[keep]
                stream.keep(keep)
            W = min(2 * W, WINDOW_STEPS, max(1, WINDOW_BYTES // (8 * len(live) * width)),
                    max_iters - k)
            window = np.empty((W, len(live), n))
            alpha_w = None if alpha_w is None else np.empty((W, len(live)))
            for w in range(W):
                k += 1
                draw = stream.next()
                if drawn is not None:
                    drawn.append(draw)
                X, alpha = self._step(X, draw, None if alphas is None else alphas[k - 1])
                window[w] = X
                if alpha_w is not None:
                    alpha_w[w] = alpha
            if alpha_w is not None:
                # Each step's consecutive skips: the steps since the window's
                # last unskipped step, or the count carried in plus the step's.
                steps = np.arange(1, W + 1)[:, None]
                last = np.maximum.accumulate(np.where(np.isnan(alpha_w), 0, steps), axis=0)
                skips_w = np.where(last > 0, steps - last, skips + steps)
                skips = skips_w[-1]

    def _step(self, X: np.ndarray, draw: np.ndarray, alpha):
        """(iterates, alpha) after every trial's step on its drawn block.
        With ``alpha`` None the step is adaptive and alpha is
        ``adaptive_step``'s (NaN where a step is skipped); otherwise it is
        the one given."""
        config, system = self.config, self.system
        step_weights = config.weights.step_weights
        out = None
        for sel, J in self.stream.groups(draw):
            Xg = X if sel is None else X[sel]
            step_alpha = alpha
            if alpha is None:
                new, step_alpha = adaptive_step(Xg, system, J, step_weights(system, J),
                                                config.stepsize.delta)
            elif config.method == BLOCK_PROJECTION:
                pinv = (None if self.pinvs is None
                        else self.pinvs.take(draw if sel is None else draw[sel], J.shape[-1]))
                new = block_projection_step(Xg, system, J, alpha, pinv)
            else:
                new = averaged_step(Xg, system, J, step_weights(system, J), alpha)
            if sel is None:
                return new, step_alpha
            if out is None:
                # Only adaptive steps give each trial its own alpha.
                out, alphas = np.empty_like(X), np.empty(len(X)) if alpha is None else alpha
            out[sel] = new
            if alpha is None:
                alphas[sel] = step_alpha
        return out, alphas

    def column(self, name: str, width: int) -> np.ndarray:
        """Column ``name`` as a C-contiguous (T, width, ...) stack, width >
        every K: each window's values of its live trials, then each trial's
        value at its K over its later entries."""
        records = self.columns[name]
        out = np.empty((self.T, width, *records[0][2].shape[2:]))
        steps = out.swapaxes(0, 1)
        for k0, sel, values in records:
            if sel is None:
                steps[k0:k0 + len(values)] = values[:width - k0]
            else:
                steps[k0:k0 + len(values), sel] = values[:width - k0]
        # A set, not np.unique: that imports numpy.ma, 10-40 ms of a command.
        K = np.asarray(self.iterations)
        for k in set(self.iterations):
            if k < width - 1:
                t = K == k
                steps[k + 1:, t] = steps[k, t]
        return out

    def blocks(self) -> list[np.ndarray | None]:
        """The drawn blocks of a one-trial run, None at k = 0."""
        return [None] + [self.stream.block(draw) for draw in self.drawn]
