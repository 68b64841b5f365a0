"""Iteration kernels (basic, averaged-block, block-projection), the run
loop with tracing and stopping rules, and the Monte-Carlo engine used to
verify convergence rates in expectation."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigMismatchError, ZeroRowError
from .linalg import LinearSystem, SolutionProjector, as_vector, least_squares_min_norm
from .sampling import (
    SamplingSpec,
    UniformSubset,
    sample_block,
    sampling_from_dict,
)
from .stepsize import (
    StepsizePolicy,
    WeightScheme,
    adaptive_alpha,
    stepsize_from_dict,
    weights_from_dict,
)

# An adaptive run is declared stalled after this many consecutive skips.
STALL_LIMIT = 100

CONVERGED = "converged"
MAX_ITERS = "max-iters"
STALLED = "stalled"


# ---------------------------------------------------------------------------
# Single-step kernels
# ---------------------------------------------------------------------------

def basic_kaczmarz_step(x: np.ndarray, row: np.ndarray, b_i: float, alpha: float) -> np.ndarray:
    """x - alpha * ((row.x - b_i) / ||row||^2) * row.

    alpha = 1 projects exactly onto the row's hyperplane; alpha = 2 reflects.
    """
    nrm = float(row @ row)
    if nrm < 1e-28:
        raise ZeroRowError(0)
    d = ((row @ x - b_i) / nrm) * row
    return x - alpha * d


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
    J = np.asarray(J, dtype=int)
    weights = np.asarray(weights, dtype=float)
    order = np.argsort(J, kind="stable")
    A, b = system.A, system.b
    d = np.zeros(system.n)
    for idx in order:
        i = J[idx]
        a = A[i]
        # Same norm computation as basic_kaczmarz_step, so a singleton block
        # reproduces the basic update bit for bit.
        nrm = float(a @ a)
        if nrm < 1e-28:
            raise ZeroRowError(int(i))
        d += ((weights[idx] * (a @ x - b[i])) / nrm) * a
    return x - alpha * d


def block_projection_step(
    x: np.ndarray, system: LinearSystem, J: np.ndarray, alpha: float = 1.0
) -> np.ndarray:
    """x - alpha * A_J^+ (A_J x - b_J); with alpha = 1 this solves the
    whole block exactly (up to rank deficiency)."""
    J = np.asarray(J, dtype=int)
    A_J = system.A[J]
    r = A_J @ x - system.b[J]
    return x - alpha * least_squares_min_norm(A_J, r)


# ---------------------------------------------------------------------------
# Configuration / trace records
# ---------------------------------------------------------------------------

BASIC = "basic"
RBK = "rbk"
BLOCK_PROJECTION = "block-projection"

NORMS_ONLY = "norms"
FULL_ITERATES = "iterates"


@dataclass(frozen=True)
class SolverConfig:
    """Everything a run needs besides the system itself.

    ``residual_tol=None`` resolves to the scale-invariant default
    1e-8 * (1 + ||b||) at run time.  ``diagnostics`` switches on the
    per-event distance to the solution set (one cached-pseudoinverse
    matvec per event).
    """

    method: str
    sampling: SamplingSpec
    weights: WeightScheme
    stepsize: StepsizePolicy
    max_iters: int
    residual_tol: float | None = None
    seed: int = 0
    trace_level: str = NORMS_ONLY
    diagnostics: bool = False

    def __post_init__(self):
        if self.method not in (BASIC, RBK, BLOCK_PROJECTION):
            raise ConfigMismatchError(f"unknown method {self.method!r}")
        if self.trace_level not in (NORMS_ONLY, FULL_ITERATES):
            raise ConfigMismatchError(f"unknown trace level {self.trace_level!r}")
        if self.max_iters < 1:
            raise ConfigMismatchError("max_iters must be at least 1")
        if self.residual_tol is not None and self.residual_tol < 0:
            raise ConfigMismatchError("residual_tol must be nonnegative")


@dataclass(frozen=True, slots=True)
class IterationEvent:
    """One recorded iteration.  k = 0 is the initial snapshot (no block);
    ``alpha`` is None for the snapshot and for skipped adaptive steps."""

    k: int
    block: np.ndarray | None
    alpha: float | None
    skipped: bool
    residual_norm: float
    dist_sq: float | None = None
    iterate: np.ndarray | None = None


@dataclass(frozen=True)
class SolverTrace:
    """One run as columns with one entry per iteration k = 0..K: ``alpha``
    (NaN at k = 0 and on skipped adaptive steps), ``residual`` (||A x^k -
    b||), ``dist_sq`` (NaN unless diagnostics are on), ``blocks`` (None at
    k = 0), and ``iterates``, a (K + 1, n) array at trace level
    ``iterates`` (else None)."""

    config: SolverConfig
    status: str
    final_x: np.ndarray
    alpha: np.ndarray
    residual: np.ndarray
    dist_sq: np.ndarray
    blocks: list[np.ndarray | None]
    iterates: np.ndarray | None

    @property
    def iterations(self) -> int:
        """K, the number of iterations run."""
        return self.residual.size - 1

    @cached_property
    def events(self) -> list[IterationEvent]:
        """The columns as one IterationEvent per k, built on first access."""
        columns = zip(self.alpha.tolist(), self.residual.tolist(), self.dist_sq.tolist())
        return [
            IterationEvent(
                k=k,
                block=self.blocks[k],
                alpha=None if math.isnan(alpha) else alpha,
                skipped=k > 0 and math.isnan(alpha),
                residual_norm=res,
                dist_sq=dist if self.config.diagnostics else None,
                iterate=None if self.iterates is None else self.iterates[k],
            )
            for k, (alpha, res, dist) in enumerate(columns)
        ]

    def residual_norms(self) -> np.ndarray:
        return self.residual

    def dist_sq_series(self) -> np.ndarray:
        return self.dist_sq

    def alphas(self) -> list[float | None]:
        return [None if math.isnan(a) else a for a in self.alpha[1:].tolist()]

    def to_csv(self, path) -> None:
        """Columns: k, block_size, alpha, residual_norm, dist_sq.

        ``alpha`` is empty on the k = 0 row and the literal ``skip`` on
        skipped adaptive steps; ``dist_sq`` is empty when diagnostics were
        off.
        """
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["k", "block_size", "alpha", "residual_norm", "dist_sq"])
            for e in self.events:
                alpha = "" if e.k == 0 else ("skip" if e.skipped else f"{e.alpha:.17g}")
                dist = "" if e.dist_sq is None else f"{e.dist_sq:.17g}"
                size = 0 if e.block is None else len(e.block)
                w.writerow([e.k, size, alpha, f"{e.residual_norm:.17g}", dist])

    def to_json(self, path) -> None:
        doc = {
            "config": config_to_dict(self.config),
            "status": self.status,
            "final_x": self.final_x.tolist(),
            "events": [
                {f.name: getattr(e, f.name) for f in dataclasses.fields(e)}
                | {"block": None if e.block is None else e.block.tolist(),
                   "iterate": None if e.iterate is None else e.iterate.tolist()}
                for e in self.events
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)


# ---------------------------------------------------------------------------
# Run loop
# ---------------------------------------------------------------------------

def _supports_are_singletons(spec: SamplingSpec) -> bool:
    if isinstance(spec, UniformSubset):
        return spec.tau == 1
    return all(len(blk) == 1 for blk in spec.blocks)


def run_solver(
    config: SolverConfig,
    system: LinearSystem,
    x0: np.ndarray | None = None,
    projector: SolutionProjector | None = None,
) -> SolverTrace:
    """Iterate the configured method until the residual tolerance or
    max_iters is hit.

    Runs are bit-reproducible for a fixed seed.  Adaptive runs record skip
    events and stall after STALL_LIMIT consecutive skips.  ``x0`` must be a
    finite vector of length n (``ValueError`` otherwise).
    """
    if config.sampling.m != system.m:
        raise ConfigMismatchError(
            f"sampling spec covers {config.sampling.m} rows but the system has {system.m}"
        )
    if config.method == BASIC and not _supports_are_singletons(config.sampling):
        raise ConfigMismatchError("basic method requires |J| = 1 sampling")
    alphas = config.stepsize.stepsizes(config.weights, config.max_iters)
    if config.method == BLOCK_PROJECTION and alphas is None:
        raise ConfigMismatchError("adaptive stepsize applies to the averaged update only")

    if projector is None and (config.diagnostics or system.planted_solution is None):
        # Building the projector also raises InconsistentSystemError when b
        # lies outside range(A).
        projector = system.projector

    tol = config.residual_tol
    if tol is None:
        tol = 1e-8 * (1.0 + float(np.linalg.norm(system.b)))

    rng = np.random.default_rng(config.seed)
    x = np.zeros(system.n) if x0 is None else as_vector(x0, system.n).copy()
    # The columns, one entry per k.  No step updates x in place, so the
    # iterates column can hold each x^k itself.
    alpha_col, residual, blocks = [np.nan], [system.residual_norm(x)], [None]
    dist = [projector.dist_sq(x)] if config.diagnostics else None
    iterates = [x] if config.trace_level == FULL_ITERATES else None

    consecutive_skips = 0
    # "not <= tol" rather than "> tol": a NaN residual runs on to max_iters.
    while (not residual[-1] <= tol and len(residual) <= config.max_iters
           and consecutive_skips < STALL_LIMIT):
        J = sample_block(config.sampling, rng)
        skipped = False
        if alphas is None:
            w = config.weights.realized(system, J)
            residuals = system.A[J] @ x - system.b[J]
            step = adaptive_alpha(system.A[J], residuals, w, config.stepsize.delta)
            skipped = step is None
            if not skipped:
                alpha = step.alpha
                x = x - step.alpha * step.direction
        else:
            alpha = float(alphas[len(residual) - 1])
            if config.method == BASIC:
                i = int(J[0])
                x = basic_kaczmarz_step(x, system.A[i], system.b[i], alpha)
            elif config.method == RBK:
                w = config.weights.realized(system, J)
                x = rbk_step(x, system, J, w, alpha)
            else:
                x = block_projection_step(x, system, J, alpha)

        blocks.append(J)
        alpha_col.append(np.nan if skipped else alpha)
        residual.append(system.residual_norm(x))
        if dist is not None:
            dist.append(projector.dist_sq(x))
        if iterates is not None:
            iterates.append(x)
        consecutive_skips = consecutive_skips + 1 if skipped else 0

    if residual[-1] <= tol:
        status = CONVERGED
    else:
        status = STALLED if consecutive_skips >= STALL_LIMIT else MAX_ITERS
    return SolverTrace(
        config, status, x.copy(),
        alpha=np.array(alpha_col),
        residual=np.array(residual),
        dist_sq=np.full(len(residual), np.nan) if dist is None else np.array(dist),
        blocks=blocks,
        iterates=None if iterates is None else np.stack(iterates),
    )


# ---------------------------------------------------------------------------
# Monte-Carlo expectation engine
# ---------------------------------------------------------------------------

def split_seed(seed: int, index: int) -> int:
    """Deterministic per-trial seed: trials can run in any order (or in
    parallel) and still replay bit-exactly.  This splitting rule is part of
    the reproducibility contract."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class MonteCarloSummary:
    """Per-iteration trial statistics, padded to max_iters + 1 entries by
    carrying terminal values forward (a converged chain is absorbed)."""

    trials: int
    mean_dist_sq: np.ndarray | None
    stderr_dist_sq: np.ndarray | None
    mean_iterate: np.ndarray | None  # (max_iters + 1, n)
    stderr_iterate: np.ndarray | None
    mean_residual_norm: np.ndarray
    hit_iteration: np.ndarray  # per trial: first k at tolerance, -1 if never


def pad_to(series: np.ndarray, length: int) -> np.ndarray:
    """``series`` with its last entry repeated up to ``length`` entries."""
    return np.concatenate([series, np.repeat(series[-1:], length - len(series), axis=0)])


def run_monte_carlo(config: SolverConfig, system: LinearSystem, trials: int) -> MonteCarloSummary:
    """Run ``trials`` independent solves with seeds split(seed, t) and
    aggregate per-iteration means and standard errors."""
    if trials < 2:
        raise ValueError("need at least 2 trials")
    # The trace columns to aggregate, each padded to max_iters + 1 per trial.
    columns = {"residual": [], "dist_sq": [], "iterates": []}
    if not config.diagnostics:
        del columns["dist_sq"]
    if config.trace_level != FULL_ITERATES:
        del columns["iterates"]
    hits = []
    for t in range(trials):
        trace = run_solver(dataclasses.replace(config, seed=split_seed(config.seed, t)), system)
        hits.append(trace.iterations if trace.status == CONVERGED else -1)
        for name, rows in columns.items():
            rows.append(pad_to(getattr(trace, name), config.max_iters + 1))

    stats = {}
    for name, rows in columns.items():
        stacked = np.stack(rows)
        stats[name] = stacked.mean(axis=0), stacked.std(axis=0, ddof=1) / np.sqrt(trials)
    return MonteCarloSummary(
        trials,
        *stats.get("dist_sq", (None, None)),
        *stats.get("iterates", (None, None)),
        mean_residual_norm=stats["residual"][0],
        hit_iteration=np.asarray(hits, dtype=int),
    )


# ---------------------------------------------------------------------------
# JSON config mirror
# ---------------------------------------------------------------------------

def config_to_dict(config: SolverConfig) -> dict:
    doc = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
    return doc | {key: doc[key].to_dict() for key in ("sampling", "weights", "stepsize")}


def config_from_dict(doc: dict, system: LinearSystem) -> SolverConfig:
    """Rebuild a SolverConfig from its JSON mirror.  The system is needed
    to recompute weight bounds."""
    spec = sampling_from_dict(doc["sampling"])
    return SolverConfig(
        method=doc["method"],
        sampling=spec,
        weights=weights_from_dict(doc["weights"], spec, system),
        stepsize=stepsize_from_dict(doc["stepsize"]),
        max_iters=int(doc["max_iters"]),
        residual_tol=None if doc.get("residual_tol") is None else float(doc["residual_tol"]),
        seed=int(doc.get("seed", 0)),
        trace_level=doc.get("trace_level", NORMS_ONLY),
        diagnostics=bool(doc.get("diagnostics", False)),
    )
