"""Solver configuration and run records, the run entry points, and the
Monte-Carlo harness used to verify convergence rates in expectation.

``run_solver`` and ``run_monte_carlo`` are the one-trial and the T-trial
case of the lockstep engine (:mod:`kaczlab.engine`); the iteration kernels
live in :mod:`kaczlab.kernels`.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .engine import (
    CONVERGED,
    FULL_ITERATES,
    MAX_ITERS,
    NORMS_ONLY,
    STALL_LIMIT,
    STALLED,
    Trials,
    pad_to,
)
from .errors import ConfigMismatchError
from .kernels import (
    BASIC,
    BLOCK_PROJECTION,
    RBK,
    basic_kaczmarz_step,
    block_projection_step,
    rbk_step,
)
from .kinds import number_field
from .linalg import LinearSystem
from .sampling import SamplingSpec, sampling_from_dict
from .stepsize import (
    StepsizePolicy,
    WeightScheme,
    stepsize_from_dict,
    weights_from_dict,
)

__all__ = [
    "BASIC", "BLOCK_PROJECTION", "CONVERGED", "FULL_ITERATES", "MAX_ITERS", "NORMS_ONLY", "RBK",
    "STALLED", "STALL_LIMIT", "IterationEvent", "MonteCarloSummary", "SolverConfig",
    "SolverTrace", "basic_kaczmarz_step", "block_projection_step", "config_from_dict",
    "config_to_dict", "number_field", "pad_to", "rbk_step", "run_monte_carlo", "run_solver",
    "split_seed",
]


# ---------------------------------------------------------------------------
# Configuration / trace records
# ---------------------------------------------------------------------------

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
        if self.residual_tol is not None and not self.residual_tol >= 0:
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
# Runs
# ---------------------------------------------------------------------------

def run_solver(config: SolverConfig, system: LinearSystem,
               x0: np.ndarray | None = None) -> SolverTrace:
    """Iterate the configured method until the residual tolerance or
    max_iters is hit: the engine with one trial.

    Runs are bit-reproducible for a fixed seed.  Adaptive runs record skip
    events and stall after STALL_LIMIT consecutive skips.  ``x0`` must be a
    finite vector of length n (``ValueError`` otherwise).
    """
    run = Trials(config, system, [config.seed], x0)
    K = run.iterations[0]
    return SolverTrace(
        config, run.status[0], run.final_x[0].copy(),
        alpha=(run.series("alpha") if run.alphas is None
               else np.concatenate([[np.nan], run.alphas[:K]])),
        residual=np.sqrt(run.series("residual_sq")),
        dist_sq=run.series("dist_sq") if config.diagnostics else np.full(K + 1, np.nan),
        blocks=run.blocks(),
        iterates=run.series("iterates") if config.trace_level == FULL_ITERATES else None,
    )


# ---------------------------------------------------------------------------
# Monte-Carlo harness
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
    final_x: np.ndarray  # (trials, n): each trial's last iterate


def run_monte_carlo(config: SolverConfig, system: LinearSystem, trials: int) -> MonteCarloSummary:
    """Run ``trials`` independent solves with seeds split(seed, t) in
    lockstep and aggregate per-iteration means and standard errors.  Trial
    t has the bits of ``run_solver`` at seed split(seed, t)."""
    if trials < 2:
        raise ValueError("need at least 2 trials")
    run = Trials(config, system, [split_seed(config.seed, t) for t in range(trials)])
    stats = {}
    for name in ("residual_sq", "dist_sq", "iterates"):
        if name in run.columns:
            stacked = run.column(name, config.max_iters + 1)
            if name == "residual_sq":
                stacked = np.sqrt(stacked)
            stats[name] = stacked.mean(axis=0), stacked.std(axis=0, ddof=1) / np.sqrt(trials)
    hits = [k if status == CONVERGED else -1 for k, status in zip(run.iterations, run.status)]
    return MonteCarloSummary(
        trials,
        *stats.get("dist_sq", (None, None)),
        *stats.get("iterates", (None, None)),
        mean_residual_norm=stats["residual_sq"][0],
        hit_iteration=np.asarray(hits, dtype=int),
        final_x=np.stack(run.final_x),
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
        max_iters=number_field(doc, "max_iters", int),
        residual_tol=(None if doc.get("residual_tol") is None
                      else number_field(doc, "residual_tol", float)),
        seed=number_field(doc, "seed", int, 0),
        trace_level=doc.get("trace_level", NORMS_ONLY),
        diagnostics=bool(doc.get("diagnostics", False)),
    )
