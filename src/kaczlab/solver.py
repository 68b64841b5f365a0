"""Solver configuration and run records, the run entry points, and the
Monte-Carlo harness used to verify convergence rates in expectation.

``run_solver`` and ``run_monte_carlo`` are the one-trial and the T-trial
case of the lockstep engine (:mod:`kaczlab.engine`), with the iteration
kernels of :mod:`kaczlab.kernels` and the trial seeds of :mod:`kaczlab.sampling`.
``config_from_dict`` reads every configuration document: the mirror of
``config_to_dict`` and plan entries.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .analysis import block_lambda_max
from .engine import (
    CONVERGED,
    DIVERGED,
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
    METHODS,
    RBK,
    basic_kaczmarz_step,
    block_projection_step,
    rbk_step,
)
from .kinds import number_field
from .linalg import LinearSystem
from .sampling import SamplingSpec, build_sampling, check_covers, sampling_from_dict, trial_seeds
from .sampling import split_seed, split_seeds  # re-exported
from .stepsize import (
    STEPSIZE_KINDS,
    StepsizePolicy,
    WeightScheme,
    stepsize_from_dict,
    weights_from_dict,
)

__all__ = [
    "BASIC", "BLOCK_PROJECTION", "CONVERGED", "DIVERGED", "FULL_ITERATES", "MAX_ITERS",
    "NORMS_ONLY", "RBK", "STALLED", "STALL_LIMIT", "IterationEvent", "MonteCarloSummary",
    "SolverConfig", "SolverTrace", "basic_kaczmarz_step", "block_projection_step",
    "config_from_dict", "config_to_dict", "number_field", "pad_to", "rbk_step",
    "run_monte_carlo", "run_solver", "split_seed", "split_seeds",
]


# ---------------------------------------------------------------------------
# Configuration / trace records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverConfig:
    """Everything a run needs besides the system itself.

    ``residual_tol=None`` resolves to the scale-invariant default
    1e-8 * (1 + ||b||) at run time.  ``diagnostics`` switches on the
    per-step squared distance to the solution set (one r x n matvec per
    step and trial, r the rank of A; see ``linalg.SolutionProjector``).
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
        if self.method not in METHODS:
            raise ConfigMismatchError(f"unknown method {self.method!r}")
        if self.trace_level not in (NORMS_ONLY, FULL_ITERATES):
            raise ConfigMismatchError(f"unknown trace level {self.trace_level!r}")
        if self.max_iters < 1:
            raise ConfigMismatchError("max_iters must be at least 1")
        if self.residual_tol is not None and not self.residual_tol >= 0:
            raise ConfigMismatchError("residual_tol must be nonnegative")


@dataclass(frozen=True, slots=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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

    def rows(self):
        """Yield each k's IterationEvent fields, the iterate left out."""
        dist_sq = self.dist_sq.tolist() if self.config.diagnostics else [None] * len(self.blocks)
        columns = zip(self.blocks, self.alpha.tolist(), self.residual.tolist(), dist_sq)
        for k, (block, alpha, res, dist) in enumerate(columns):
            nan = math.isnan(alpha)
            yield k, block, None if nan else alpha, k > 0 and nan, res, dist

    @cached_property
    def events(self) -> list[IterationEvent]:
        """The columns as one IterationEvent per k, built on first access."""
        iterates = [None] * len(self.blocks) if self.iterates is None else self.iterates
        return [IterationEvent(*row, iterate=it) for row, it in zip(self.rows(), iterates)]

    def to_csv(self, path) -> None:
        """Columns: k, block_size, alpha, residual_norm, dist_sq.

        ``alpha`` is empty on the k = 0 row and the literal ``skip`` on
        skipped adaptive steps; ``dist_sq`` is empty when diagnostics were
        off.
        """
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["k", "block_size", "alpha", "residual_norm", "dist_sq"])
            for k, block, alpha, skipped, res, dist in self.rows():
                w.writerow([k, 0 if block is None else len(block),
                            "" if k == 0 else ("skip" if skipped else f"{alpha:.17g}"),
                            f"{res:.17g}", "" if dist is None else f"{dist:.17g}"])

    def to_json(self, path) -> None:
        doc = {
            "config": config_to_dict(self.config),
            "status": self.status,
            "final_x": self.final_x.tolist(),
            "events": [
                {"k": k, "block": None if block is None else block.tolist(), "alpha": alpha,
                 "skipped": skipped, "residual_norm": res, "dist_sq": dist,
                 "iterate": None if self.iterates is None else self.iterates[k].tolist()}
                for k, block, alpha, skipped, res, dist in self.rows()
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
    series = {name: run.column(name, K + 1)[0] for name in run.columns}
    return SolverTrace(
        config, run.status[0], run.final_x[0],
        alpha=(series["alpha"] if run.alphas is None
               else np.concatenate([[np.nan], run.alphas[:K]])),
        residual=np.sqrt(series["residual_sq"]),
        dist_sq=series["dist_sq"] if config.diagnostics else np.full(K + 1, np.nan),
        blocks=run.blocks(),
        iterates=series.get("iterates"),
    )


# ---------------------------------------------------------------------------
# Monte-Carlo harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
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
    # Seeds, not generators: the run's generators are its stream's own.
    run = Trials(config, system, trial_seeds(config.seed, trials))
    stats = {}
    # A diverged trial's inf (inf - inf is NaN) is reported by its status.
    with np.errstate(over="ignore", invalid="ignore"):
        for name in ("residual_sq", "dist_sq", "iterates"):
            if name in run.columns:
                stacked = run.column(name, config.max_iters + 1)
                if name == "residual_sq":
                    np.sqrt(stacked, out=stacked)
                # mean(axis=0) and std(axis=0, ddof=1) in place, by numpy's
                # own operations, so with their bits.
                mean = np.add.reduce(stacked, axis=0)
                mean /= trials
                # The spread about trial 0: identical trials give exactly 0,
                # where the rounded mean of equal values would leave residue.
                stacked -= stacked[0]
                shift = np.add.reduce(stacked, axis=0, keepdims=True)
                shift /= trials
                stacked -= shift
                np.square(stacked, out=stacked)
                std = np.add.reduce(stacked, axis=0)
                std /= trials - 1
                np.sqrt(std, out=std)
                stats[name] = mean, std / np.sqrt(trials)
    hits = [k if status == CONVERGED else -1 for k, status in zip(run.iterations, run.status)]
    return MonteCarloSummary(
        trials,
        *stats.get("dist_sq", (None, None)),
        *stats.get("iterates", (None, None)),
        mean_residual_norm=stats["residual_sq"][0],
        hit_iteration=np.asarray(hits, dtype=int),
        final_x=run.final_x,
    )


# ---------------------------------------------------------------------------
# JSON config mirror
# ---------------------------------------------------------------------------

def config_to_dict(config: SolverConfig) -> dict:
    doc = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
    return doc | {key: doc[key].to_dict() for key in ("sampling", "weights", "stepsize")}


def _positive_lambda_min(system: LinearSystem) -> float:
    gram = system.gram_spectrum
    if gram.rank_estimate < system.m:
        raise ConfigMismatchError(
            "chebyshev-pd requires lambda_min(A A^T) > 0; use chebyshev-singular"
        )
    return gram.lambda_min


def config_from_dict(doc: dict, system: LinearSystem, budget: int = 1000) -> SolverConfig:
    """The SolverConfig of a configuration document (schema in the README).
    Stepsize fields it leaves out are derived from the system, a sampled
    ``lambda_max_block`` from ``budget`` supports."""
    if not isinstance(doc, dict):
        raise ValueError(f"a solver configuration must be a JSON object, got {doc!r}")
    seed = number_field(doc, "seed", int, 0)
    sampling = doc["sampling"]
    if isinstance(sampling, str):
        spec = build_sampling(sampling, system, seed, probs=doc.get("partition_probs", "uniform"))
    else:
        spec = sampling_from_dict(sampling)
        check_covers(spec, system)
    max_iters = number_field(doc, "max_iters", int)
    derived = {
        "lambda_max_block": lambda: block_lambda_max(system, spec, budget, seed)[0],
        "lambda_min": lambda: _positive_lambda_min(system),
        "lambda_max": lambda: system.gram_spectrum.lambda_max,
        "m": lambda: system.m,
        "horizon": lambda: max_iters,
    }
    step = doc["stepsize"]
    if isinstance(step, dict) and step.get("kind") in STEPSIZE_KINDS:
        fields = dataclasses.fields(STEPSIZE_KINDS[step["kind"]])
        step = step | {f.name: derived[f.name]() for f in fields
                       if f.name in derived and f.name not in step}
    weights = doc.get("weights", "uniform")
    diagnostics = doc.get("diagnostics", False)
    if not isinstance(diagnostics, bool):
        raise ValueError(f"diagnostics must be true or false, got {diagnostics!r}")
    return SolverConfig(
        method=doc["method"],
        sampling=spec,
        weights=weights_from_dict({"kind": weights} if isinstance(weights, str) else weights,
                                  spec, system),
        stepsize=stepsize_from_dict(step),
        max_iters=max_iters,
        residual_tol=(None if doc.get("residual_tol") is None
                      else number_field(doc, "residual_tol", float)),
        seed=seed,
        trace_level=doc.get("trace_level", NORMS_ONLY),
        diagnostics=diagnostics,
    )
