"""Solver configuration and run records, the run entry points, and the
Monte-Carlo harness used to verify convergence rates in expectation.

``run_solver`` and ``run_monte_carlo`` are the one-trial and the T-trial
case of the lockstep engine (:mod:`kaczlab.engine`); the iteration kernels
live in :mod:`kaczlab.kernels`.  ``config_from_dict`` reads every
configuration document: ``config_to_dict``'s mirror and plan entries.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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
from .sampling import SamplingSpec, build_sampling, check_covers, sampling_from_dict
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
    "run_monte_carlo", "run_solver", "split_seed", "split_seeds", "trial_generators",
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
    return SolverTrace(
        config, run.status[0], run.final_x[0],
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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) in uint32
# arithmetic.  Its hash constants run through fixed chains, whatever the
# data: the i-th word hashed into the pool is xored with INIT_A * MULT_A**i
# and multiplied by INIT_A * MULT_A**(i + 1); the i-th output word likewise
# with INIT_B and MULT_B.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL = 4


@functools.cache
def _hash_chain(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**i mod 2**32 for i = 0 .. count - 1, computed once per
    chain (read-only)."""
    chain = np.array([init * pow(mult, i, 2**32) % 2**32 for i in range(count)], dtype=np.uint32)
    chain.flags.writeable = False
    return chain


def _hashmix(values: np.ndarray, chain: np.ndarray, i: int) -> np.ndarray:
    """``hashmix`` of values[..., j] with the (i + j)-th constant of the chain."""
    width = values.shape[-1]
    h = (values ^ chain[i:i + width]) * chain[i + 1:i + 1 + width]
    return h ^ (h >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    h = _MIX_MULT_L * x - _MIX_MULT_R * y
    return h ^ (h >> _XSHIFT)


@functools.cache
def _pool_rounds(extra: int) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """The rounds that hash each pool word into every other: (src, xor
    constants, multipliers), the constants of word d at column d (0 at src,
    which the round leaves as it is)."""
    chain = _hash_chain(_INIT_A, _MULT_A, _POOL * (_POOL + extra) + 1)
    rounds, i = [], _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        consts = np.zeros((2, _POOL), dtype=np.uint32)
        consts[:, dst] = chain[i:i + len(dst)], chain[i + 1:i + 1 + len(dst)]
        consts.flags.writeable = False
        rounds.append((src, *consts))
        i += len(dst)
    return rounds


def _seed_sequence_state(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence(e).generate_state(n_words, np.uint64)`` for each row e
    of the (T, L) uint32 ``entropy``, L >= 4: zero words padding a row to
    the pool size leave its pool unchanged."""
    extra = entropy.shape[1] - _POOL
    chain = _hash_chain(_INIT_A, _MULT_A, _POOL * (_POOL + extra) + 1)
    pool = _hashmix(entropy[:, :_POOL], chain, 0)
    # Each pool word into every other, in SeedSequence's loop order: a round
    # mixes every word and puts its source word back.
    for src, xor, mult in _pool_rounds(extra):
        h = (pool[:, src:src + 1] ^ xor) * mult
        h ^= h >> _XSHIFT
        word = pool[:, src].copy()
        pool = _mix(pool, h)
        pool[:, src] = word
    i = _POOL * _POOL
    # Entropy past the pool size: each word into every pool word.
    for src in range(_POOL, _POOL + extra):
        pool = _mix(pool, _hashmix(entropy[:, [src] * _POOL], chain, i))
        i += _POOL
    state = _hashmix(np.tile(pool, -(-n_words // 2))[:, :2 * n_words],
                     _hash_chain(_INIT_B, _MULT_B, 2 * n_words + 1), 0)
    # Pairs of uint32 words read as little-endian uint64s.
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _PresetState(ISeedSequence):
    """The seed sequence of one trial generator: ``generate_state`` returns
    PCG64's four uint64 seed words, computed beforehand."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def split_seeds(seed: int, trials: int) -> np.ndarray:
    """``split_seed(seed, t)`` for t = 0 .. trials - 1, as uint64, hashed
    in one pass over the trials."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    head = [seed >> s & 0xFFFFFFFF for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy = np.zeros((trials, max(_POOL, len(head) + 1)), dtype=np.uint32)
    entropy[:, :len(head)] = head
    entropy[:, len(head)] = np.arange(trials)
    return _seed_sequence_state(entropy, 1)[:, 0]


def trial_seeds(seed: int, trials: int) -> list[_PresetState]:
    """The seed sequences of ``trial_generators``: ``PCG64`` built on
    ``trial_seeds(seed, trials)[t]`` has the state of
    ``default_rng(split_seed(seed, t))``.  Both SeedSequence hashes of every
    trial are taken in one pass over the trials: the entropy (seed, t)
    gives the split seeds, and each split seed PCG64's four state words."""
    # A split seed's entropy is its two uint32 words, less a high zero
    # word, which the padding puts back.
    entropy = np.zeros((trials, _POOL), dtype=np.uint32)
    entropy[:, :2] = split_seeds(seed, trials).astype("<u8").view("<u4").reshape(trials, 2)
    return [_PresetState(w) for w in _seed_sequence_state(entropy, 4)]


def trial_generators(seed: int, trials: int) -> list[np.random.Generator]:
    """``[np.random.default_rng(split_seed(seed, t)) for t in
    range(trials)]``, the same states, built on ``trial_seeds``."""
    return [np.random.default_rng(words) for words in trial_seeds(seed, trials)]


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
                    stacked = np.sqrt(stacked)
                mean = stacked.mean(axis=0)
                # The spread about trial 0: identical trials give exactly 0,
                # where the rounded mean of equal values would leave residue.
                stacked -= stacked[0]
                stats[name] = mean, stacked.std(axis=0, ddof=1) / np.sqrt(trials)
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
