"""The probability space over row subsets.

Two sampling laws are supported: uniform tau-subsets of [m], and a fixed
partition of [m] drawn with per-block probabilities, read from a JSON dict
or a spec string such as ``uniform:4``.  Small instances can be enumerated
exhaustively, which the test oracles rely on.

It is also the one module that reads numpy's random streams.  A block draw
is kaczlab's own, defined on PCG64's raw 64-bit words (``WordSource``),
the one stream NEP 19 promises to keep: Lemire's bounded draws and Floyd's
sample for uniform subsets, ``choice(p=...)``'s formula for partitions.
The draws of a run of T trials are those of T one-trial runs, and
``sample_block`` is a one-step draw.  The trial seeds replay
``SeedSequence``'s hash (``trial_seeds``).
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
from dataclasses import dataclass
from math import comb

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import BadBlockCountError, ConfigMismatchError, KaczlabError, TooLargeError
from .kinds import Kind, from_kind_dict, number, number_field, registry
from .linalg import LinearSystem

# Exhaustive enumeration is refused above this many supports.
ENUMERATION_CAP = 10**5

# Indices a uniform spec draws ahead in one call, at most (2 MB of int64).
AHEAD_VALUES = 1 << 18

# How block_lambda_max's supports were chosen: all of them, every block of
# a partition, or a sample (its maximum only a lower bound).
EXACT_ENUMERATION = "exact-enumeration"
PARTITION_MAX = "partition-max"
MONTE_CARLO = "monte-carlo-estimate"


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


@dataclass(eq=False)
class _PresetState(ISeedSequence):
    """The seed sequence of one trial generator: ``generate_state`` returns
    PCG64's four uint64 seed words, computed beforehand."""

    words: np.ndarray

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
    """The seed sequences of a Monte-Carlo run's trials: ``PCG64`` built on
    ``trial_seeds(seed, trials)[t]`` (as by ``WordSource``) has the state of
    ``default_rng(split_seed(seed, t))``.  Both SeedSequence hashes of every
    trial are taken in one pass over the trials: the entropy (seed, t)
    gives the split seeds, and each split seed PCG64's four state words."""
    # A split seed's entropy is its two uint32 words, less a high zero
    # word, which the padding puts back.
    entropy = np.zeros((trials, _POOL), dtype=np.uint32)
    entropy[:, :2] = split_seeds(seed, trials).astype("<u8").view("<u4").reshape(trials, 2)
    return [_PresetState(w) for w in _seed_sequence_state(entropy, 4)]


class WordSource:
    """Each trial's raw 64-bit words, the stream that PCG64 keeps across
    numpy versions (NEP 19): trial t's are ``PCG64(seeds[t]).random_raw``'s,
    the words of ``default_rng(seeds[t])``'s bit generator.  A seed is an
    int, a seed sequence, or a bit generator, whose words are taken as they
    come (``sample_block``'s); a ``Generator`` raises ``TypeError``."""

    def __init__(self, seeds):
        self.bits = [seed if isinstance(seed, np.random.BitGenerator) else np.random.PCG64(seed)
                     for seed in seeds]

    def __len__(self) -> int:
        return len(self.bits)

    def words(self, n: int) -> np.ndarray:
        """Each trial's next ``n`` words, (trials, n) uint64."""
        out = np.empty((len(self.bits), n), dtype=np.uint64)
        for row, bits in zip(out, self.bits):
            row[:] = bits.random_raw(n)
        return out

    def keep(self, live: np.ndarray) -> None:
        """Drop the trials where the boolean mask ``live`` is False."""
        self.bits = [bits for bits, keep in zip(self.bits, live) if keep]


def _bounded(words: WordSource, bounds: np.ndarray) -> np.ndarray:
    """Each trial's draws in [0, bound) for the D ``bounds`` (1 .. 2**32,
    uint64) in turn, (trials, D) int64, by Lemire's rule: a draw takes the
    high 32 bits u of the trial's next raw word and gives (u * bound) >> 32,
    unless the low 32 bits of u * bound are below 2**32 mod bound.  Then
    the word is rejected, and the trial's next raw word takes its place."""
    thresholds = (1 << 32) % bounds
    raw = words.words(len(bounds))
    prod = raw >> 32
    prod *= bounds
    rejected = (prod & 0xFFFFFFFF) < thresholds
    prod >>= 32
    vals = prod.view(np.int64)
    if rejected.any():
        for t in np.flatnonzero(rejected.any(axis=1)).tolist():
            vals[t] = _redraw(words.bits[t], raw[t], bounds, thresholds)
    return vals


def _redraw(bits, raw: np.ndarray, bounds: np.ndarray, thresholds: np.ndarray) -> list[int]:
    """``_bounded``'s draws of the trial with bit generator ``bits``, whose
    words ``raw`` reject at least once, one draw at a time: its words are
    ``raw``, then as many more of ``bits`` as were rejected."""
    def more():
        while True:
            yield int(bits.random_raw())

    words, out = itertools.chain(raw.tolist(), more()), []
    for bound, threshold in zip(bounds.tolist(), thresholds.tolist()):
        prod = (next(words) >> 32) * bound
        while prod & 0xFFFFFFFF < threshold:
            prod = (next(words) >> 32) * bound
        out.append(prod >> 32)
    return out


def _floyd_sample(vals: np.ndarray, low: int, tau: int) -> np.ndarray:
    """Floyd's samples from their (calls, tau) draws, one row per call:
    Floyd's loop over the positions, where position p holds its draw, or
    j = low + p where an earlier position already holds the draw.  The loop
    runs on a (tau, calls) array, whose positions are contiguous rows."""
    J = vals.T.copy()
    for p in range(1, tau):
        J[p, (J[:p] == J[p]).any(axis=0)] = low + p
    return J.T


def _combinations(m: int, k: int) -> np.ndarray:
    """Every k-subset of range(m) as a row of a (C(m, k), k) array, in the
    order of ``itertools.combinations`` (lexicographic), in the smallest
    unsigned type that holds m - 1."""
    out = np.arange(m - k + 1, dtype=np.min_scalar_type(m - 1))[:, None]
    # Level r extends each r-entry prefix, in order, ending in e by each of
    # e + 1, ..., m - k + r: a new column that steps by 1 within a prefix
    # and from the previous prefix's m - k + r to e + 1 (a wrapping step).
    for r in range(1, k):
        last, count = out[:, -1], m - k + r - out[:, -1]
        step = np.ones(count.sum(), out.dtype)
        step[np.cumsum(count) - count] = last - (m - k + r - 1)
        step[0] = last[0] + 1
        out, parents = np.empty((len(step), r + 1), out.dtype), out
        out[:, :r] = np.repeat(parents, count, axis=0)
        np.cumsum(step, dtype=out.dtype, out=out[:, r])
    return out


@dataclass(frozen=True)
class UniformSubset(Kind):
    """Uniform sampling of a size-``tau`` subset of the m row indices."""

    kind = "uniform"
    m: int
    tau: int

    blocks_recur = False  # subsets of the m rows practically never repeat

    def __post_init__(self):
        if not (1 <= self.tau <= self.m):
            raise ValueError(f"need 1 <= tau <= m, got tau={self.tau}, m={self.m}")

    def draws(self, words: WordSource, count: int) -> np.ndarray:
        """Each trial's next ``count`` supports from the source ``words``,
        (steps, trials, tau) sorted rows, fewer steps where they would hold
        more than ``AHEAD_VALUES`` indices.  A support is tau of
        ``_bounded``'s draws, at bounds m - tau + 1 ... m, taken by Floyd's
        sample and sorted.  Draws take m <= 2**32 rows, else
        ``TooLargeError``."""
        if self.m > 1 << 32:
            raise TooLargeError(f"uniform draws take at most 2**32 rows, got m={self.m}")
        count = min(count, max(1, AHEAD_VALUES // (len(words) * self.tau)))
        low = self.m - self.tau
        bounds = np.tile(np.arange(low + 1, self.m + 1, dtype=np.uint64), count)
        J = _floyd_sample(_bounded(words, bounds).reshape(-1, self.tau), low, self.tau)
        J = np.ascontiguousarray(J.reshape(len(words), count, self.tau).swapaxes(0, 1))
        J.sort(axis=-1)
        return J

    def groups(self, draw: np.ndarray) -> list[tuple[np.ndarray | None, np.ndarray]]:
        return [(None, draw)]

    def block(self, drawn: np.ndarray) -> np.ndarray:
        return drawn

    def membership_probabilities(self) -> np.ndarray:
        return np.full(self.m, self.tau / self.m)

    def mean_block_size(self) -> float:
        return float(self.tau)

    def support_count(self) -> int:
        return comb(self.m, self.tau)

    def enumerate_supports(self) -> list[tuple[np.ndarray, float]]:
        total = self.support_count()
        if total > ENUMERATION_CAP:
            raise TooLargeError(f"C({self.m},{self.tau}) = {total} exceeds cap")
        return [(J, 1.0 / total) for J in _combinations(self.m, self.tau).astype(int)]

    def support_groups(self, budget: int, seed: int):
        """The supports ``block_lambda_max`` maximizes over, as (size,
        stacks) pairs, each stack a (count, size) array of supports, and
        their mode: all C(m, tau) in one stack when they fit under the cap,
        else ``budget`` drawn from ``seed`` (a lower bound): a run's first
        ``budget`` draws at that seed, one stack per ``draws`` call."""
        if self.support_count() <= ENUMERATION_CAP:
            return [(self.tau, (_combinations(self.m, self.tau),))], EXACT_ENUMERATION
        words = WordSource([seed])
        per_call = max(1, AHEAD_VALUES // self.tau)
        supports = (self.draws(words, min(per_call, budget - k))[:, 0]
                    for k in range(0, budget, per_call))
        return [(self.tau, supports)], MONTE_CARLO

    def weight_bounds(self, base: np.ndarray) -> tuple[float, float]:
        """Exact extremes of base[i]/sum(base[J]) over sampleable (i, J)."""
        tau = self.tau
        if tau == 1:
            return 1.0, 1.0
        s = np.sort(base)
        # Smallest weight: lightest row packed with the tau-1 heaviest others;
        # largest: heaviest row packed with the tau-1 lightest others.
        lo = s[0] / (s[0] + s[-(tau - 1):].sum())
        hi = s[-1] / (s[-1] + s[:tau - 1].sum())
        return float(lo), float(hi)


@dataclass(frozen=True)
class Partition(Kind):
    """A partition of [m] into disjoint blocks, block l drawn with
    probability ``probs[l]``.  Each row index and probability is read by
    ``kinds.number``.

    ``drawable`` holds the blocks a draw can give (probability > 0) by
    size, as (s, (L_s, s) rows) pairs in ascending s, and ``slot[l]`` is
    drawable block l's row among those of its size."""

    kind = "partition"
    blocks: tuple[tuple[int, ...], ...]
    probs: tuple[float, ...]

    blocks_recur = True  # the ell blocks are drawn again and again

    def __post_init__(self):
        blocks = tuple(tuple(sorted(number(i, "blocks", int) for i in blk)) for blk in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "probs", tuple(number(p, "probs", float) for p in self.probs))
        probs = np.array(self.probs)
        if len(blocks) != probs.size:
            raise ValueError("one probability per block required")
        if not (np.all(probs >= 0) and abs(probs.sum() - 1.0) <= 1e-12):
            raise ValueError("probs must be nonnegative and sum to 1")
        if not all(blocks):
            raise ValueError("every block must hold at least one row")
        flat = [i for blk in blocks for i in blk]
        m = len(flat)
        if sorted(flat) != list(range(m)):
            raise ValueError("blocks must be disjoint and cover 0..m-1")
        # Each row's block, and each block's rows padded to the widest drawable
        # block (one never drawn may be cut), so draws of one size need no cut.
        sizes = np.array([len(blk) for blk in blocks])
        lookup = np.empty(m, dtype=int)
        lookup[flat] = np.repeat(np.arange(len(blocks)), sizes)
        rows = np.zeros((len(blocks), sizes.max()), dtype=int)
        rows[np.arange(sizes.max()) < sizes[:, None]] = flat
        drawn = probs > 0
        drawable, slot = [], np.zeros(len(blocks), dtype=int)
        for size in sorted(set(sizes[drawn].tolist())):
            of_size = np.flatnonzero(drawn & (sizes == size))
            slot[of_size] = np.arange(of_size.size)
            drawable.append((size, rows[of_size, :size]))
        cdf = probs.cumsum()
        vars(self).update(_probs=probs, _cdf=cdf / cdf[-1], _block_of=lookup, _sizes=sizes,
                          drawable=drawable, slot=slot, _rows=rows[:, :drawable[-1][0]])

    @property
    def m(self) -> int:
        return self._block_of.size

    @property
    def ell(self) -> int:
        return len(self.blocks)

    def draws(self, words: WordSource, count: int) -> np.ndarray:
        """Each trial's next ``count`` block indices from the source
        ``words``, (steps, trials).  A draw takes u = (raw >> 11) 2**-53 of
        the trial's next raw word and gives the first l with u < cdf[l], the
        cumulative probabilities scaled to end at 1: numpy's formula for
        ``choice(p=...)``, so a block of probability 0 is never drawn."""
        u = (words.words(count).T >> 11) * 2.0**-53
        return self._cdf.searchsorted(u, side="right")

    def groups(self, draw: np.ndarray) -> list[tuple[np.ndarray | None, np.ndarray]]:
        """``BlockStream.groups`` of the block indices ``draw``: one group
        per block size among them."""
        J = self._rows[draw]
        if len(self.drawable) == 1:
            return [(None, J)]
        sizes = self._sizes[draw]
        if sizes.ndim == 0:
            return [(None, J[:sizes])]
        return [(np.flatnonzero(sizes == size), J[sizes == size, :size])
                for size in sorted(set(sizes.tolist()))]

    def block(self, drawn) -> np.ndarray:
        """The rows of the block with index ``drawn``."""
        return np.asarray(self.blocks[int(drawn)], dtype=int)

    def membership_probabilities(self) -> np.ndarray:
        return self._probs[self._block_of]

    def mean_block_size(self) -> float:
        """sum_l p_l |J_l|: exactly s when every drawable block has s rows."""
        s = self.drawable[0][0]
        return float(s + self._probs @ (self._sizes - s))

    def support_count(self) -> int:
        return self.ell

    def enumerate_supports(self) -> list[tuple[np.ndarray, float]]:
        return [(self.block(l), p) for l, p in enumerate(self.probs)]

    def support_groups(self, budget: int, seed: int):
        """Every block of positive probability, one stack per size (no
        budget or seed)."""
        return [(size, (rows,)) for size, rows in self.drawable], PARTITION_MAX

    def weight_bounds(self, base: np.ndarray) -> tuple[float, float]:
        """Exact extremes of base[i]/sum(base[J]) over sampleable (i, J)."""
        w = [base[rows] / base[rows].sum(axis=1, keepdims=True) for _, rows in self.drawable]
        return float(min(x.min() for x in w)), float(max(x.max() for x in w))


SamplingSpec = UniformSubset | Partition
SAMPLING_KINDS = registry(UniformSubset, Partition)


def sampling_from_dict(doc: dict) -> SamplingSpec:
    return from_kind_dict(SAMPLING_KINDS, doc, "sampling")


def check_covers(spec: SamplingSpec, system: LinearSystem) -> None:
    """Raise ConfigMismatchError unless ``spec`` draws from the system's rows."""
    if spec.m != system.m:
        raise ConfigMismatchError(f"sampling spec covers {spec.m} rows but the system has {system.m}")


# Block probabilities of a partition sampling: 1/ell, or ||A_J||_F^2 / ||A||_F^2.
PARTITION_PROBS = ("uniform", "frobenius")
# The sampling spec strings that ``build_sampling`` reads.
SAMPLING_FORMS = "uniform:T | partition:S | paving:L | full"


def build_sampling(text: str, system: LinearSystem, seed: int, probs: str = "uniform") -> SamplingSpec:
    """Parse ``uniform:T``, ``partition:S`` (contiguous blocks of about S
    rows), ``paving:L`` (seeded random paving into L blocks), or ``full``."""
    if probs not in PARTITION_PROBS:
        raise ValueError(f"partition_probs must be one of {', '.join(PARTITION_PROBS)}, "
                         f"got {probs!r}")
    m = system.m
    if text == "full":
        return full_batch(m)
    kind, _, param = text.partition(":")
    try:
        param = int(param)
    except ValueError:
        param = None
    if param is None or kind not in ("uniform", "partition", "paving"):
        raise ValueError(f"sampling spec {text!r} is not one of {SAMPLING_FORMS}")
    if kind == "uniform":
        return UniformSubset(m, param)
    if kind == "partition":
        if param < 1 or param > m:
            raise KaczlabError(f"partition block size {param} out of range")
        groups = np.array_split(np.arange(m), max(1, round(m / param)))
        blocks = [tuple(int(i) for i in g) for g in groups]
    else:
        blocks = build_random_paving(seed, m, param).blocks
    if probs == "frobenius":
        return frobenius_partition(system, blocks)
    return partition_spec(blocks)


def partition_spec(blocks, probs=None) -> Partition:
    """Partition sampling; default block probabilities are uniform 1/ell."""
    blocks = tuple(tuple(blk) for blk in blocks)
    if probs is None:
        probs = np.full(len(blocks), 1.0 / len(blocks))
    return Partition(blocks, probs)


def frobenius_partition(system: LinearSystem, blocks) -> Partition:
    """Partition sampling with probabilities ||A_J||_F^2 / ||A||_F^2."""
    w = np.array([system.row_norms_sq[list(blk)].sum() for blk in blocks])
    return Partition(tuple(tuple(blk) for blk in blocks), w / w.sum())


def full_batch(m: int) -> Partition:
    """The degenerate partition with the single block [m]."""
    return partition_spec([range(m)])


def sample_block(spec: SamplingSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw one support J, returned as sorted row indices: the spec's
    ``draws`` of one step from the raw words of ``rng``'s bit generator."""
    return spec.block(spec.draws(WordSource([rng.bit_generator]), 1)[0, 0])


# Steps of draws a BlockStream makes at once, at most.
DRAW_AHEAD = 256


class BlockStream:
    """Each trial's blocks, drawn for all trials in lockstep: trial t's are
    those that successive ``sample_block`` calls draw from
    ``default_rng(seeds[t])``.

    ``next()`` makes every live trial's next draw by the spec's ``draws``,
    up to ``DRAW_AHEAD`` steps ahead (never past ``steps``), from the
    stream's ``WordSource``.  A draw takes only its own trial's raw words,
    in order, so a trial's draws depend on its seed alone, not on the
    trials beside it or on how far ahead they are drawn, and drawing ahead
    of a trial that stops early changes nothing it returns.  A draw has a
    leading trial axis, except in a stream of one trial.  The spec's ``groups(draw)`` gives the drawn rows as
    (trials, J) pairs, J (L_g, tau_g) (no L_g axis for one trial), one
    per block size, trials None meaning all.
    """

    def __init__(self, spec: SamplingSpec, seeds, steps: int):
        self.spec = spec
        self.words = WordSource(seeds)
        self.single = len(self.words) == 1
        self._steps_left = steps
        # Draws made ahead, step-major: (steps, [trials,] ...).
        self._ahead, self._at = (), 0
        self.groups, self.block = spec.groups, spec.block

    def next(self) -> np.ndarray:
        """One draw per live trial: (L, tau) sorted rows for uniform specs,
        (L,) block indices for partitions (no L axis for one trial)."""
        if self._at == len(self._ahead):
            drawn = self.spec.draws(self.words, min(DRAW_AHEAD, self._steps_left))
            self._steps_left -= len(drawn)
            self._ahead = drawn[:, 0] if self.single else drawn
            self._at = 0
        self._at += 1
        return self._ahead[self._at - 1]

    def keep(self, live: np.ndarray) -> None:
        """Drop the trials where the boolean mask ``live`` is False."""
        self.words.keep(live)
        if len(self._ahead):
            self._ahead = self._ahead[:, live]


def membership_probability(spec: SamplingSpec, i: int) -> float:
    """p_i = P(i in J): tau/m for uniform subsets, the probability of the
    unique block containing i for partitions."""
    if not 0 <= i < spec.m:
        raise IndexError(f"row index {i} out of range for m={spec.m}")
    return float(spec.membership_probabilities()[i])


def mean_block_size(spec: SamplingSpec) -> float:
    """The expected size of a drawn block: tau for uniform subsets,
    sum_l p_l |J_l| for a partition, exactly 1.0 when every block it can
    draw is one row."""
    return spec.mean_block_size()


def support_count(spec: SamplingSpec) -> int:
    return spec.support_count()


def enumerate_supports(spec: SamplingSpec) -> list[tuple[np.ndarray, float]]:
    """Exhaustive list of (support, probability) pairs.

    Raises :class:`TooLargeError` when a uniform spec has more than
    ``ENUMERATION_CAP`` supports.  Partitions are always enumerable.
    """
    return spec.enumerate_supports()


@dataclass(frozen=True)
class Paving:
    """A random partition of [m] into ell near-equal contiguous runs of a
    uniformly drawn permutation."""

    blocks: tuple[tuple[int, ...], ...]
    ell: int
    seed: int

    @property
    def m(self) -> int:
        return sum(len(blk) for blk in self.blocks)

    def to_spec(self, probs=None) -> Partition:
        return partition_spec(self.blocks, probs)


def build_random_paving(seed: int, m: int, ell: int) -> Paving:
    """Draw a uniform permutation of [m] and cut it into ``ell`` contiguous
    runs whose sizes differ by at most one."""
    if not (1 <= ell <= m):
        raise BadBlockCountError(f"need 1 <= ell <= m, got ell={ell}, m={m}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(m).tolist()
    # np.array_split's runs: the first m % ell one row longer.
    q, r = divmod(m, ell)
    cuts = [i * q + min(i, r) for i in range(ell + 1)]
    blocks = tuple(tuple(sorted(order[a:b])) for a, b in zip(cuts, cuts[1:]))
    return Paving(blocks=blocks, ell=ell, seed=int(seed))


def paving_to_json(paving: Paving) -> str:
    """Serialize with 1-based row indices (the on-disk convention)."""
    doc = {
        "ell": paving.ell,
        "seed": paving.seed,
        "blocks": [[i + 1 for i in blk] for blk in paving.blocks],
    }
    return json.dumps(doc, indent=2)


def paving_from_json(text: str) -> Paving:
    """``paving_to_json``'s inverse.  Every number is read by
    ``kinds.number``, and ``ell`` must be the number of blocks."""
    doc = json.loads(text)
    blocks = doc["blocks"]
    ell = number_field(doc, "ell", int)
    if ell != len(blocks):
        raise ValueError(f"ell must be the number of blocks, {len(blocks)}, got {ell}")
    return Paving(blocks=tuple(tuple(number(i, "blocks", int) - 1 for i in blk) for blk in blocks),
                  ell=ell, seed=number_field(doc, "seed", int))
