"""The probability space over row subsets.

Two sampling laws are supported: uniform tau-subsets of [m], and a fixed
partition of [m] drawn with per-block probabilities, read from a JSON dict
or a spec string such as ``uniform:4``.  Small instances can be enumerated
exhaustively, which the test oracles rely on.  It is also the one module
that replays numpy's streams, which NEP 19 does not promise to keep:
``SeedSequence``'s hash (``trial_seeds``), PCG64's half-buffer
(``WordSource``), Lemire's bounded draws and Floyd's ``choice``.
"""

from __future__ import annotations

import functools
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


# numpy's Generator.choice(m, tau, replace=False) takes Floyd's algorithm
# unless m > CHOICE_FLOYD_MAX and tau > m // 50, where it shuffles a tail of
# arange(m) instead.
CHOICE_FLOYD_MAX = 10_000
# Uint32 draws replay_choice makes in one pass, at most: bounds its scratch.
# A pass holds REPLAY_DRAWS // (2 tau - 1) calls; below 40 (tau above about
# 200) its fixed cost outweighs per-call choice, so choice draws them
# (timed at m = 2000: a pass of 41 calls still wins, one of 32 loses).
REPLAY_DRAWS = 1 << 14


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
    """The uint32 words a ``Generator`` draws (``next_uint32``: what
    ``integers(2**32, dtype=uint32)`` returns, and what Lemire's bounded
    draws take) of generator t = ``Generator(PCG64(seeds[t]))``, the state
    of ``default_rng(seeds[t])``, for each seed: an int or a seed sequence
    (a ``Generator`` raises ``TypeError``).

    PCG64 draws a uint32 as the low half of a raw 64-bit word and keeps the
    high half in its state (``has_uint32``, ``uinteger``) for the next
    draw.  The generators are the source's own, so their buffers start
    empty and the source keeps them: a fetch is one ``random_raw`` call per
    generator.  ``call`` hands a generator, buffer and all, to a direct
    ``Generator`` call.
    """

    def __init__(self, seeds):
        self.rngs = [np.random.Generator(np.random.PCG64(seed)) for seed in seeds]
        # Each buffer, has_uint32 (0 or 1) and uinteger: its last half.
        self.has = np.zeros(len(self.rngs), dtype=np.int8)
        self.held = np.zeros(len(self.rngs), dtype=np.uint32)

    def __len__(self) -> int:
        return len(self.rngs)

    def words(self, n: int, sel: slice) -> np.ndarray:
        """The next ``n`` words of the generators in the slice ``sel``,
        (generators, n)."""
        has, idx = self.has[sel], range(len(self.rngs))[sel]
        if (has == has[0]).all():
            return self._fetch(n, int(has[0]), sel, idx)
        has = has.copy()  # _fetch moves self.has on
        out = np.empty((len(has), n), dtype=np.uint32)
        for kind in (0, 1):
            at = np.flatnonzero(has == kind)
            rows = at + idx.start
            out[at] = self._fetch(n, kind, rows, rows.tolist())
        return out

    def _fetch(self, n: int, kind: int, rows, idx) -> np.ndarray:
        """``words`` of the generators ``rows`` (a slice or indices; ``idx``
        lists them), whose buffers all have ``kind`` halves."""
        # A held half comes first, then each raw word's low and high halves.
        # The last high half is held while it is not drawn.
        count = (n + 1 - kind) // 2
        block = (np.stack([self.rngs[t].bit_generator.random_raw(count) for t in idx])
                 .astype("<u8", copy=False).view("<u4")
                 if count else np.empty((len(idx), 0), dtype=np.uint32))
        if kind:
            block = np.concatenate([self.held[rows, None], block], axis=1)
        if count:
            self.held[rows] = block[:, -1]
        self.has[rows] = block.shape[1] > n
        return block[:, :n]

    def bounded(self, bounds: np.ndarray, thresholds: np.ndarray, sel: slice) -> np.ndarray:
        """Lemire's bounded draws (u * bound) >> 32 of the generators in the
        slice ``sel``, (generators, D) for the D ``bounds`` (2 .. 2**32,
        uint64) in turn.  A draw rejects u while its low word is below its
        threshold, 2**32 mod bound, and draws again from the next word, as
        numpy's ``integers`` and ``choice`` do."""
        words = self.words(len(bounds), sel)
        prod = words * bounds
        accepted = prod.astype(np.uint32) >= thresholds
        prod >>= 32
        vals = prod.view(np.int64)
        if not accepted.all():
            for i in np.flatnonzero(~accepted.all(axis=1)).tolist():
                t = range(len(self.rngs))[sel][i]
                vals[i] = self._redraw(t, words[i], bounds, thresholds)
        return vals

    def _redraw(self, t: int, words: np.ndarray, bounds: np.ndarray,
                thresholds: np.ndarray) -> np.ndarray:
        """``bounded``'s draws of generator t, whose first len(bounds)
        ``words`` reject at least once."""
        out = np.empty(len(bounds), dtype=np.int64)
        d = 0  # draws made
        while True:
            prod = words * bounds[d:]
            accepted = prod.astype(np.uint32) >= thresholds[d:]
            r = len(words) if accepted.all() else int(accepted.argmin())
            out[d:d + r] = prod[:r] >> 32
            d += r
            if d == len(bounds):
                return out
            # Word r is rejected: the words after it serve draws d on, and
            # one more word makes up for it.
            words = np.concatenate([words[r + 1:], self.words(1, slice(t, t + 1))[0]])

    def call(self, t: int, draw, *args):
        """``draw(rng, *args)`` on generator t: its buffer is written to its
        state before and read back after."""
        bits = self.rngs[t].bit_generator
        state = bits.state
        state["has_uint32"], state["uinteger"] = int(self.has[t]), int(self.held[t])
        bits.state = state
        out = draw(self.rngs[t], *args)
        state = bits.state
        self.has[t], self.held[t] = state["has_uint32"], state["uinteger"]
        return out

    def keep(self, live: np.ndarray) -> None:
        """Drop the generators where the boolean mask ``live`` is False."""
        self.rngs = [rng for rng, keep in zip(self.rngs, live) if keep]
        self.has, self.held = self.has[live], self.held[live]


def replay_choice(words: WordSource, m: int, tau: int, count: int,
                  shuffle: bool = True) -> np.ndarray:
    """What ``count`` successive ``rng.choice(m, tau, replace=False)`` calls
    return for each generator of the source ``words``, as a (count, T, tau)
    stack, with every generator left in the state those calls leave.  With
    ``shuffle`` False each row holds the same values in Floyd's order, for
    callers that sort them; the shuffle's draws are still made.

    Such a call makes 2 tau - 1 draws, each Lemire's bounded integer
    (u * bound) >> 32 of one uint32 u of the generator's stream: Floyd's
    sample takes bound j + 1 for j = m - tau ... m - 1 (j = 0 draws
    nothing), then its shuffle i + 1 for i = tau - 1 ... 1.  Here each
    generator makes all its draws of a pass from one fetch of the
    ``WordSource``, rejected words included.  ``choice`` draws every
    generator (``WordSource.call``) where it does not take Floyd's
    algorithm or draws 64-bit words (m > 2**32), or where a pass holds
    fewer than 40 calls (``REPLAY_DRAWS``).
    """
    T = len(words)
    out = np.empty((count, T, tau), dtype=np.int64)
    if (m > 1 << 32 or (m > CHOICE_FLOYD_MAX and tau > m // 50)
            or REPLAY_DRAWS // (2 * tau - 1) < 40):
        for t in range(T):
            words.call(t, _choice_calls, m, tau, out[:, t])
        return out
    low = m - tau  # Floyd's first j
    bounds = np.concatenate([np.arange(max(low, 1) + 1, m + 1),
                             np.arange(tau, 1, -1)]).astype(np.uint64)
    per_call, floyd = len(bounds), len(bounds) - (tau - 1)
    # A pass: up to ``steps`` calls of ``group`` generators (choice(1, 1)
    # draws nothing, counted as one draw).
    steps = max(1, min(count, REPLAY_DRAWS // max(per_call, 1)))
    group = max(1, REPLAY_DRAWS // (max(per_call, 1) * steps))
    bounds = np.tile(bounds, steps)
    thresholds = ((1 << 32) % bounds).astype(np.uint32)
    for k in range(0, count, steps):
        block = out[k:k + steps]
        draws = len(block) * per_call
        for t in range(0, T, group):
            vals = words.bounded(bounds[:draws], thresholds[:draws], slice(t, t + group))
            batch = len(vals)
            vals = vals.reshape(batch * len(block), per_call)
            J = _floyd_sample(vals[:, :floyd], low, tau)
            if shuffle:
                _shuffle(J, vals[:, floyd:])
            block[:, t:t + group] = J.reshape(batch, len(block), tau).swapaxes(0, 1)
    return out


def _choice_calls(rng: np.random.Generator, m: int, tau: int, out: np.ndarray) -> None:
    """Fill each row of ``out`` by one ``rng.choice(m, tau, replace=False)``."""
    for row in out:
        row[:] = rng.choice(m, size=tau, replace=False)


def _floyd_sample(vals: np.ndarray, low: int, tau: int) -> np.ndarray:
    """Floyd's samples from their draws, one row per call: Floyd's loop over
    the positions, where position p holds its draw, or j = low + p where an
    earlier position already holds the draw.  The loop runs on a (tau,
    calls) array, whose positions are contiguous rows."""
    J = np.zeros((tau, len(vals)), dtype=np.int64)
    J[tau - vals.shape[1]:] = vals.T  # j = 0 draws nothing and holds 0
    for p in range(1, tau):
        J[p, (J[:p] == J[p]).any(axis=0)] = low + p
    return J.T


def _shuffle(J: np.ndarray, draws: np.ndarray) -> None:
    """``choice``'s shuffle of each row of J, in place: for i = tau - 1 ...
    1, swap entries i and draws[:, tau - 1 - i]."""
    rows = np.arange(len(J))
    for c, i in enumerate(range(J.shape[1] - 1, 0, -1)):
        k = draws[:, c]
        J[:, i], J[rows, k] = J[rows, k], J[:, i].copy()


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

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """``sample_block``: one support J as sorted row indices."""
        if self.tau == 1:
            return np.array([rng.integers(self.m)])
        J = rng.choice(self.m, size=self.tau, replace=False)
        J.sort()
        return J

    def draws(self, words: WordSource, count: int) -> np.ndarray:
        """``BlockStream``'s next draws from the source ``words``, (steps,
        trials, tau) sorted rows: ``count`` steps of one row, the values and
        generator states of a call ``integers(m, size=count)``, Lemire's
        draws from the source's words (m > 2**32 draws 64-bit words: that
        call itself); or of tau > 1 rows, ``replay_choice``'s replay of
        ``choice``, fewer steps where they would hold more than
        ``AHEAD_VALUES`` indices."""
        if self.tau > 1:
            count = min(count, max(1, AHEAD_VALUES // (len(words) * self.tau)))
            J = replay_choice(words, self.m, self.tau, count, shuffle=False)
            J.sort(axis=-1)
            return J
        if self.m == 1:
            return np.zeros((count, len(words), 1), dtype=np.int64)
        if self.m > 1 << 32:
            return np.stack([words.call(t, np.random.Generator.integers, 0, self.m, (count, 1))
                             for t in range(len(words))], axis=1)
        bounds = np.full(count, self.m, dtype=np.uint64)
        thresholds = np.full(count, (1 << 32) % self.m, dtype=np.uint32)
        return words.bounded(bounds, thresholds, slice(None)).T.reshape(count, -1, 1)

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
        else ``budget`` drawn from ``seed`` (a lower bound), one stack per
        ``replay_choice`` call."""
        if self.support_count() <= ENUMERATION_CAP:
            return [(self.tau, (_combinations(self.m, self.tau),))], EXACT_ENUMERATION
        words = WordSource([seed])
        per_call = max(1, AHEAD_VALUES // self.tau)
        supports = (replay_choice(words, self.m, self.tau, min(per_call, budget - k))[:, 0]
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
        vars(self).update(_probs=probs, _block_of=lookup, _sizes=sizes, drawable=drawable,
                          slot=slot, _rows=rows[:, :drawable[-1][0]])

    @property
    def m(self) -> int:
        return self._block_of.size

    @property
    def ell(self) -> int:
        return len(self.blocks)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """``sample_block``: the rows of one drawn block."""
        return self.block(rng.choice(self.ell, p=self._probs))

    def draws(self, words: WordSource, count: int) -> np.ndarray:
        """``BlockStream``'s next ``count`` draws from the source ``words``,
        (steps, trials) block indices: a call with ``size=count`` gives the
        values of ``count``."""
        # Doubles take whole raw words: the source's buffered halves stay as
        # they are.
        return np.stack([rng.choice(self.ell, size=count, p=self._probs)
                         for rng in words.rngs], axis=1)

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
    """Draw one support J, returned as sorted row indices."""
    return spec.sample(rng)


# Steps of draws a BlockStream makes at once, at most.
DRAW_AHEAD = 256


class BlockStream:
    """The blocks ``sample_block`` would draw from each of several
    generators, one per trial, drawn for all trials in lockstep.

    ``next()`` makes every live trial's next draw with the values and the
    generator use of ``sample_block``, by the spec's ``draws`` up to
    ``DRAW_AHEAD`` steps ahead (never past ``steps``): Lemire's draws from
    one ``WordSource`` fetch per generator for one-row draws,
    ``replay_choice``'s replay of the ``choice`` calls for uniform blocks of
    tau > 1 rows, one ``choice`` call with ``size`` per generator for
    partitions.  Trial t's generator is ``default_rng(seeds[t])``'s, built
    by the stream's ``WordSource``.  The generators serve nothing else, so
    drawing ahead of a trial that stops early changes nothing it
    returns.  A draw has a leading trial axis, except in a stream of one
    generator.  The spec's ``groups(draw)`` gives the drawn rows as
    (trials, J) pairs, J (L_g, tau_g) (no L_g axis for one generator), one
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
        (L,) block indices for partitions (no L axis for one generator)."""
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
