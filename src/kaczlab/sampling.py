"""The probability space over row subsets.

Two sampling laws are supported: uniform tau-subsets of [m], and a fixed
partition of [m] drawn with per-block probabilities.  Small instances can
be enumerated exhaustively, which the test oracles rely on.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import BadBlockCountError, TooLargeError
from .kinds import Kind, from_kind_dict, registry
from .linalg import LinearSystem

# Exhaustive enumeration is refused above this many supports.
ENUMERATION_CAP = 10**5


@dataclass(frozen=True)
class UniformSubset(Kind):
    """Uniform sampling of a size-``tau`` subset of the m row indices."""

    kind = "uniform"
    m: int
    tau: int

    def __post_init__(self):
        if not (1 <= self.tau <= self.m):
            raise ValueError(f"need 1 <= tau <= m, got tau={self.tau}, m={self.m}")


@dataclass(frozen=True, eq=False)
class Partition(Kind):
    """A partition of [m] into disjoint blocks, block l drawn with
    probability ``probs[l]``."""

    kind = "partition"
    blocks: tuple[tuple[int, ...], ...]
    probs: np.ndarray

    def __eq__(self, other):
        return (
            isinstance(other, Partition)
            and self.blocks == other.blocks
            and np.array_equal(self.probs, other.probs)
        )

    def __hash__(self):
        return hash((self.blocks, self.probs.tobytes()))

    def __post_init__(self):
        blocks = tuple(tuple(sorted(int(i) for i in blk)) for blk in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        probs = np.asarray(self.probs, dtype=float).reshape(-1)
        object.__setattr__(self, "probs", probs)
        if len(blocks) != probs.size:
            raise ValueError("one probability per block required")
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must be nonnegative and sum to 1")
        flat = [i for blk in blocks for i in blk]
        m = len(flat)
        if sorted(flat) != list(range(m)):
            raise ValueError("blocks must be disjoint and cover 0..m-1")
        lookup = np.empty(m, dtype=int)
        for l, blk in enumerate(blocks):
            lookup[list(blk)] = l
        object.__setattr__(self, "_block_of", lookup)

    @property
    def m(self) -> int:
        return self._block_of.size

    @property
    def ell(self) -> int:
        return len(self.blocks)


SamplingSpec = UniformSubset | Partition
SAMPLING_KINDS = registry(UniformSubset, Partition)


def sampling_from_dict(doc: dict) -> SamplingSpec:
    return from_kind_dict(SAMPLING_KINDS, doc, "sampling")


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
    if isinstance(spec, UniformSubset):
        if spec.tau == 1:
            return np.array([rng.integers(spec.m)])
        J = rng.choice(spec.m, size=spec.tau, replace=False)
        J.sort()
        return J
    l = rng.choice(spec.ell, p=spec.probs)
    return np.asarray(spec.blocks[l], dtype=int)


def membership_probability(spec: SamplingSpec, i: int) -> float:
    """p_i = P(i in J): tau/m for uniform subsets, the probability of the
    unique block containing i for partitions."""
    if not 0 <= i < spec.m:
        raise IndexError(f"row index {i} out of range for m={spec.m}")
    return float(membership_probabilities(spec)[i])


def membership_probabilities(spec: SamplingSpec) -> np.ndarray:
    """All m membership probabilities p_i at once."""
    if isinstance(spec, UniformSubset):
        return np.full(spec.m, spec.tau / spec.m)
    return spec.probs[spec._block_of]


def support_count(spec: SamplingSpec) -> int:
    if isinstance(spec, UniformSubset):
        return comb(spec.m, spec.tau)
    return spec.ell


def enumerate_supports(spec: SamplingSpec) -> list[tuple[np.ndarray, float]]:
    """Exhaustive list of (support, probability) pairs.

    Raises :class:`TooLargeError` when a uniform spec has more than
    ``ENUMERATION_CAP`` supports.  Partitions are always enumerable.
    """
    if isinstance(spec, UniformSubset):
        total = comb(spec.m, spec.tau)
        if total > ENUMERATION_CAP:
            raise TooLargeError(f"C({spec.m},{spec.tau}) = {total} exceeds cap")
        p = 1.0 / total
        return [
            (np.array(J, dtype=int), p)
            for J in itertools.combinations(range(spec.m), spec.tau)
        ]
    return [
        (np.asarray(blk, dtype=int), float(p))
        for blk, p in zip(spec.blocks, spec.probs)
    ]


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
    perm = rng.permutation(m)
    blocks = tuple(tuple(sorted(int(i) for i in run)) for run in np.array_split(perm, ell))
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
    doc = json.loads(text)
    blocks = tuple(tuple(int(i) - 1 for i in blk) for blk in doc["blocks"])
    return Paving(blocks=blocks, ell=int(doc["ell"]), seed=int(doc["seed"]))
