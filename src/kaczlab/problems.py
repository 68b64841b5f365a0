"""Synthetic problem generators.

Every generator returns a row-normalized system with a planted Gaussian
solution, so the systems are consistent by construction.  The four kinds
cover the regimes the solver family cares about: generic well-spread rows,
a singular spectrum, nearly collinear rows, and perfectly conditioned
aligned blocks.
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass

import numpy as np

from .errors import BadDimensionsError
from .kinds import Kind, from_kind_dict, registry
from .linalg import LinearSystem, aligned, empty_aligned
from .sampling import Partition, partition_spec


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """A fresh array ``rows`` with each row divided by its norm twice (the
    second pass snaps norms left a few ulps off 1), in place and
    ``aligned``, so that ``LinearSystem`` keeps it without a copy."""
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms < 1e-12):
        raise BadDimensionsError("degenerate (near-zero) row produced; try another seed")
    rows = aligned(rows)
    rows /= norms[:, None]
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    return rows


@dataclass(frozen=True)
class GaussianNormalized(Kind):
    kind = "gaussian"
    m: int
    n: int
    seed: int = 0

    def matrix(self, rng: np.random.Generator) -> np.ndarray:
        return _unit_rows(rng.standard_normal(out=empty_aligned((self.m, self.n))))


@dataclass(frozen=True)
class RankDeficient(Kind):
    """A = U diag(s) V^T with ``rank`` nonzero singular values, rows then
    normalized; lambda_min(A A^T) = 0 whenever m > rank."""

    kind = "rank-deficient"
    m: int
    n: int
    rank: int
    seed: int = 0

    def matrix(self, rng: np.random.Generator) -> np.ndarray:
        r = self.rank
        if not 1 <= r <= min(self.m, self.n):
            raise BadDimensionsError(f"rank must lie in 1..min(m, n), got {r}")
        U, _ = np.linalg.qr(rng.standard_normal((self.m, r)))
        V, _ = np.linalg.qr(rng.standard_normal((self.n, r)))
        s = np.linspace(1.0, 2.0, r)
        return _unit_rows((U * s) @ V.T)


@dataclass(frozen=True)
class CoherentRows(Kind):
    """Unit rows interpolated toward a common direction; coherence = 1
    collapses the matrix to rank one (squared spectral norm = m)."""

    kind = "coherent"
    m: int
    n: int
    coherence: float
    seed: int = 0

    def matrix(self, rng: np.random.Generator) -> np.ndarray:
        c = self.coherence
        if not 0.0 <= c <= 1.0:
            raise BadDimensionsError(f"coherence must lie in [0, 1], got {c}")
        v = _unit_rows(rng.standard_normal((1, self.n)))[0]
        U = _unit_rows(rng.standard_normal((self.m, self.n)))
        return _unit_rows((1.0 - c) * U + c * v)


@dataclass(frozen=True)
class OrthonormalBlocks(Kind):
    """Stacked blocks of ``block_size`` orthonormal rows; under the aligned
    partition every block Gram is the identity, so lambda_max^block = 1."""

    kind = "orthoblocks"
    m: int
    n: int
    block_size: int
    seed: int = 0

    def matrix(self, rng: np.random.Generator) -> np.ndarray:
        bs = self.block_size
        if bs < 1 or self.m % bs != 0 or bs > self.n:
            raise BadDimensionsError(
                f"block_size must divide m and be <= n, got block_size={bs}, m={self.m}, n={self.n}"
            )
        blocks = []
        for _ in range(self.m // bs):
            Q, _ = np.linalg.qr(rng.standard_normal((self.n, bs)))
            blocks.append(Q.T)
        return np.vstack(blocks)


ProblemRecipe = GaussianNormalized | RankDeficient | CoherentRows | OrthonormalBlocks
RECIPE_KINDS = registry(GaussianNormalized, RankDeficient, CoherentRows, OrthonormalBlocks)


def generate_problem(recipe: ProblemRecipe) -> LinearSystem:
    """The recipe's ``matrix`` and a planted solution, drawn in turn from
    one generator seeded with the recipe's seed."""
    if recipe.m < 1 or recipe.n < 1:
        raise BadDimensionsError(f"bad dimensions m={recipe.m}, n={recipe.n}")
    rng = np.random.default_rng(recipe.seed)
    A = recipe.matrix(rng)
    x_planted = rng.standard_normal(recipe.n)
    return LinearSystem(A, A @ x_planted, planted_solution=x_planted, normalized=True)


def aligned_partition(m: int, block_size: int) -> Partition:
    """Contiguous blocks of ``block_size`` rows (the partition matching
    OrthonormalBlocks)."""
    if block_size < 1 or m % block_size != 0:
        raise BadDimensionsError(f"block_size must divide m, got {block_size}, m={m}")
    blocks = [range(i, i + block_size) for i in range(0, m, block_size)]
    return partition_spec(blocks)


def parse_recipe(text: str, seed: int = 0) -> ProblemRecipe:
    """Parse ``kind:MxN[:param]`` recipe strings.

    Kinds: ``gaussian:50x20``, ``rank-deficient:30x20:10``,
    ``coherent:40x10:0.8``, ``orthoblocks:32x32:8``.
    """
    parts = text.split(":")
    kind = parts[0].lower()
    # The optional param fills the field between n and seed, read as its type.
    cls = RECIPE_KINDS.get(kind)
    params = [f.name for f in dataclasses.fields(cls)][2:-1] if cls else []
    hints = typing.get_type_hints(cls) if cls else {}
    try:
        m, n = (int(t) for t in parts[1].split("x"))
        doc = {name: hints[name](t) for name, t in zip(params, parts[2:])}
    except (IndexError, ValueError) as exc:
        raise ValueError(f"cannot parse recipe {text!r}: expected kind:MxN[:param]") from exc
    return recipe_from_dict({"kind": kind, "m": m, "n": n, "seed": seed} | doc)


def recipe_to_dict(recipe: ProblemRecipe) -> dict:
    return recipe.to_dict()


def recipe_from_dict(doc: dict) -> ProblemRecipe:
    return from_kind_dict(RECIPE_KINDS, doc, "recipe")
