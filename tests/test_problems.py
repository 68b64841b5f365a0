import numpy as np
import pytest

from kaczlab.analysis import block_lambda_max
from kaczlab.errors import BadDimensionsError
from kaczlab.linalg import spectral_norm_sq, sym_eigenvalues
from kaczlab.problems import (
    CoherentRows,
    GaussianNormalized,
    OrthonormalBlocks,
    RankDeficient,
    aligned_partition,
    generate_problem,
    parse_recipe,
    recipe_from_dict,
    recipe_to_dict,
)


@pytest.mark.parametrize(
    "recipe",
    [
        GaussianNormalized(4, 4, seed=7),
        RankDeficient(6, 4, rank=2, seed=7),
        CoherentRows(5, 3, coherence=0.4, seed=7),
        OrthonormalBlocks(8, 8, block_size=4, seed=7),
    ],
)
def test_generators_deterministic_normalized_consistent(recipe):
    s1 = generate_problem(recipe)
    s2 = generate_problem(recipe)
    assert np.array_equal(s1.A, s2.A)
    assert np.array_equal(s1.b, s2.b)
    assert s1.normalized
    np.testing.assert_allclose(np.linalg.norm(s1.A, axis=1), 1.0, atol=1e-12)
    assert np.linalg.norm(s1.A @ s1.planted_solution - s1.b) <= 1e-10 * (
        1 + np.linalg.norm(s1.b)
    )


def test_orthonormal_blocks_aligned_conditioning():
    system = generate_problem(OrthonormalBlocks(8, 8, block_size=4, seed=0))
    val, _ = block_lambda_max(system, aligned_partition(8, 4))
    assert val == pytest.approx(1.0, abs=1e-12)


def test_rank_deficient_spectrum():
    system = generate_problem(RankDeficient(6, 4, rank=2, seed=1))
    gram = sym_eigenvalues(system.A @ system.A.T)
    assert gram.rank_estimate == 2
    assert gram.lambda_min == pytest.approx(0.0, abs=1e-12)
    assert gram.lambda_min_nz > 0


def test_coherent_rows_extremes():
    diffuse = generate_problem(CoherentRows(20, 6, coherence=0.0, seed=2))
    collinear = generate_problem(CoherentRows(20, 6, coherence=1.0, seed=2))
    assert spectral_norm_sq(collinear.A) == pytest.approx(20.0, rel=1e-10)
    assert spectral_norm_sq(diffuse.A) < 10.0


def test_dimension_validation():
    with pytest.raises(BadDimensionsError):
        generate_problem(RankDeficient(4, 3, rank=5, seed=0))
    with pytest.raises(BadDimensionsError):
        generate_problem(OrthonormalBlocks(9, 8, block_size=4, seed=0))  # 4 does not divide 9
    with pytest.raises(BadDimensionsError):
        generate_problem(OrthonormalBlocks(8, 3, block_size=4, seed=0))  # needs bs <= n
    with pytest.raises(BadDimensionsError):
        generate_problem(CoherentRows(4, 3, coherence=1.5, seed=0))


def test_parse_recipe_strings():
    assert parse_recipe("gaussian:50x20", seed=3) == GaussianNormalized(50, 20, 3)
    assert parse_recipe("rank-deficient:30x20:10") == RankDeficient(30, 20, 10, 0)
    assert parse_recipe("coherent:40x10:0.8") == CoherentRows(40, 10, 0.8, 0)
    assert parse_recipe("orthoblocks:32x32:8") == OrthonormalBlocks(32, 32, 8, 0)
    with pytest.raises(ValueError):
        parse_recipe("gaussian:badxdims")
    with pytest.raises(ValueError):
        parse_recipe("mystery:3x3")


@pytest.mark.parametrize(
    "recipe",
    [
        GaussianNormalized(4, 4, seed=7),
        RankDeficient(6, 4, rank=2, seed=3),
        CoherentRows(5, 3, coherence=0.4, seed=1),
        OrthonormalBlocks(8, 8, block_size=4, seed=2),
    ],
)
def test_recipe_dict_roundtrip(recipe):
    assert recipe_from_dict(recipe_to_dict(recipe)) == recipe


@pytest.mark.parametrize("block_size", [3, 0], ids=["not-a-divisor", "zero"])
def test_aligned_partition_refuses_a_block_size_that_does_not_divide_m(block_size):
    with pytest.raises(BadDimensionsError, match="divide"):
        aligned_partition(8, block_size)
