import dataclasses
import gc
import weakref

import numpy as np
import pytest

from kaczlab import linalg
from kaczlab.errors import (
    InconsistentSystemError,
    NotSquareError,
    NotSymmetricError,
    ZeroRowError,
)
from kaczlab.analysis import build_conditioning_report
from kaczlab.linalg import (
    RANK_TOL,
    LinearSystem,
    SolutionProjector,
    least_squares_min_norm,
    normalize_rows,
    project_onto_solution_set,
    row_blocks,
    spectral_norm_sq,
    sym_eigenvalues,
)
from kaczlab.problems import generate_problem, parse_recipe
from kaczlab.sampling import UniformSubset
from kaczlab.solver import RBK, SolverConfig, run_monte_carlo, run_solver
from kaczlab.stepsize import Adaptive, uniform_weights


def random_system(m, n, seed, rank=None):
    rng = np.random.default_rng(seed)
    if rank is None:
        A = rng.standard_normal((m, n))
    else:
        A = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    x = rng.standard_normal(n)
    return LinearSystem(A, A @ x, planted_solution=x)


class TestLinearSystem:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LinearSystem(np.eye(2), np.ones(3))

    def test_nonfinite_rejected(self):
        A = np.eye(2)
        A[0, 0] = np.nan
        with pytest.raises(ValueError):
            LinearSystem(A, np.ones(2))

    def test_inconsistent_planted_rejected(self):
        with pytest.raises(InconsistentSystemError):
            LinearSystem(np.eye(2), np.array([1.0, 2.0]), planted_solution=np.array([1.0, 0.0]))

    def test_normalized_flag_checked(self):
        with pytest.raises(ValueError):
            LinearSystem(2 * np.eye(2), np.ones(2), normalized=True)


class TestNormalizeRows:
    def test_single_row(self):
        system, scaling = normalize_rows(LinearSystem(np.array([[3.0, 4.0]]), np.array([10.0])))
        np.testing.assert_allclose(system.A, [[0.6, 0.8]])
        np.testing.assert_allclose(system.b, [2.0])
        np.testing.assert_allclose(scaling.scales, [5.0])
        assert system.normalized

    def test_identity_unchanged(self):
        system, scaling = normalize_rows(LinearSystem(np.eye(2), np.array([1.0, 2.0])))
        np.testing.assert_allclose(system.A, np.eye(2))
        np.testing.assert_allclose(scaling.scales, [1.0, 1.0])

    def test_zero_row_rejected(self):
        bad = LinearSystem(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.0, 1.0]))
        with pytest.raises(ZeroRowError) as err:
            normalize_rows(bad)
        assert err.value.row == 0

    def test_refuses_the_rows_the_kernels_refuse(self):
        # ||a|| is just above 1e-14 but a . a is below 1e-28: the kernels'
        # zero-row rule (``has_zero_rows``) is the one that applies.
        A = np.array([[1.0, 0.0], [-1.7956986659246403e-15, 9.837452226120158e-15]])
        system = LinearSystem(A, np.array([1.0, 0.0]))
        assert system.has_zero_rows
        with pytest.raises(ZeroRowError) as err:
            normalize_rows(system)
        assert err.value.row == 1

    def test_solution_set_preserved(self):
        system = random_system(7, 4, seed=0)
        normed, _ = normalize_rows(system)
        x = system.planted_solution
        assert np.linalg.norm(normed.A @ x - normed.b) <= 1e-10


class TestSymEigenvalues:
    def test_classic_2x2(self):
        out = sym_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(out.eigenvalues, [3.0, 1.0], atol=1e-12)

    def test_diagonal_with_zero(self):
        out = sym_eigenvalues(np.diag([3.0, 1.0, 0.0]))
        np.testing.assert_allclose(out.eigenvalues, [3.0, 1.0, 0.0], atol=1e-12)
        assert out.lambda_min_nz == pytest.approx(1.0)
        assert out.rank_estimate == 2

    def test_identity(self):
        out = sym_eigenvalues(np.eye(5))
        np.testing.assert_allclose(out.eigenvalues, np.ones(5))
        assert out.rank_estimate == 5

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetricError):
            sym_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_not_square(self):
        with pytest.raises(NotSquareError):
            sym_eigenvalues(np.ones((2, 3)))

    def test_trace_and_frobenius_identities(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            M = rng.standard_normal((6, 6))
            S = M @ M.T
            out = sym_eigenvalues(S)
            assert np.trace(S) == pytest.approx(out.eigenvalues.sum(), rel=1e-8)
            assert np.linalg.norm(S) ** 2 == pytest.approx((out.eigenvalues**2).sum(), rel=1e-8)

    def test_accuracy_against_planted_spectrum(self):
        rng = np.random.default_rng(7)
        lam = np.sort(rng.uniform(0.0, 5.0, size=8))[::-1]
        Q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        out = sym_eigenvalues(Q @ np.diag(lam) @ Q.T)
        np.testing.assert_allclose(out.eigenvalues, lam, atol=1e-9 * max(1.0, lam[0]))


class TestSpectralNormSq:
    def test_duplicated_row(self):
        assert spectral_norm_sq(np.array([[1.0, 0.0], [1.0, 0.0]])) == pytest.approx(2.0)

    def test_identity(self):
        assert spectral_norm_sq(np.eye(3)) == pytest.approx(1.0)

    def test_tall_matrix(self):
        # A^T A = diag(2, 1) by direct Gram computation.
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert spectral_norm_sq(A) == pytest.approx(2.0)


class TestLeastSquaresMinNorm:
    def test_min_norm_pick(self):
        np.testing.assert_allclose(
            least_squares_min_norm(np.array([[1.0, 0.0]]), [2.0]), [2.0, 0.0], atol=1e-12
        )

    def test_identity(self):
        np.testing.assert_allclose(
            least_squares_min_norm(np.eye(2), [3.0, 4.0]), [3.0, 4.0], atol=1e-12
        )

    def test_rank_deficient_mean(self):
        # Normal equations give x1 = mean of r for two identical rows.
        A = np.array([[1.0, 0.0], [1.0, 0.0]])
        np.testing.assert_allclose(least_squares_min_norm(A, [1.0, 3.0]), [2.0, 0.0], atol=1e-12)

    def test_residual_orthogonal_to_range(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((8, 5))
        r = rng.standard_normal(8)
        x = least_squares_min_norm(A, r)
        assert np.linalg.norm(A.T @ (A @ x - r)) <= 1e-8


class TestProjection:
    def test_unique_solution(self):
        system = LinearSystem(np.eye(2), np.array([1.0, 2.0]))
        np.testing.assert_allclose(project_onto_solution_set(system, [0.0, 0.0]), [1.0, 2.0])

    def test_hyperplane(self):
        system = LinearSystem(np.array([[1.0, 0.0]]), np.array([1.0]))
        np.testing.assert_allclose(project_onto_solution_set(system, [0.0, 5.0]), [1.0, 5.0])

    def test_fixed_point(self):
        system = random_system(6, 4, seed=1)
        z = project_onto_solution_set(system, system.planted_solution)
        np.testing.assert_allclose(z, system.planted_solution, atol=1e-10)

    def test_idempotence(self):
        system = random_system(5, 8, seed=2)
        rng = np.random.default_rng(9)
        for _ in range(5):
            z = project_onto_solution_set(system, rng.standard_normal(8))
            zz = project_onto_solution_set(system, z)
            assert np.linalg.norm(zz - z) <= 1e-8

    def test_displacement_in_row_space(self):
        system = random_system(4, 7, seed=5)
        x = np.random.default_rng(11).standard_normal(7)
        z = project_onto_solution_set(system, x)
        assert np.linalg.norm(system.A @ z - system.b) <= 1e-8 * (1 + np.linalg.norm(system.b))
        # x - z must lie in range(A^T): no component in the null space of A.
        _, _, Vt = np.linalg.svd(system.A)
        null_basis = Vt[np.linalg.matrix_rank(system.A):]
        assert np.linalg.norm(null_basis @ (x - z)) <= 1e-8

    def test_inconsistent_rejected(self):
        bad = LinearSystem(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([0.0, 1.0]))
        with pytest.raises(InconsistentSystemError):
            project_onto_solution_set(bad, [0.0, 0.0])

    def test_projector_matches_function(self):
        system = random_system(6, 9, seed=8, rank=4)
        proj = SolutionProjector(system)
        rng = np.random.default_rng(4)
        for _ in range(3):
            x = rng.standard_normal(9)
            np.testing.assert_allclose(
                proj.project(x), project_onto_solution_set(system, x), atol=1e-10
            )
            assert proj.dist_sq(x) == pytest.approx(
                np.linalg.norm(x - proj.project(x)) ** 2, abs=1e-12
            )


def test_courant_fischer_lower_bound():
    rng = np.random.default_rng(21)
    A = rng.standard_normal((6, 10))
    A[5] = A[0] + A[1]  # force rank deficiency
    lam = sym_eigenvalues(A @ A.T).lambda_min_nz
    for _ in range(10):
        x = A.T @ rng.standard_normal(6)  # random point of range(A^T)
        assert A @ x @ (A @ x) >= (lam - 1e-8) * (x @ x)


# A tall, a wide and a rank-deficient system: every quantity a system
# derives comes from its one SVD.
SVD_RECIPES = ["gaussian:40x12", "gaussian:12x30", "rank-deficient:30x20:10"]


@pytest.mark.parametrize("recipe", SVD_RECIPES)
def test_gram_spectrum_matches_eigenvalues_of_gram(recipe):
    system = generate_problem(parse_recipe(recipe, seed=4))
    gram, ref = system.gram_spectrum, sym_eigenvalues(system.A @ system.A.T)
    assert gram.eigenvalues.shape == (system.m,)
    np.testing.assert_allclose(gram.eigenvalues, ref.eigenvalues, rtol=1e-12,
                               atol=1e-12 * ref.lambda_max)
    assert gram.lambda_max == pytest.approx(ref.lambda_max, rel=1e-12)
    assert gram.lambda_min_nz == pytest.approx(ref.lambda_min_nz, rel=1e-12)
    assert gram.rank_estimate == ref.rank_estimate == np.linalg.matrix_rank(system.A)
    if system.m > system.n:
        assert gram.lambda_min == 0.0


@pytest.mark.parametrize("recipe", SVD_RECIPES)
def test_projector_factor_is_pinv_at_the_rank_cutoff(recipe):
    # The projector keeps the rank of numpy's pinv at the rank cutoff and
    # projects as x - A^+ (A x - b) with that pinv.
    system = generate_problem(parse_recipe(recipe, seed=4))
    reference = np.linalg.pinv(system.A, rcond=np.sqrt(RANK_TOL))
    projector = SolutionProjector(system)
    assert len(projector.vt_r) == np.linalg.matrix_rank(reference)
    assert len(projector.vt_r) == system.gram_spectrum.rank_estimate
    x = np.random.default_rng(5).standard_normal(system.n)
    np.testing.assert_allclose(projector.project(x), x - reference @ (system.A @ x - system.b),
                               rtol=1e-12)


def test_one_rank_rule_for_spectrum_and_projector():
    # sigma = (1, 1e-7): sigma^2 = 1e-14 is below RANK_TOL times the
    # largest, so the second direction is null for the spectrum and the
    # projector alike.
    A = np.diag([1.0, 1e-7])
    system = LinearSystem(A, A @ np.ones(2))
    assert system.gram_spectrum.rank_estimate == 1
    assert len(system.projector.vt_r) == 1
    assert np.linalg.matrix_rank(np.linalg.pinv(A, rcond=np.sqrt(RANK_TOL))) == 1
    np.testing.assert_array_equal(system.projector.project(np.zeros(2)), [1.0, 0.0])


@pytest.mark.parametrize("recipe", SVD_RECIPES)
def test_projector_dist_sq_of_a_stack_is_per_iterate(recipe):
    system = generate_problem(parse_recipe(recipe, seed=4))
    X = np.random.default_rng(6).standard_normal((5, system.n))
    stacked = system.projector.dist_sq(X)
    assert stacked.shape == (5,)
    assert np.array_equal(stacked, [system.projector.dist_sq(x) for x in X])


@pytest.mark.parametrize("n", [1, 2, 500, 3000])
def test_residual_of_a_stack_is_per_iterate(n):
    # A row block holds 128 rows at n = 500 and 20 at n = 3000: m = 129,
    # 130, 131 at n = 500, and 2000, 2001, 2003 at n = 3000, end in whole
    # blocks and 1, 2 or 3 rows (one row joins the block before it).  At
    # n = 1 and 2 every A is one block.  A row the BLAS computes by another
    # kernel in a block than in one gemv over A, at the thread count this
    # runs with, shows as a bit that differs.
    rng = np.random.default_rng(n)
    for m in (129, 130, 131, 2000, 2001, 2003):
        blocks = row_blocks(m, n)
        assert [b.start for b in blocks[1:]] == [b.stop for b in blocks[:-1]]
        assert blocks[0].start == 0 and blocks[-1].stop == m
        assert all((b.stop - b.start) % 4 == 0 for b in blocks[:-1])
        assert min(b.stop - b.start for b in blocks) > 1  # no one-row block
        A = rng.standard_normal((m, n))
        system = LinearSystem(A, A @ rng.standard_normal(n))
        # V_r^T is r x n with r = min(m, n).  The SVD of a 2000 x 3000 A
        # takes seconds; at n = 3000, m = 129-131 gives V_r^T such rows.
        projector = None if m * n * min(m, n) > 10**9 else system.projector
        for T in (2, 3, 50):
            X = rng.standard_normal((T, n))
            R = system.residual(X)
            assert R.shape == (T, m)
            assert all(np.array_equal(R[t], A @ X[t] - system.b) for t in range(T))
            if projector is not None:
                assert np.array_equal(projector.dist_sq(X), [projector.dist_sq(x) for x in X])


def test_matvec_blocks_are_probed_only_for_a_stack(monkeypatch):
    # At 300 x 500, A and V_r^T each take three row blocks.  A run checks
    # its stop rule on windows of 1, 2, 4, ... iterates: a one-step run's
    # windows (x^0, then x^1) hold one iterate each and probe neither
    # matrix.  The first window of two or more iterates probes each matrix
    # once, and no later run on the system probes it again.
    assert len(row_blocks(300, 500)) == 3
    calls = []
    probe = linalg.matvec_blocks
    monkeypatch.setattr(linalg, "matvec_blocks", lambda M: calls.append(M.shape) or probe(M))
    system = generate_problem(parse_recipe("gaussian:300x500", seed=3))
    spec = UniformSubset(300, 8)
    config = SolverConfig(RBK, spec, uniform_weights(spec), Adaptive(), max_iters=1,
                          diagnostics=True)
    run_solver(config, system)
    assert calls == []
    config = dataclasses.replace(config, max_iters=5)
    run_solver(config, system)
    assert calls == [(300, 500), (300, 500)]
    run_solver(config, system)
    run_monte_carlo(config, system, trials=2)
    assert calls == [(300, 500), (300, 500)]
    run_monte_carlo(config, generate_problem(parse_recipe("gaussian:300x500", seed=4)), trials=2)
    assert calls == [(300, 500)] * 4


def test_system_matrices_start_on_a_cache_line():
    # A C-contiguous A at each 8-byte offset from a cache line: the system
    # keeps A itself where it starts on one, else a copy that does, whose
    # stacked residuals (three row blocks at 300 x 500) and dist^2 have the
    # bits of the caller's A.  V_r^T starts on one too.
    m, n = 300, 500
    rng = np.random.default_rng(9)
    buf = rng.standard_normal(m * n + 8)
    x, X = rng.standard_normal(n), rng.standard_normal((4, n))
    for off in range(8):
        A = buf[off:off + m * n].reshape(m, n)
        system = LinearSystem(A, A @ x)
        assert system.A.ctypes.data % linalg.ALIGN_BYTES == 0
        assert (system.A is A) == (A.ctypes.data % linalg.ALIGN_BYTES == 0)
        assert np.array_equal(system.A, A)
        assert all(np.array_equal(r, A @ y - system.b) for r, y in zip(system.residual(X), X))
        projector = system.projector
        assert projector.vt_r.ctypes.data % linalg.ALIGN_BYTES == 0
        assert np.array_equal(projector.dist_sq(X), [projector.dist_sq(y) for y in X])
    # Another layout is kept as given, and generators' matrices start on a
    # cache line, so their systems keep them without a copy.
    F = np.asfortranarray(buf[:m * n].reshape(m, n))
    assert LinearSystem(F, F @ x).A is F
    for recipe in ("gaussian:300x500", "gaussian:7x3", "rank-deficient:40x20:5", "coherent:30x10:0.5"):
        A = parse_recipe(recipe).matrix(np.random.default_rng(2))
        assert A.ctypes.data % linalg.ALIGN_BYTES == 0


def test_system_with_projector_is_freed_without_gc():
    # The projector holds no reference to its system, so the system's
    # cached projector forms no cycle: reference counting alone frees it.
    system = generate_problem(parse_recipe("gaussian:30x8", seed=6))
    projector = system.projector
    freed = weakref.ref(system)
    gc.disable()
    try:
        del system
        assert freed() is None
    finally:
        gc.enable()
    assert projector.dist_sq(np.zeros(8)) > 0.0


def test_one_svd_serves_a_system(monkeypatch):
    system = generate_problem(parse_recipe("gaussian:30x8", seed=6))
    shapes = {"svd": [], "eigvalsh": []}

    def counted(name):
        real = getattr(np.linalg, name)

        def call(a, *args, **kwargs):
            shapes[name].append(np.shape(a))
            return real(a, *args, **kwargs)
        return call

    monkeypatch.setattr(np.linalg, "svd", counted("svd"))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh"))
    spec = UniformSubset(system.m, 2)
    build_conditioning_report(system, spec, budget=50)
    config = SolverConfig(RBK, spec, uniform_weights(spec), Adaptive(), max_iters=5,
                          residual_tol=0.0, diagnostics=True)
    run_solver(config, system)
    assert shapes["svd"].count(system.shape) == 1
    assert shapes["eigvalsh"] and all(s[-2:] != (system.m, system.m) for s in shapes["eigvalsh"])


@pytest.mark.parametrize("A", [np.ones(3), np.ones((0, 3)), np.ones((3, 0))],
                         ids=["1-d", "no-rows", "no-columns"])
def test_as_matrix_refuses_what_is_not_a_matrix(A):
    with pytest.raises(ValueError, match="2-d matrix"):
        linalg.as_matrix(A)


@pytest.mark.parametrize("scales", [[1.0, 0.0], [2.0, -1.0]], ids=["zero", "negative"])
def test_row_scaling_refuses_non_positive_scales(scales):
    with pytest.raises(ValueError, match="positive"):
        linalg.RowScaling(np.array(scales))
