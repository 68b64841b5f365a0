import dataclasses
import json

import numpy as np
import pytest

from kaczlab.errors import ConfigMismatchError, ZeroRowError
from kaczlab.linalg import LinearSystem
from kaczlab.problems import GaussianNormalized, OrthonormalBlocks, generate_problem
from kaczlab.sampling import (
    Partition,
    UniformSubset,
    enumerate_supports,
    full_batch,
    partition_spec,
)
from kaczlab.solver import (
    BASIC,
    BLOCK_PROJECTION,
    CONVERGED,
    FULL_ITERATES,
    RBK,
    STALLED,
    SolverConfig,
    basic_kaczmarz_step,
    block_projection_step,
    config_from_dict,
    config_to_dict,
    rbk_step,
    run_monte_carlo,
    run_solver,
    split_seed,
)
from kaczlab.stepsize import (
    Adaptive,
    ChebyshevPD,
    ClassicConstant,
    ExtrapolatedConstant,
    row_norm_sq_weights,
    uniform_weights,
)


def normalized_system(m, n, seed):
    return generate_problem(GaussianNormalized(m, n, seed=seed))


class TestBasicStep:
    def test_exact_projection(self):
        out = basic_kaczmarz_step(np.zeros(2), np.array([1.0, 0.0]), 1.0, 1.0)
        np.testing.assert_allclose(out, [1.0, 0.0])

    def test_on_hyperplane_unchanged(self):
        x = np.array([1.0, 7.0])
        out = basic_kaczmarz_step(x, np.array([1.0, 0.0]), 1.0, 1.0)
        np.testing.assert_allclose(out, x)

    def test_reflection(self):
        out = basic_kaczmarz_step(np.zeros(2), np.array([1.0, 0.0]), 1.0, 2.0)
        np.testing.assert_allclose(out, [2.0, 0.0])

    def test_alpha_one_lands_on_hyperplane(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            row = rng.standard_normal(5)
            b_i = rng.standard_normal()
            out = basic_kaczmarz_step(rng.standard_normal(5), row, b_i, 1.0)
            assert abs(row @ out - b_i) <= 1e-12


class TestRbkStep:
    def test_orthonormal_block_full_solve(self):
        system = LinearSystem(np.eye(2), np.array([1.0, 2.0]), normalized=True)
        out = rbk_step(np.zeros(2), system, np.array([0, 1]), np.array([0.5, 0.5]), alpha=2.0)
        np.testing.assert_allclose(out, [1.0, 2.0])

    def test_singleton_is_basic_bitwise(self):
        system = normalized_system(6, 4, seed=1)
        rng = np.random.default_rng(2)
        for i in range(6):
            x = rng.standard_normal(4)
            via_rbk = rbk_step(x, system, np.array([i]), np.array([1.0]), alpha=1.4)
            via_basic = basic_kaczmarz_step(x, system.A[i], system.b[i], 1.4)
            assert np.array_equal(via_rbk, via_basic)

    def test_row_norm_weights_compact_update(self):
        # With omega_i = ||a_i||^2 / sum ||a_j||^2 the update collapses to
        # x - (alpha / sum_J ||a_j||^2) A_J^T (A_J x - b_J).
        rng = np.random.default_rng(3)
        A = rng.standard_normal((7, 4)) * rng.uniform(0.5, 2.0, size=(7, 1))
        system = LinearSystem(A, A @ np.ones(4))
        J = np.array([1, 3, 6])
        x = rng.standard_normal(4)
        spec = UniformSubset(7, 3)
        w = row_norm_sq_weights(spec, system).realized(system, J)
        out = rbk_step(x, system, J, w, alpha=1.7)
        total = system.row_norms_sq[J].sum()
        compact = x - (1.7 / total) * system.A[J].T @ (system.A[J] @ x - system.b[J])
        np.testing.assert_allclose(out, compact, atol=1e-12)

    def test_reduction_order_independent_of_input_order(self):
        system = normalized_system(6, 4, seed=5)
        x = np.random.default_rng(6).standard_normal(4)
        w = np.array([0.2, 0.3, 0.5])
        a = rbk_step(x, system, np.array([0, 2, 4]), w, alpha=1.0)
        b = rbk_step(x, system, np.array([4, 0, 2]), np.array([0.5, 0.2, 0.3]), alpha=1.0)
        assert np.array_equal(a, b)


class TestBlockProjectionStep:
    def test_identity_block_solves(self):
        system = LinearSystem(np.eye(2), np.array([1.0, 2.0]))
        out = block_projection_step(np.zeros(2), system, np.array([0, 1]), alpha=1.0)
        np.testing.assert_allclose(out, [1.0, 2.0], atol=1e-12)

    def test_fixed_point(self):
        system = normalized_system(5, 3, seed=7)
        x = system.planted_solution
        out = block_projection_step(x, system, np.array([1, 2]), alpha=1.0)
        np.testing.assert_allclose(out, x, atol=1e-10)

    def test_singleton_matches_basic(self):
        system = normalized_system(5, 3, seed=8)
        x = np.random.default_rng(9).standard_normal(3)
        out = block_projection_step(x, system, np.array([2]), alpha=1.0)
        ref = basic_kaczmarz_step(x, system.A[2], system.b[2], 1.0)
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_full_row_rank_block_satisfied(self):
        system = normalized_system(6, 5, seed=10)
        J = np.array([0, 3])
        out = block_projection_step(np.zeros(5), system, J, alpha=1.0)
        assert np.linalg.norm(system.A[J] @ out - system.b[J]) <= 1e-8


class TestRunSolver:
    def test_chebyshev_one_step_on_orthogonal_system(self):
        # Flat spectrum: the single scheduled stepsize solves the system.
        rng = np.random.default_rng(11)
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        system = LinearSystem(Q, Q @ np.ones(4), planted_solution=np.ones(4), normalized=True)
        spec = full_batch(4)
        config = SolverConfig(
            method=RBK,
            sampling=spec,
            weights=uniform_weights(spec),
            stepsize=ChebyshevPD(horizon=1, lambda_min=1.0, lambda_max=1.0, m=4),
            max_iters=1,
        )
        trace = run_solver(config, system)
        assert trace.status == CONVERGED
        assert trace.events[-1].k == 1
        np.testing.assert_allclose(trace.final_x, np.ones(4), atol=1e-10)

    def test_start_on_solution_converges_at_zero(self):
        system = normalized_system(5, 3, seed=12)
        spec = UniformSubset(5, 2)
        config = SolverConfig(RBK, spec, uniform_weights(spec), ClassicConstant(1.0), max_iters=10)
        trace = run_solver(config, system, x0=system.planted_solution)
        assert trace.status == CONVERGED
        assert len(trace.events) == 1 and trace.events[0].k == 0

    def test_fixed_seed_bit_identical(self):
        system = normalized_system(8, 5, seed=13)
        spec = UniformSubset(8, 3)
        config = SolverConfig(
            RBK, spec, uniform_weights(spec), ClassicConstant(1.0),
            max_iters=40, seed=99, trace_level=FULL_ITERATES, diagnostics=True,
        )
        t1 = run_solver(config, system)
        t2 = run_solver(config, system)
        assert t1.status == t2.status
        assert np.array_equal(t1.final_x, t2.final_x)
        for e1, e2 in zip(t1.events, t2.events):
            assert e1.residual_norm == e2.residual_norm
            assert e1.dist_sq == e2.dist_sq
            assert np.array_equal(e1.iterate, e2.iterate)

    def test_rbk_tau1_equals_basic_bitwise(self):
        system = normalized_system(7, 4, seed=14)
        spec = UniformSubset(7, 1)
        shared = dict(max_iters=60, seed=5, trace_level=FULL_ITERATES)
        t_basic = run_solver(
            SolverConfig(BASIC, spec, uniform_weights(spec), ClassicConstant(1.0), **shared),
            system,
        )
        t_rbk = run_solver(
            SolverConfig(RBK, spec, uniform_weights(spec), ClassicConstant(1.0), **shared),
            system,
        )
        assert np.array_equal(t_basic.final_x, t_rbk.final_x)
        for e1, e2 in zip(t_basic.events, t_rbk.events):
            assert e1.residual_norm == e2.residual_norm

    def test_basic_requires_singleton_sampling(self):
        system = normalized_system(6, 3, seed=15)
        spec = UniformSubset(6, 2)
        config = SolverConfig(BASIC, spec, uniform_weights(spec), ClassicConstant(1.0), max_iters=5)
        with pytest.raises(ConfigMismatchError):
            run_solver(config, system)

    def test_sampling_size_must_match_system(self):
        system = normalized_system(6, 3, seed=15)
        spec = UniformSubset(9, 2)
        config = SolverConfig(RBK, spec, uniform_weights(spec), ClassicConstant(1.0), max_iters=5)
        with pytest.raises(ConfigMismatchError):
            run_solver(config, system)

    def test_chebyshev_horizon_must_match_max_iters(self):
        system = normalized_system(4, 4, seed=16)
        spec = full_batch(4)
        config = SolverConfig(
            RBK, spec, uniform_weights(spec),
            ChebyshevPD(horizon=5, lambda_min=0.1, lambda_max=2.0, m=4),
            max_iters=9,
        )
        with pytest.raises(ConfigMismatchError):
            run_solver(config, system)

    def test_adaptive_stalls_on_satisfied_block(self):
        # The only block ever drawn is already solved at x0, so every step
        # skips; after 100 consecutive skips the run is declared stalled.
        system = LinearSystem(np.eye(2), np.array([0.0, 1.0]))
        spec = Partition(((0,), (1,)), np.array([1.0, 0.0]))
        config = SolverConfig(
            BASIC, spec, uniform_weights(spec), Adaptive(1.0), max_iters=500, seed=1
        )
        trace = run_solver(config, system)
        assert trace.status == STALLED
        assert trace.events[-1].k == 100
        assert all(e.skipped for e in trace.events[1:])

    def test_monotone_distance_basic(self):
        # ||x^k - x*|| never increases for alpha in (0, 2).
        system = normalized_system(10, 6, seed=17)
        spec = UniformSubset(10, 1)
        x_star = system.planted_solution
        for alpha in (0.5, 1.0, 1.7):
            config = SolverConfig(
                BASIC, spec, uniform_weights(spec), ClassicConstant(alpha),
                max_iters=80, seed=3, trace_level=FULL_ITERATES,
            )
            trace = run_solver(config, system)
            dists = [np.linalg.norm(e.iterate - x_star) for e in trace.events]
            assert all(d1 <= d0 + 1e-12 for d0, d1 in zip(dists, dists[1:]))

    def test_iterates_confined_to_row_space_shift(self):
        system = generate_problem(GaussianNormalized(5, 8, seed=18))
        _, _, Vt = np.linalg.svd(system.A)
        null_basis = Vt[np.linalg.matrix_rank(system.A):]
        x0 = np.random.default_rng(19).standard_normal(8)
        spec = UniformSubset(5, 2)
        for method in (RBK, BLOCK_PROJECTION):
            config = SolverConfig(
                method, spec, uniform_weights(spec), ClassicConstant(1.0),
                max_iters=50, seed=7, trace_level=FULL_ITERATES,
            )
            trace = run_solver(config, system, x0=x0)
            for e in trace.events:
                assert np.linalg.norm(null_basis @ (e.iterate - x0)) <= 1e-8

    def test_converged_means_tolerance_hit(self):
        system = normalized_system(6, 4, seed=20)
        spec = full_batch(6)
        config = SolverConfig(
            BLOCK_PROJECTION, spec, uniform_weights(spec), ClassicConstant(1.0),
            max_iters=5, residual_tol=1e-10,
        )
        trace = run_solver(config, system)
        assert trace.status == CONVERGED
        assert trace.events[-1].residual_norm <= 1e-10
        assert np.all(np.isfinite(trace.residual_norms()))


class TestTraceExports:
    def _small_trace(self, tmp_path=None):
        system = normalized_system(5, 3, seed=21)
        spec = UniformSubset(5, 2)
        config = SolverConfig(
            RBK, spec, uniform_weights(spec), ClassicConstant(1.0),
            max_iters=8, seed=2, diagnostics=True, residual_tol=0.0,
        )
        return run_solver(config, system), system

    def test_csv_deterministic_and_well_formed(self, tmp_path):
        trace, _ = self._small_trace()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        trace.to_csv(p1)
        trace.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().strip().splitlines()
        assert lines[0] == "k,block_size,alpha,residual_norm,dist_sq"
        assert len(lines) == len(trace.events) + 1
        assert lines[1].split(",")[2] == ""  # no alpha on the k = 0 row

    def test_json_roundtrip_config(self, tmp_path):
        trace, system = self._small_trace()
        path = tmp_path / "trace.json"
        trace.to_json(path)
        doc = json.loads(path.read_text())
        back = config_from_dict(doc["config"], system)
        assert back == trace.config
        assert doc["status"] == trace.status
        np.testing.assert_allclose(doc["final_x"], trace.final_x)

    def test_config_dict_roundtrip_variants(self):
        system = normalized_system(6, 4, seed=22)
        specs = [UniformSubset(6, 2), partition_spec([(0, 1, 2), (3, 4, 5)])]
        policies = [
            ClassicConstant(0.8),
            ExtrapolatedConstant(lambda_max_block=1.5, delta=0.7),
            Adaptive(0.9),
            ChebyshevPD(horizon=4, lambda_min=0.2, lambda_max=2.0, m=6, kappa=(2, 0, 3, 1)),
        ]
        for spec in specs:
            for pol in policies:
                config = SolverConfig(
                    RBK, spec, uniform_weights(spec), pol, max_iters=4, seed=11
                )
                assert config_from_dict(config_to_dict(config), system) == config


class TestMonteCarlo:
    def test_split_seed_deterministic_and_distinct(self):
        assert split_seed(5, 0) == split_seed(5, 0)
        seeds = {split_seed(5, t) for t in range(100)}
        assert len(seeds) == 100

    def test_deterministic_config_zero_variance(self):
        system = normalized_system(5, 5, seed=23)
        spec = full_batch(5)
        config = SolverConfig(
            RBK, spec, uniform_weights(spec), ClassicConstant(1.0),
            max_iters=6, residual_tol=0.0, diagnostics=True, trace_level=FULL_ITERATES,
        )
        mc = run_monte_carlo(config, system, trials=4)
        single = run_solver(config, system)
        np.testing.assert_allclose(mc.stderr_dist_sq, 0.0, atol=1e-18)
        np.testing.assert_allclose(mc.mean_dist_sq, single.dist_sq_series(), rtol=1e-12)
        np.testing.assert_allclose(mc.mean_iterate[-1], single.final_x, atol=1e-14)

    def test_exact_one_step_expectation(self):
        # E[x^1] from exhaustive support enumeration equals the closed-form
        # recursion x* + (I - (alpha/m) A^T A)(x0 - x*) on normalized A.
        system = normalized_system(5, 3, seed=24)
        x0 = np.random.default_rng(25).standard_normal(3)
        x_star = system.planted_solution
        alpha = 1.3
        for spec in (UniformSubset(5, 2), UniformSubset(5, 1)):
            scheme = uniform_weights(spec)
            expected = np.zeros(3)
            for J, p in enumerate_supports(spec):
                expected += p * rbk_step(x0, system, J, scheme.realized(system, J), alpha)
            closed = x_star + (x0 - x_star) - (alpha / system.m) * (
                system.A.T @ (system.A @ (x0 - x_star))
            )
            np.testing.assert_allclose(expected, closed, atol=1e-12)

    def test_stderr_shrinks_with_trials(self):
        system = normalized_system(6, 4, seed=26)
        spec = UniformSubset(6, 1)
        config = SolverConfig(
            BASIC, spec, uniform_weights(spec), ClassicConstant(1.0),
            max_iters=10, residual_tol=0.0, diagnostics=True, seed=0,
        )
        small = run_monte_carlo(config, system, trials=200)
        big = run_monte_carlo(dataclasses.replace(config, seed=1), system, trials=800)
        ratio = (big.stderr_dist_sq[5] / small.stderr_dist_sq[5]) ** 2
        assert 0.1 < ratio < 0.6  # 4x trials -> about 1/4 the squared stderr

    def test_padding_on_early_convergence(self):
        system = normalized_system(4, 4, seed=27)
        spec = full_batch(4)
        config = SolverConfig(
            BLOCK_PROJECTION, spec, uniform_weights(spec), ClassicConstant(1.0),
            max_iters=9, diagnostics=True,
        )
        mc = run_monte_carlo(config, system, trials=2)
        assert mc.mean_dist_sq.shape == (10,)
        assert mc.mean_dist_sq[-1] <= 1e-16
        assert np.all(mc.hit_iteration >= 0)

    def test_trials_validated(self):
        system = normalized_system(4, 3, seed=28)
        spec = UniformSubset(4, 1)
        config = SolverConfig(BASIC, spec, uniform_weights(spec), ClassicConstant(1.0), max_iters=3)
        with pytest.raises(ValueError):
            run_monte_carlo(config, system, trials=1)


def test_orthonormal_blocks_aligned_partition_one_step_per_block():
    # alpha = tau on an orthonormal block projects exactly onto that block.
    system = generate_problem(OrthonormalBlocks(8, 8, block_size=4, seed=29))
    J = np.arange(4)
    x = np.random.default_rng(30).standard_normal(8)
    out = rbk_step(x, system, J, np.full(4, 0.25), alpha=4.0)
    assert np.linalg.norm(system.A[J] @ out - system.b[J]) <= 1e-10


@pytest.mark.parametrize("method,policy", [
    (BASIC, ClassicConstant(1.0)),
    (RBK, ClassicConstant(1.0)),
    (RBK, Adaptive(1.0)),
], ids=["basic-classic", "rbk-classic", "rbk-adaptive"])
def test_zero_row_draw_raises(method, policy):
    # Row 2 is zero and b_2 = 0, so the system stays consistent; every
    # kernel must refuse the row instead of dividing by its zero norm.
    A = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    x_star = np.array([1.0, -1.0, 2.0])
    system = LinearSystem(A, A @ x_star, planted_solution=x_star)
    spec = UniformSubset(4, 1 if method == BASIC else 2)
    config = SolverConfig(method, spec, uniform_weights(spec), policy, max_iters=50, seed=4)
    with pytest.raises(ZeroRowError):
        run_solver(config, system)


@pytest.mark.parametrize("x0", [np.full(3, np.nan), np.array([0.0, np.inf, 0.0]), np.zeros(2)],
                         ids=["nan", "inf", "short"])
def test_bad_x0_is_rejected(x0):
    system = normalized_system(5, 3, seed=30)
    spec = UniformSubset(5, 1)
    config = SolverConfig(BASIC, spec, uniform_weights(spec), ClassicConstant(1.0), max_iters=5)
    with pytest.raises(ValueError):
        run_solver(config, system, x0=x0)
