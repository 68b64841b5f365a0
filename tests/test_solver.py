import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaczlab.errors import ConfigMismatchError, ZeroRowError
from kaczlab.linalg import LinearSystem
from kaczlab.problems import GaussianNormalized, OrthonormalBlocks, generate_problem
from kaczlab.sampling import (
    DRAW_AHEAD,
    Partition,
    UniformSubset,
    WordSource,
    build_random_paving,
    enumerate_supports,
    frobenius_partition,
    full_batch,
    partition_spec,
    sample_block,
    trial_seeds,
)
from kaczlab.engine import Trials
from kaczlab.kernels import adaptive_step, averaged_step, block_pinvs, block_sum
from kaczlab.solver import (
    BASIC,
    BLOCK_PROJECTION,
    CONVERGED,
    DIVERGED,
    FULL_ITERATES,
    MAX_ITERS,
    RBK,
    STALL_LIMIT,
    STALLED,
    SolverConfig,
    basic_kaczmarz_step,
    block_projection_step,
    config_from_dict,
    config_to_dict,
    pad_to,
    rbk_step,
    run_monte_carlo,
    run_solver,
    split_seed,
    split_seeds,
)
from kaczlab.stepsize import (
    Adaptive,
    ChebyshevPD,
    ChebyshevSingular,
    ClassicConstant,
    ExtrapolatedConstant,
    adaptive_alpha,
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

    def test_zero_row_is_refused(self):
        with pytest.raises(ZeroRowError, match="^row 0 has zero norm$"):
            basic_kaczmarz_step(np.zeros(2), np.zeros(2), 0.0, 1.0)


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


def test_step_entry_points_leave_their_inputs_unchanged():
    # The stacked kernels write their terms into the gathered rows; the
    # one-block entry points must gather or copy, never write into A.
    system = normalized_system(6, 4, seed=31)
    A = system.A.copy()
    x = np.random.default_rng(32).standard_normal(4)
    basic_kaczmarz_step(x, system.A[2], system.b[2], 1.0)
    rbk_step(x, system, np.array([3, 1]), np.array([0.5, 0.5]), 1.3)
    adaptive_alpha(system.A[:2], np.array([0.4, -0.2]), np.array([0.5, 0.5]))
    assert np.array_equal(system.A, A)


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


    def test_partition_factors_match_block_projection_step(self):
        # Blocks: rows 0-3 with row 1 a copy of row 0 (rank deficient),
        # rows 4-7 with row 5 zero, and the ragged three rows 8-10.
        rng = np.random.default_rng(33)
        A = rng.standard_normal((11, 6))
        A[1], A[5] = A[0], 0.0
        x_star = rng.standard_normal(6)
        system = LinearSystem(A, A @ x_star, planted_solution=x_star)
        blocks = [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10)]
        x0 = rng.standard_normal(6)
        for l, blk in enumerate(blocks):
            # The partition draws block l at every step.
            spec = Partition(tuple(blocks), np.eye(3)[l])
            config = SolverConfig(BLOCK_PROJECTION, spec, uniform_weights(spec),
                                  ClassicConstant(0.9), max_iters=1, residual_tol=0.0)
            out = run_solver(config, system, x0=x0).final_x
            ref = block_projection_step(x0, system, np.array(blk), alpha=0.9)
            # factored_projection_step with the stacked factor: the same bits.
            assert np.array_equal(out, ref), blk
        # The factors are built once per system and partition, and hold
        # as many floats as A.
        spec = partition_spec(blocks)
        config = SolverConfig(BLOCK_PROJECTION, spec, uniform_weights(spec), ClassicConstant(1.0),
                              max_iters=5, residual_tol=0.0)
        run_solver(config, system)
        pinvs = block_pinvs(system, spec)
        run_monte_carlo(dataclasses.replace(config, sampling=partition_spec(blocks)), system, 3)
        assert block_pinvs(system, partition_spec(blocks)) is pinvs
        assert sum(key[0] == "block_pinvs" for key in system.cache) == 1
        assert sum(stack.size for stack in pinvs.stacks.values()) == system.m * system.n
        # A run over another partition replaces them: the cache keeps one
        # partition's factors, m * n floats in all.
        other = partition_spec([(0, 2, 4, 6, 8, 10), (1, 3, 5, 7, 9)])
        run_solver(dataclasses.replace(config, sampling=other, weights=uniform_weights(other)),
                   system)
        cached = [value for key, value in system.cache.items() if key[0] == "block_pinvs"]
        assert sum(stack.size for factors in cached
                   for stack in factors.stacks.values()) == system.m * system.n

    def test_factors_cover_only_drawable_blocks(self):
        # A partition that draws block l at every step factors that block
        # alone: |J_l| * n floats, not m * n.
        system = generate_problem(GaussianNormalized(11, 6, seed=2))
        blocks = ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10))
        for l, blk in enumerate(blocks):
            pinvs = block_pinvs(system, Partition(blocks, np.eye(3)[l]))
            assert sum(stack.size for stack in pinvs.stacks.values()) == len(blk) * system.n

    @staticmethod
    def _svd_shapes(monkeypatch) -> list:
        shapes, real = [], np.linalg.svd

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "svd", counted)
        return shapes

    def test_full_block_projection_factors_a_once(self, monkeypatch):
        # The one block of ``full`` is A: its factor comes from the system's
        # SVD, which the diagnostics' projector shares.
        system = generate_problem(GaussianNormalized(60, 20, seed=4))
        shapes = self._svd_shapes(monkeypatch)
        spec = full_batch(system.m)
        config = SolverConfig(BLOCK_PROJECTION, spec, uniform_weights(spec), ClassicConstant(1.0),
                              max_iters=3, residual_tol=0.0, diagnostics=True)
        run_solver(config, system)
        assert shapes == [(60, 20)]

    def test_factors_are_shared_by_laws_over_the_same_blocks(self, monkeypatch):
        # Uniform and Frobenius probabilities draw the same ten blocks, so
        # the three runs factor them once.
        system = generate_problem(GaussianNormalized(60, 20, seed=4))
        blocks = [range(6 * l, 6 * l + 6) for l in range(10)]
        shapes = self._svd_shapes(monkeypatch)
        for spec in (partition_spec(blocks), frobenius_partition(system, blocks),
                     partition_spec(blocks)):
            config = SolverConfig(BLOCK_PROJECTION, spec, uniform_weights(spec),
                                  ClassicConstant(1.0), max_iters=3, residual_tol=0.0)
            run_solver(config, system)
        assert shapes == [(10, 6, 20)]


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

    def test_block_projection_refuses_the_adaptive_stepsize(self):
        system = normalized_system(6, 3, seed=15)
        spec = UniformSubset(6, 2)
        config = SolverConfig(BLOCK_PROJECTION, spec, uniform_weights(spec), Adaptive(1.0),
                              max_iters=5)
        with pytest.raises(ConfigMismatchError, match="averaged update only"):
            run_solver(config, system)

    @pytest.mark.parametrize("field,value,message", [
        ("method", "kaczmarz", "unknown method 'kaczmarz'"),
        ("trace_level", "all", "unknown trace level 'all'"),
        ("max_iters", 0, "max_iters must be at least 1"),
    ])
    def test_config_refuses_unknown_names_and_no_iterations(self, field, value, message):
        spec = UniformSubset(4, 1)
        fields = dict(method=BASIC, sampling=spec, weights=uniform_weights(spec),
                      stepsize=ClassicConstant(1.0), max_iters=5)
        with pytest.raises(ConfigMismatchError, match=f"^{message}$"):
            SolverConfig(**fields | {field: value})

    def test_residual_tol_must_be_a_nonnegative_number(self):
        spec = UniformSubset(4, 1)
        args = (BASIC, spec, uniform_weights(spec), ClassicConstant(1.0))
        for tol in (-1e-3, np.nan):
            with pytest.raises(ConfigMismatchError):
                SolverConfig(*args, max_iters=5, residual_tol=tol)
        assert SolverConfig(*args, max_iters=5, residual_tol=np.inf).residual_tol == np.inf

    def test_basic_method_runs_on_partition_drawing_one_row_blocks(self):
        # The two-row block has probability 0: every drawn block has one row.
        rng = np.random.default_rng(4)
        A = rng.standard_normal((3, 2))
        system = LinearSystem(A, A @ np.ones(2))
        spec = Partition(((0,), (1, 2)), [1.0, 0.0])
        config = SolverConfig(BASIC, spec, uniform_weights(spec), ClassicConstant(1.0),
                              max_iters=3, residual_tol=0.0)
        trace = run_solver(config, system)
        assert trace.iterations == 3
        assert [e.block.tolist() for e in trace.events[1:]] == [[0]] * 3

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
        assert np.all(np.isfinite(trace.residual))


def test_non_finite_residual_ends_a_trial_diverged():
    # Basic Kaczmarz with a Chebyshev schedule built for [0.5, 0.6]
    # lambda_max: the squared residual of the run at seed 1 overflows at
    # k = 348.
    system = normalized_system(50, 20, seed=1)
    lambda_max = np.linalg.eigvalsh(system.A @ system.A.T)[-1]
    spec = UniformSubset(50, 1)
    policy = ChebyshevPD(horizon=2000, lambda_min=0.5 * lambda_max,
                         lambda_max=0.6 * lambda_max, m=50)
    config = SolverConfig(BASIC, spec, uniform_weights(spec), policy, max_iters=2000, seed=1)
    # The status reports the divergence: no RuntimeWarning is raised.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        trace = run_solver(config, system)
        assert (trace.status, trace.iterations) == (DIVERGED, 348)
        assert np.isinf(trace.residual[-1]) and np.isfinite(trace.residual[:-1]).all()
        # In a stack, each diverged trial leaves as it would stop on its own.
        seeds = [1, 2, 3, 4]
        run = Trials(config, system, seeds)
        serial = [run_solver(dataclasses.replace(config, seed=seed), system) for seed in seeds]
        assert run.status == [DIVERGED] * 4 and len(set(run.iterations)) == 4
        assert run.iterations == [trace.iterations for trace in serial]
        assert all(x.tobytes() == trace.final_x.tobytes() for x, trace in zip(run.final_x, serial))
        mc = run_monte_carlo(config, system, trials=3)
        assert mc.hit_iteration.tolist() == [-1, -1, -1]


def test_column_is_the_padded_swapped_series():
    # Trials that stop at different k: each column, stacked in one copy,
    # has the bits of each trial's own run_solver series, padded to width.
    system = normalized_system(30, 8, seed=4)
    spec = UniformSubset(30, 3)
    config = SolverConfig(RBK, spec, uniform_weights(spec), Adaptive(1.0), max_iters=400,
                          residual_tol=1e-4, seed=2, diagnostics=True, trace_level=FULL_ITERATES)
    run = Trials(config, system, trial_seeds(config.seed, 6))
    assert len(set(run.iterations)) > 1 and max(run.iterations) < config.max_iters
    assert set(run.columns) == {"residual", "dist_sq", "alpha", "iterates"}
    width = config.max_iters + 1
    traces = [run_solver(dataclasses.replace(config, seed=int(seed)), system)
              for seed in split_seeds(config.seed, 6)]
    for name, attr in (("residual", "residual"), ("dist_sq", "dist_sq"), ("alpha", "alpha"),
                       ("iterates", "iterates")):
        column = run.column(name, width)
        expected = np.stack([pad_to(getattr(trace, attr), width) for trace in traces])
        assert column.flags.c_contiguous and column.shape == expected.shape
        assert column.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [1, 2, 20, 500])
@pytest.mark.parametrize("tau", [2, 3, 8, 64, 65])
def test_block_sum_adds_in_row_order(tau, n):
    # block_sum must give the bits of s = 0.0; s += term for every shape
    # the kernels hand it, whichever numpy reduction it uses.  Terms span
    # many magnitudes, so another order of addition shows in the bits.
    rng = np.random.default_rng(100 * tau + n)
    A = rng.standard_normal((70, n)) * 10.0 ** rng.integers(-8, 9, size=(70, 1))
    if n > 1:
        A[:, 0] = -0.0  # positive coefficients: -0.0 terms, which sum to +0.0
    for stack in ((), (3,)):
        rows = [np.sort(rng.choice(70, size=tau, replace=False)) for _ in range(3 if stack else 1)]
        J = np.stack(rows).reshape(stack + (tau,))
        coef = rng.exponential(size=stack + (tau,)) * 10.0 ** rng.integers(-8, 9, size=stack + (tau,))
        row_sum, coef_sum = 0.0, 0.0
        for j in range(tau):
            row_sum = row_sum + coef[..., j, None] * A[J[..., j]]
            coef_sum = coef_sum + coef[..., j]
        # The averaged step's product, written into the taken rows.
        AJ = A.take(J, axis=0)
        got = block_sum(np.multiply(coef[..., None], AJ, out=AJ), axis=-2)
        assert got.tobytes() == row_sum.tobytes(), stack
        # The adaptive numerator sums over the innermost axis.
        assert block_sum(coef.copy(), axis=-1).tobytes() == np.asarray(coef_sum).tobytes(), stack


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


# Seeds of one to four uint32 words: with the trial index, entropy of two
# to five words, the last past SeedSequence's pool of four.
_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**96 + 1]


class TestMonteCarlo:
    def test_split_seed_deterministic_and_distinct(self):
        assert split_seed(5, 0) == split_seed(5, 0)
        seeds = {split_seed(5, t) for t in range(100)}
        assert len(seeds) == 100

    def test_split_seeds_match_split_seed(self):
        # 102,000 (seed, t) pairs against the scalar rule.
        trials = 17_000
        for seed in _SEEDS:
            expected = [split_seed(seed, t) for t in range(trials)]
            assert split_seeds(seed, trials).tolist() == expected, seed

    def test_trial_generators_have_the_split_seed_states(self):
        # The bit generators a Monte-Carlo run's stream builds on its trial
        # seeds: their states, and the raw words they then draw.
        for seed in _SEEDS:
            words = WordSource(trial_seeds(seed, 200))
            expected = [np.random.default_rng(split_seed(seed, t)).bit_generator for t in range(200)]
            for t, bits in enumerate(expected):
                assert words.bits[t].state == bits.state, (seed, t)
            assert np.array_equal(words.words(3), [bits.random_raw(3) for bits in expected])

    def test_negative_seed_is_refused_as_split_seed_refuses_it(self):
        for split in (split_seed, split_seeds, trial_seeds):
            with pytest.raises(ValueError, match="expected non-negative integer"):
                split(-1, 3)

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
        np.testing.assert_allclose(mc.mean_dist_sq, single.dist_sq, rtol=1e-12)
        np.testing.assert_allclose(mc.mean_iterate[-1], single.final_x, atol=1e-14)

    def test_identical_trials_have_zero_stderr(self):
        # Full-batch block projection draws the same block in every trial,
        # so the trials are bit-identical and their spread is exactly 0.
        system = normalized_system(50, 20, seed=1)
        spec = full_batch(50)
        config = SolverConfig(
            BLOCK_PROJECTION, spec, uniform_weights(spec), ClassicConstant(0.5),
            max_iters=20, residual_tol=0.0, diagnostics=True, trace_level=FULL_ITERATES,
        )
        mc = run_monte_carlo(config, system, trials=3)
        assert np.all(mc.stderr_dist_sq == 0.0) and np.all(mc.stderr_iterate == 0.0)

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


def zero_row_system() -> LinearSystem:
    """A consistent 4x3 system whose row 2 is zero (b_2 = 0)."""
    A = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    x_star = np.array([1.0, -1.0, 2.0])
    return LinearSystem(A, A @ x_star, planted_solution=x_star)


@pytest.mark.parametrize("method,policy,spec", [
    (BASIC, ClassicConstant(1.0), UniformSubset(4, 1)),
    (RBK, ClassicConstant(1.0), UniformSubset(4, 2)),
    (RBK, Adaptive(1.0), UniformSubset(4, 2)),
    # Block (2, 3) has probability 0, so no run ever draws row 2.
    (RBK, ClassicConstant(1.0), partition_spec([(0, 1), (2, 3)], [1.0, 0.0])),
], ids=["basic-classic", "rbk-classic", "rbk-adaptive", "rbk-never-drawn"])
def test_zero_row_draw_raises(method, policy, spec):
    # Row 2 is zero and b_2 = 0, so the system stays consistent; every run
    # of the averaged methods refuses it, before its first step.
    system = zero_row_system()
    config = SolverConfig(method, spec, uniform_weights(spec), policy, max_iters=50, seed=4)
    with pytest.raises(ZeroRowError) as single:
        run_solver(config, system)
    with pytest.raises(ZeroRowError) as batched:
        run_monte_carlo(config, system, trials=3)
    # The error names the row of A, not its position in the block.
    assert single.value.row == batched.value.row == 2


def test_zero_row_block_with_row_norm_weights_raises():
    # Rows 1 and 2 are zero, so block (1, 2), drawn first at seed 1, has no
    # row-norm weights (0/0): the weights refuse the system, and so does a
    # run, without a RuntimeWarning.
    A = np.array([[1.0, 0.0, 0.5], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    x_star = np.array([1.0, -1.0, 2.0])
    system = LinearSystem(A, A @ x_star, planted_solution=x_star)
    spec = UniformSubset(4, 2)
    with pytest.raises(ZeroRowError) as weights:
        row_norm_sq_weights(spec, system)
    assert weights.value.row == 1
    config = SolverConfig(RBK, spec, uniform_weights(spec), ClassicConstant(1.0),
                          max_iters=50, seed=1)
    with pytest.raises(ZeroRowError) as single:
        run_solver(config, system)
    assert single.value.row == 1
    with pytest.raises(ZeroRowError):
        run_monte_carlo(config, system, trials=3)
    # An adaptive run refuses the system as well, whatever it would draw.
    with pytest.raises(ZeroRowError) as adaptive:
        run_solver(dataclasses.replace(config, stepsize=Adaptive(1.0), max_iters=1), system)
    assert adaptive.value.row == 1


def test_block_projection_accepts_zero_rows():
    # The pseudoinverse of a block handles a zero row: no zero-row rule.
    system = zero_row_system()
    spec = full_batch(4)
    config = SolverConfig(BLOCK_PROJECTION, spec, uniform_weights(spec), ClassicConstant(1.0),
                          max_iters=5)
    trace = run_solver(config, system)
    assert trace.status == CONVERGED and trace.iterations == 1
    np.testing.assert_allclose(trace.final_x, system.planted_solution, atol=1e-12)


@pytest.mark.parametrize("J", [[2], [3, 2], [0, 2, 3]])
def test_rbk_step_refuses_a_zero_row_in_its_block(J):
    system = zero_row_system()
    weights = np.full(len(J), 1.0 / len(J))
    with pytest.raises(ZeroRowError) as err:
        rbk_step(np.zeros(3), system, np.array(J), weights, alpha=1.0)
    assert err.value.row == 2


@pytest.mark.parametrize("x0", [np.full(3, np.nan), np.array([0.0, np.inf, 0.0]), np.zeros(2)],
                         ids=["nan", "inf", "short"])
def test_bad_x0_is_rejected(x0):
    system = normalized_system(5, 3, seed=30)
    spec = UniformSubset(5, 1)
    config = SolverConfig(BASIC, spec, uniform_weights(spec), ClassicConstant(1.0), max_iters=5)
    with pytest.raises(ValueError):
        run_solver(config, system, x0=x0)


# ---------------------------------------------------------------------------
# Trials run in lockstep replay serial runs bit for bit
# ---------------------------------------------------------------------------

def _spread_rows(m, n, seed):
    """Consistent system with row norms spread over [0.5, 2]."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    A *= rng.uniform(0.5, 2.0, size=m)[:, None] / np.linalg.norm(A, axis=1)[:, None]
    x = rng.standard_normal(n)
    return LinearSystem(A, A @ x, planted_solution=x)


_TALL = _spread_rows(30, 12, seed=40)  # A A^T singular
_WIDE = _spread_rows(8, 16, seed=41)  # A A^T positive definite
_HORIZON = 25
_SPECS = {
    "uniform1": UniformSubset(30, 1),
    "uniform3": UniformSubset(30, 3),
    "partition": partition_spec([range(i, i + 5) for i in range(0, 30, 5)]),
    "ragged": build_random_paving(3, 30, 7).to_spec(),  # blocks of 5 and 4 rows
    # Every drawable block has 4 rows; the wider one is never drawn.
    "one-drawn-size": partition_spec([range(i, i + 4) for i in range(0, 24, 4)] + [range(24, 30)],
                                     [1 / 6] * 6 + [0.0]),
}


def _policy(kind):
    if kind == "classic":
        return ClassicConstant(1.2)
    if kind == "constant-extrapolated":
        return ExtrapolatedConstant(2.5, delta=0.5)
    if kind == "adaptive":
        return Adaptive(0.8)
    gram = np.linalg.eigvalsh(_WIDE.A @ _WIDE.A.T)
    if kind == "chebyshev-pd":
        return ChebyshevPD(_HORIZON, gram[0], gram[-1], _WIDE.m)
    gram = np.linalg.eigvalsh(_TALL.A @ _TALL.A.T)
    return ChebyshevSingular(_HORIZON, gram[-1], _TALL.m)


def _case(method, spec_name, kind, weights="uniform", tol=0.0, max_iters=_HORIZON):
    system = _WIDE if kind == "chebyshev-pd" else _TALL
    spec = _SPECS[spec_name]
    if system is _WIDE:
        spec = UniformSubset(8, 1) if spec_name == "uniform1" else partition_spec([range(4), range(4, 8)])
    scheme = row_norm_sq_weights(spec, system) if weights == "rownormsq" else uniform_weights(spec)
    config = SolverConfig(method, spec, scheme, _policy(kind), max_iters=max_iters, residual_tol=tol,
                          seed=7, trace_level=FULL_ITERATES, diagnostics=True)
    return config, system


_KINDS = ["classic", "constant-extrapolated", "adaptive", "chebyshev-pd", "chebyshev-singular"]
_LOCKSTEP_CASES = {
    **{f"basic-{kind}": (BASIC, "uniform1", kind) for kind in _KINDS},
    **{f"rbk-{kind}": (RBK, "uniform3", kind, "rownormsq") for kind in _KINDS},
    **{f"blockproj-{kind}": (BLOCK_PROJECTION, "partition", kind)
       for kind in _KINDS if kind != "adaptive"},
    "rbk-tau1": (RBK, "uniform1", "classic"),
    "rbk-tau1-rownormsq": (RBK, "uniform1", "classic", "rownormsq"),
    "rbk-partition": (RBK, "partition", "constant-extrapolated", "rownormsq"),
    "rbk-ragged": (RBK, "ragged", "classic", "rownormsq"),
    "adaptive-ragged": (RBK, "ragged", "adaptive"),
    "blockproj-ragged": (BLOCK_PROJECTION, "ragged", "classic"),
    "rbk-one-drawn-size": (RBK, "one-drawn-size", "classic", "rownormsq"),
    "blockproj-one-drawn-size": (BLOCK_PROJECTION, "one-drawn-size", "classic"),
    # Trials stop at different k: the stack shrinks mid-run.
    "rbk-tolerance": (RBK, "uniform3", "constant-extrapolated", "uniform", 1.0),
    "adaptive-tolerance": (RBK, "ragged", "adaptive", "rownormsq", 0.7),
    # Trials stop on both sides of step DRAW_AHEAD, where draws are refilled.
    "rbk-long-tolerance": (RBK, "uniform1", "classic", "uniform", 3e-2, 600),
    "adaptive-long-tolerance": (RBK, "ragged", "adaptive", "rownormsq", 3e-5, 600),
}


def _serial_summary(config, system, trials):
    """run_monte_carlo's statistics from T separate run_solver calls."""
    traces = [run_solver(dataclasses.replace(config, seed=split_seed(config.seed, t)), system)
              for t in range(trials)]
    fields = []
    for name in ("dist_sq", "iterates", "residual"):
        stacked = np.stack([pad_to(getattr(trace, name), config.max_iters + 1) for trace in traces])
        spread = (stacked - stacked[:1]).std(axis=0, ddof=1)
        fields += [stacked.mean(axis=0), spread / np.sqrt(trials)]
    hits = [trace.iterations if trace.status == CONVERGED else -1 for trace in traces]
    return fields[:5] + [np.asarray(hits, dtype=int)], traces


def _assert_lockstep_matches_serial(config, system, trials=4):
    mc = run_monte_carlo(config, system, trials)
    expected, traces = _serial_summary(config, system, trials)
    got = [mc.mean_dist_sq, mc.stderr_dist_sq, mc.mean_iterate, mc.stderr_iterate,
           mc.mean_residual_norm, mc.hit_iteration, mc.final_x]
    expected.append(np.stack([trace.final_x for trace in traces]))
    for name, a, b in zip(["mean_dist_sq", "stderr_dist_sq", "mean_iterate", "stderr_iterate",
                           "mean_residual_norm", "hit_iteration", "final_x"], got, expected):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    return mc, traces


@pytest.mark.parametrize("case", sorted(_LOCKSTEP_CASES))
def test_lockstep_trials_match_serial_runs(case):
    config, system = _case(*_LOCKSTEP_CASES[case])
    mc, _ = _assert_lockstep_matches_serial(config, system)
    if case.endswith("tolerance"):
        assert len(set(mc.hit_iteration.tolist())) > 1
    if "long" in case:
        assert 0 <= mc.hit_iteration.min() < DRAW_AHEAD < mc.hit_iteration.max()


def test_lockstep_skips_and_stalls_match_serial_runs():
    # Block (2, 3) is satisfied at x0 = 0 for the whole run, so each of its
    # draws is a skipped adaptive step.
    A = np.array([[1.0, 0.5, 0.0, 0.0], [0.3, 1.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0, 0.2], [0.0, 0.0, 0.4, 1.0]])
    x_star = np.array([1.0, -2.0, 0.0, 0.0])
    system = LinearSystem(A, A @ x_star, planted_solution=x_star)
    spec = partition_spec([(0, 1), (2, 3)])
    config = SolverConfig(RBK, spec, uniform_weights(spec), Adaptive(0.8), max_iters=30,
                          residual_tol=0.0, seed=3, trace_level=FULL_ITERATES, diagnostics=True)
    _, traces = _assert_lockstep_matches_serial(config, system, trials=5)
    assert any(e.skipped for trace in traces for e in trace.events)
    # Only the satisfied block is ever drawn: every trial stalls at k = 100.
    stall = dataclasses.replace(config, sampling=Partition(((0, 1), (2, 3)), np.array([0.0, 1.0])),
                                max_iters=300)
    _, traces = _assert_lockstep_matches_serial(stall, system, trials=3)
    assert [(trace.status, trace.iterations) for trace in traces] == [(STALLED, 100)] * 3


# ---------------------------------------------------------------------------
# The stop rule checked once per window replays a check after every step
# ---------------------------------------------------------------------------

def _stepwise_run(config, system, seed):
    """One trial of an averaged-update method by a plain loop: each block
    drawn by ``sample_block``, each step by its kernel, and ``A @ x - b``
    tested after every step.  Returns K, the status, x^K, each column as a
    list and the blocks."""
    rng = np.random.default_rng(seed)
    alphas = config.stepsize.stepsizes(config.weights, config.max_iters)
    tol = config.residual_tol
    x, k, skips, alpha, blocks = np.zeros(system.n), 0, 0, np.nan, [None]
    columns = {"residual": [], "dist_sq": [], "alpha": [], "iterates": []}
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            r = system.A @ x - system.b
            norm = np.sqrt(np.vecdot(r, r))
            for name, value in (("residual", norm), ("dist_sq", system.projector.dist_sq(x)),
                                ("alpha", alpha), ("iterates", x)):
                columns[name].append(value)
            if not norm > tol or not norm < np.inf or skips >= STALL_LIMIT or k == config.max_iters:
                status = (CONVERGED if norm <= tol else DIVERGED if not norm < np.inf
                          else STALLED if skips >= STALL_LIMIT else MAX_ITERS)
                return k, status, x, columns, blocks
            k += 1
            J = sample_block(config.sampling, rng)
            blocks.append(J)
            weights = config.weights.step_weights(system, J)
            if alphas is None:
                x, alpha = adaptive_step(x, system, J, weights, config.stepsize.delta)
                skips = skips + 1 if np.isnan(alpha) else 0
            else:
                alpha = alphas[k - 1]
                x = averaged_step(x, system, J, weights, alpha)


def _windows(config, system, monkeypatch):
    """The windows of a one-trial run to max_iters, as (first step, steps)
    pairs, read from the stacks ``LinearSystem.residual`` is handed."""
    sizes = []
    residual = LinearSystem.residual
    with monkeypatch.context() as patch:
        patch.setattr(LinearSystem, "residual", lambda self, X: sizes.append(len(X)) or residual(self, X))
        run_solver(dataclasses.replace(config, residual_tol=0.0), system)
    return list(zip(np.cumsum([0, *sizes[:-1]]).tolist(), sizes))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _basic_chebyshev():
    # Built for [0.5, 0.6] lambda_max: every trial overflows (seed 1 at k = 348).
    system = normalized_system(50, 20, seed=1)
    lambda_max = np.linalg.eigvalsh(system.A @ system.A.T)[-1]
    spec = UniformSubset(50, 1)
    policy = ChebyshevPD(horizon=2000, lambda_min=0.5 * lambda_max, lambda_max=0.6 * lambda_max, m=50)
    return SolverConfig(BASIC, spec, uniform_weights(spec), policy, max_iters=2000, residual_tol=0.0,
                        trace_level=FULL_ITERATES, diagnostics=True), system


def _satisfied_block():
    # Only block (2, 3) is drawn, and it is satisfied at x0 = 0: every step
    # is skipped and every trial stalls at k = STALL_LIMIT.
    A = np.array([[1.0, 0.5, 0.0, 0.0], [0.3, 1.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0, 0.2], [0.0, 0.0, 0.4, 1.0]])
    x_star = np.array([1.0, -2.0, 0.0, 0.0])
    spec = Partition(((0, 1), (2, 3)), np.array([0.0, 1.0]))
    return (SolverConfig(RBK, spec, uniform_weights(spec), Adaptive(0.8), max_iters=300,
                         residual_tol=0.0, trace_level=FULL_ITERATES, diagnostics=True),
            LinearSystem(A, A @ x_star, planted_solution=x_star))


def test_skip_count_restarts_on_a_step_that_moves():
    # Block (0, 1) moves and block (2, 3) is skipped: each trial stalls at
    # its first run of STALL_LIMIT skips, past moves inside earlier windows,
    # where a count taken after every step finds it.
    config, system = _satisfied_block()
    spec = Partition(((0, 1), (2, 3)), (0.02, 0.98))
    config = dataclasses.replace(config, sampling=spec, weights=uniform_weights(spec),
                                 max_iters=3000)
    seeds = [1, 2, 3, 5, 6]
    refs = [_stepwise_run(config, system, seed) for seed in seeds]
    assert {ref[1] for ref in refs} == {STALLED} and len({ref[0] for ref in refs}) == len(seeds)
    assert min(ref[0] for ref in refs) > STALL_LIMIT
    run = Trials(config, system, seeds)
    assert run.iterations == [ref[0] for ref in refs] and run.status == [STALLED] * len(seeds)
    assert _same_bits(run.final_x, [ref[2] for ref in refs])


def _converging(tol, max_iters=120):
    system = normalized_system(30, 10, seed=8)
    spec = UniformSubset(30, 3)
    return SolverConfig(RBK, spec, uniform_weights(spec), ClassicConstant(1.0), max_iters=max_iters,
                        residual_tol=tol, trace_level=FULL_ITERATES, diagnostics=True), system


# name: (config and system, seeds, each trial's (K, status), where it stops)
# in a window: its position, "last" for the window's last step.
_WINDOW_CASES = {
    "converged-position-0": (lambda: _converging(1.55), [1], [(15, CONVERGED)], [0]),
    "converged-position-1": (lambda: _converging(1.54), [1], [(16, CONVERGED)], [1]),
    "converged-last": (lambda: _converging(1.0), [1], [(30, CONVERGED)], ["last"]),
    # max_iters = 20 cuts the window of steps 15..30 to six steps.
    "max-iters": (lambda: _converging(0.0, max_iters=20), [1], [(20, MAX_ITERS)], ["last"]),
    "max-iters-3": (lambda: _converging(0.0, max_iters=20), [1, 2, 3], [(20, MAX_ITERS)] * 3,
                    ["last"] * 3),
    "diverged": (_basic_chebyshev, [1], [(348, DIVERGED)], [29]),
    "diverged-3": (_basic_chebyshev, [1, 2, 3], None, None),
    "stalled": (_satisfied_block, [3], [(STALL_LIMIT, STALLED)], [5]),
    "stalled-3": (_satisfied_block, [3, 4, 5], [(STALL_LIMIT, STALLED)] * 3, [5] * 3),
    # Three trials that leave in one window, and two that leave in one and
    # the third in the next.
    "one-window-3": (lambda: _converging(0.8), [1, 2, 3], [(43, CONVERGED), (32, CONVERGED),
                                                        (41, CONVERGED)], [12, 1, 10]),
    "two-windows-3": (lambda: _converging(1.0), [1, 2, 3], [(30, CONVERGED), (21, CONVERGED),
                                                         (31, CONVERGED)], ["last", 6, 0]),
}


@pytest.mark.parametrize("case", sorted(_WINDOW_CASES))
def test_windowed_stop_check_replays_a_check_every_step(case, monkeypatch):
    make, seeds, stops, positions = _WINDOW_CASES[case]
    config, system = make()
    refs = [_stepwise_run(config, system, seed) for seed in seeds]
    if stops is not None:
        assert [ref[:2] for ref in refs] == stops
        windows = _windows(config, system, monkeypatch)
        at = [next(K - first if K - first < size - 1 else "last"
                   for first, size in windows if first <= K < first + size) for K, _ in stops]
        assert at == positions
    else:
        assert [ref[1] for ref in refs] == [DIVERGED] * 3 and len({ref[0] for ref in refs}) == 3
    run = Trials(config, system, seeds)
    assert run.iterations == [ref[0] for ref in refs]
    assert run.status == [ref[1] for ref in refs]
    assert _same_bits(run.final_x, [ref[2] for ref in refs])
    assert set(run.columns) == {"residual", "dist_sq", "iterates"} | (
        set() if run.alphas is not None else {"alpha"})
    for name in run.columns:
        padded = [pad_to(np.array(ref[3][name]), config.max_iters + 1) for ref in refs]
        assert _same_bits(run.column(name, config.max_iters + 1), padded)
    if len(seeds) == 1:
        K, status, x, columns, blocks = refs[0]
        assert run.blocks()[0] is None and len(run.blocks()) == K + 1
        assert all(_same_bits(a, b) for a, b in zip(run.blocks()[1:], blocks[1:]))
        trace = run_solver(dataclasses.replace(config, seed=seeds[0]), system)
        assert (trace.iterations, trace.status) == (K, status)
        assert _same_bits(trace.final_x, x)
        assert _same_bits(trace.residual, columns["residual"])
        for name in ("dist_sq", "alpha", "iterates"):
            assert _same_bits(getattr(trace, name), columns[name]), name
        assert all(_same_bits(a, b) for a, b in zip(trace.blocks[1:], blocks[1:]))


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(data=st.data())
def test_stop_rule_replays_a_check_every_step_at_any_tolerance(data):
    # Trials equals the stepwise reference in K, status, x^K and every
    # column at tolerances 0 and inf, and at a residual norm r_k of a run to
    # max_iters and its two neighbouring floats, where a trial stops at or
    # runs past the step that recorded r_k.
    m, n = data.draw(st.integers(2, 30), label="m"), data.draw(st.integers(1, 12), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="system seed"))
    A = rng.standard_normal((m, n)) * rng.uniform(0.5, 2.0, size=m)[:, None]
    system = LinearSystem(A, A @ rng.standard_normal(n))
    method = data.draw(st.sampled_from([RBK, BASIC]), label="method")
    spec = UniformSubset(m, 1 if method == BASIC else data.draw(st.integers(1, m), label="tau"))
    policy = data.draw(st.one_of(st.builds(ClassicConstant, st.floats(0.1, 1.9)),
                                 st.builds(ExtrapolatedConstant, st.floats(1.0, 4.0)),
                                 st.builds(Adaptive, st.floats(0.1, 1.0))), label="stepsize")
    seeds = data.draw(st.lists(st.integers(0, 2**16), min_size=1, max_size=4), label="seeds")
    config = SolverConfig(method, spec, uniform_weights(spec), policy,
                          max_iters=data.draw(st.integers(1, 60), label="max_iters"),
                          residual_tol=0.0, trace_level=FULL_ITERATES, diagnostics=True)
    norms = _stepwise_run(config, system, seeds[0])[3]["residual"]
    r_k = norms[data.draw(st.integers(0, len(norms) - 1), label="k")]
    width = config.max_iters + 1
    for tol in (0.0, np.inf, r_k, np.nextafter(r_k, 0.0), np.nextafter(r_k, np.inf)):
        config = dataclasses.replace(config, residual_tol=float(tol))
        refs = [_stepwise_run(config, system, seed) for seed in seeds]
        run = Trials(config, system, seeds)
        assert run.iterations == [ref[0] for ref in refs], tol
        assert run.status == [ref[1] for ref in refs], tol
        assert _same_bits(run.final_x, [ref[2] for ref in refs]), tol
        assert set(run.columns) == {"residual", "dist_sq", "iterates"} | (
            set() if run.alphas is not None else {"alpha"})
        for name in run.columns:
            padded = [pad_to(np.array(ref[3][name]), width) for ref in refs]
            assert _same_bits(run.column(name, width), padded), (tol, name)
