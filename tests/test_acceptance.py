"""Acceptance gate: every convergence theorem the library implements is
checked against Monte-Carlo or deterministic runs at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
all).  Rates are upper bounds, so the checks assert bound satisfaction,
not equality.
"""

import dataclasses
import time

import numpy as np
import pytest

from kaczlab import (
    Adaptive,
    ChebyshevPD,
    ChebyshevSingular,
    ClassicConstant,
    ExtrapolatedConstant,
    GaussianNormalized,
    LinearSystem,
    OrthonormalBlocks,
    RankDeficient,
    SolverConfig,
    UniformSubset,
    basic_kaczmarz_step,
    block_lambda_max,
    block_projection_step,
    build_random_paving,
    chebyshev_eval,
    chebyshev_roots,
    chebyshev_schedule_pd,
    chebyshev_schedule_singular,
    enumerate_supports,
    full_batch,
    generate_problem,
    identity_permutation,
    min_deviation_bound,
    partition_spec,
    paving_quality,
    project_onto_solution_set,
    random_permutation,
    rbk_step,
    row_norm_sq_weights,
    run_monte_carlo,
    run_solver,
    spectral_norm_sq,
    split_seed,
    sym_eigenvalues,
    uniform_weights,
)
from kaczlab.kernels import averaged_step
from kaczlab.problems import aligned_partition
from kaczlab.sampling import WordSource
from kaczlab.solver import CONVERGED, FULL_ITERATES


def _verdict(num: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:02d}: {detail}")
    assert ok, f"criterion {num:02d} failed: {detail}"


def _gram_summary(system):
    return sym_eigenvalues(system.A @ system.A.T)


def test_criterion_01_basic_kaczmarz_rate():
    # Expected squared distance of basic Kaczmarz decays at least as fast
    # as (1 - lmin_nz(A^T A) / ||A||_F^2)^k.
    start = time.perf_counter()
    system = generate_problem(GaussianNormalized(50, 20, seed=1))
    lam = sym_eigenvalues(system.A.T @ system.A).lambda_min_nz
    rate = 1.0 - lam / float(np.sum(system.row_norms_sq))
    spec = UniformSubset(50, 1)
    config = SolverConfig(
        "basic", spec, uniform_weights(spec), ClassicConstant(1.0),
        max_iters=200, residual_tol=0.0, seed=101, diagnostics=True,
    )
    mc = run_monte_carlo(config, system, trials=500)
    bound = mc.mean_dist_sq[0] * rate ** np.arange(201)
    ok = bool(np.all(mc.mean_dist_sq <= bound * 1.1 + 3.0 * mc.stderr_dist_sq))
    elapsed = time.perf_counter() - start
    worst = float(np.max(mc.mean_dist_sq / (bound * 1.1 + 3.0 * mc.stderr_dist_sq)))
    _verdict(1, ok and elapsed < 30.0,
             f"basic rate bound, 500 trials, k<=200 (worst ratio {worst:.3f}, {elapsed:.1f}s)")


def _orthonormal_block_instance():
    system = generate_problem(OrthonormalBlocks(32, 32, block_size=8, seed=2))
    part = aligned_partition(32, 8)
    lam_block, _ = block_lambda_max(system, part)
    lam_min_nz = sym_eigenvalues(system.A.T @ system.A).lambda_min_nz
    rate = 1.0 - (8.0 / 32.0) * lam_min_nz / lam_block
    return system, part, lam_block, rate


def test_criterion_02_constant_extrapolated_rate():
    start = time.perf_counter()
    system, part, lam_block, rate = _orthonormal_block_instance()
    config = SolverConfig(
        "rbk", part, uniform_weights(part),
        ExtrapolatedConstant(lambda_max_block=lam_block, delta=1.0),
        max_iters=150, residual_tol=0.0, seed=202, diagnostics=True,
    )
    mc = run_monte_carlo(config, system, trials=300)
    bound = mc.mean_dist_sq[0] * rate ** np.arange(151)
    ok = bool(np.all(mc.mean_dist_sq <= bound * 1.1 + 3.0 * mc.stderr_dist_sq))
    assert lam_block == pytest.approx(1.0, abs=1e-10)  # aligned orthonormal blocks
    elapsed = time.perf_counter() - start
    _verdict(2, ok, f"constant extrapolated stepsize bound on aligned blocks "
                    f"(alpha = 8, rate {rate:.5f}, {elapsed:.1f}s)")


def test_criterion_03_adaptive_rate_and_stepsize_bounds():
    start = time.perf_counter()
    system, part, lam_block, rate = _orthonormal_block_instance()
    scheme = uniform_weights(part)
    config = SolverConfig(
        "rbk", part, scheme, Adaptive(delta=1.0),
        max_iters=150, residual_tol=0.0, seed=303, diagnostics=True,
    )
    dists, L_values = [], []
    for t in range(300):
        cfg = dataclasses.replace(config, seed=split_seed(303, t))
        trace = run_solver(cfg, system)
        d = trace.dist_sq
        assert d.size == 151  # adaptive never converges to 0 exactly here
        dists.append(d)
        # delta = 1 makes alpha = (2 - delta) L = L.
        L_values.extend(trace.alpha[1:][~np.isnan(trace.alpha[1:])])
    D = np.stack(dists)
    mean = D.mean(axis=0)
    stderr = D.std(axis=0, ddof=1) / np.sqrt(300)
    bound = mean[0] * rate ** np.arange(151)
    L = np.array(L_values)
    ok_bound = bool(np.all(mean <= bound * 1.1 + 3.0 * stderr))
    ok_L = bool(np.all(L >= 1.0 - 1e-12)) and bool(
        np.all(L >= 1.0 / (scheme.omega_max * lam_block) - 1e-8)
    )
    elapsed = time.perf_counter() - start
    _verdict(3, ok_bound and ok_L,
             f"adaptive stepsize bound + L_k in [{L.min():.6f}, {L.max():.6f}] "
             f"(floor {1.0 / (scheme.omega_max * lam_block):.6f}, {elapsed:.1f}s)")


def test_criterion_04_block_speedup():
    # Well-conditioned aligned blocks: the extrapolated block method needs
    # at most half the iterations of basic Kaczmarz (theory: about tau x).
    start = time.perf_counter()
    system = generate_problem(OrthonormalBlocks(32, 16, block_size=8, seed=4))
    part = aligned_partition(32, 8)
    lam_block, _ = block_lambda_max(system, part)
    spec1 = UniformSubset(32, 1)
    iters = {"basic": [], "rbk": []}
    for t in range(11):
        basic_cfg = SolverConfig(
            "basic", spec1, uniform_weights(spec1), ClassicConstant(1.0),
            max_iters=40000, residual_tol=1e-6, seed=split_seed(44, t),
        )
        rbk_cfg = SolverConfig(
            "rbk", part, uniform_weights(part),
            ExtrapolatedConstant(lambda_max_block=lam_block, delta=1.0),
            max_iters=40000, residual_tol=1e-6, seed=split_seed(45, t),
        )
        for name, cfg in (("basic", basic_cfg), ("rbk", rbk_cfg)):
            trace = run_solver(cfg, system)
            assert trace.status == CONVERGED
            iters[name].append(trace.events[-1].k)
    med_basic = float(np.median(iters["basic"]))
    med_rbk = float(np.median(iters["rbk"]))
    elapsed = time.perf_counter() - start
    _verdict(4, 2.0 * med_rbk <= med_basic and elapsed < 60.0,
             f"median iterations to 1e-6: basic {med_basic:.0f} vs block {med_rbk:.0f} "
             f"({med_basic / med_rbk:.1f}x, {elapsed:.1f}s)")


def test_criterion_05_chebyshev_deterministic_decay():
    # Full-batch runs are deterministic; the terminal residual of every
    # horizon-k schedule obeys 2 ((sqrt(u)-sqrt(l))/(sqrt(u)+sqrt(l)))^k.
    start = time.perf_counter()
    system = generate_problem(GaussianNormalized(30, 30, seed=155))
    gram = _gram_summary(system)
    assert gram.lambda_min > 0
    u, ell = gram.lambda_max / 30.0, gram.lambda_min / 30.0
    rho = (np.sqrt(u) - np.sqrt(ell)) / (np.sqrt(u) + np.sqrt(ell))
    spec = full_batch(30)
    weights = uniform_weights(spec)
    r0 = float(np.linalg.norm(system.b))
    worst = 0.0
    for k in range(1, 61):
        policy = ChebyshevPD(horizon=k, lambda_min=gram.lambda_min,
                             lambda_max=gram.lambda_max, m=30)
        config = SolverConfig("rbk", spec, weights, policy, max_iters=k, residual_tol=0.0)
        trace = run_solver(config, system)
        worst = max(worst, trace.events[-1].residual_norm / (2.0 * rho**k * r0 * (1 + 1e-8)))
        if k == 17:  # determinism spot check
            again = run_solver(config, system)
            assert np.array_equal(again.final_x, trace.final_x)
    elapsed = time.perf_counter() - start
    _verdict(5, worst <= 1.0 and elapsed < 5.0,
             f"deterministic Chebyshev residual bound, horizons 1..60 "
             f"(worst ratio {worst:.3f}, rho {rho:.4f}, {elapsed:.1f}s)")


def test_criterion_06_chebyshev_stochastic_mean_residual():
    # tau = 1 sampling: only the MEAN iterate contracts; per-trial variance
    # grows (every alpha_j >= m / lambda_max >> 2), which the stderr slack
    # absorbs.  2000 trials per horizon, run in lockstep: trial t runs at
    # seed split(seed_k, t).
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    n = 20
    A = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    A /= np.linalg.norm(A, axis=1)[:, None]
    A /= np.linalg.norm(A, axis=1)[:, None]
    x_star = rng.standard_normal(n)
    system = LinearSystem(A, A @ x_star, planted_solution=x_star, normalized=True)
    gram = _gram_summary(system)
    assert gram.rank_estimate == n  # full rank
    u, ell = gram.lambda_max / n, gram.lambda_min / n
    rho = (np.sqrt(u) - np.sqrt(ell)) / (np.sqrt(u) + np.sqrt(ell))
    spec = UniformSubset(n, 1)
    weights = uniform_weights(spec)
    r0 = float(np.linalg.norm(system.b))
    trials = 2000
    worst = 0.0
    for k in range(1, 41):
        policy = ChebyshevPD(horizon=k, lambda_min=gram.lambda_min,
                             lambda_max=gram.lambda_max, m=n)
        seed_k = split_seed(600, k)
        config = SolverConfig("rbk", spec, weights, policy,
                              max_iters=k, residual_tol=0.0, seed=seed_k)
        finals = run_monte_carlo(config, system, trials).final_x
        residuals = finals @ system.A.T - system.b
        mean_norm = float(np.linalg.norm(residuals.mean(axis=0)))
        agg_stderr = float(np.linalg.norm(residuals.std(axis=0, ddof=1) / np.sqrt(trials)))
        worst = max(worst, mean_norm / (2.0 * rho**k * r0 + 4.0 * agg_stderr))
    elapsed = time.perf_counter() - start
    _verdict(6, worst <= 1.0 and elapsed < 120.0,
             f"stochastic Chebyshev mean-residual bound, horizons 1..40 "
             f"(worst ratio {worst:.3f}, {elapsed:.1f}s)")


def test_criterion_07_chebyshev_singular_sublinear():
    # Singular spectrum: the normal-system residual after a horizon-k
    # schedule is below pi lmax / (2 (k+1)^2) * ||x0 - x*||.
    start = time.perf_counter()
    system = generate_problem(RankDeficient(30, 20, rank=10, seed=7))
    gram = _gram_summary(system)
    assert gram.lambda_min <= 1e-12  # genuinely singular
    dist0 = float(np.linalg.norm(project_onto_solution_set(system, np.zeros(20))))
    spec = full_batch(30)
    weights = uniform_weights(spec)
    worst = 0.0
    for k in range(10, 61):
        policy = ChebyshevSingular(horizon=k, lambda_max=gram.lambda_max, m=30)
        config = SolverConfig("rbk", spec, weights, policy, max_iters=k, residual_tol=0.0)
        trace = run_solver(config, system)
        normal_res = float(np.linalg.norm(system.A.T @ (system.A @ trace.final_x - system.b)))
        bound = np.pi * gram.lambda_max / (2.0 * (k + 1) ** 2) * dist0 * 1.05
        worst = max(worst, normal_res / bound)
    elapsed = time.perf_counter() - start
    _verdict(7, worst <= 1.0,
             f"singular Chebyshev normal-residual bound, horizons 10..60 "
             f"(worst ratio {worst:.3f}, {elapsed:.1f}s)")


def test_criterion_08_paving_quality():
    # Random pavings of a diverse Gaussian system are good with high
    # probability: lambda_max^block <= 6 ln(1+m) in >= 95% of 200 pavings.
    start = time.perf_counter()
    system = generate_problem(GaussianNormalized(200, 50, seed=8))
    ell = int(np.ceil(spectral_norm_sq(system.A)))
    good = sum(
        paving_quality(system, build_random_paving(seed, 200, ell)).satisfied
        for seed in range(200)
    )
    elapsed = time.perf_counter() - start
    _verdict(8, good / 200 >= 0.95 and elapsed < 60.0,
             f"paving bound satisfied in {good}/200 pavings (ell={ell}, {elapsed:.1f}s)")


# The m <= 6 corpus used by the exact-expectation oracle.
_SMALL_CORPUS = [
    (GaussianNormalized(5, 3, seed=91), UniformSubset(5, 2), 1.3),
    (GaussianNormalized(6, 6, seed=92), None, 0.7),  # equal 2-block partition
    (GaussianNormalized(4, 2, seed=93), UniformSubset(4, 1), 1.0),
]


def test_criterion_09_exact_expectation_oracle():
    # One RBK step in expectation equals x* + (I - (alpha/m) A^T A)(x0 - x*)
    # for uniform weights and tau/m membership probabilities; Monte-Carlo
    # agrees within 4 standard errors.
    start = time.perf_counter()
    trials = 10**5
    worst_exact, worst_mc = 0.0, 0.0
    for idx, (recipe, spec, alpha) in enumerate(_SMALL_CORPUS):
        system = generate_problem(recipe)
        m, n = system.shape
        if spec is None:
            spec = partition_spec([range(0, m // 2), range(m // 2, m)])
        scheme = uniform_weights(spec)
        words = WordSource([split_seed(909, idx)])
        x0 = words.call(0, np.random.Generator.standard_normal, n)
        x_star = system.planted_solution

        expected = np.zeros(n)
        for J, p in enumerate_supports(spec):
            expected += p * rbk_step(x0, system, J, scheme.realized(system, J), alpha)
        closed = x_star + (x0 - x_star) - (alpha / m) * (system.A.T @ (system.A @ (x0 - x_star)))
        worst_exact = max(worst_exact, float(np.max(np.abs(expected - closed))))

        # All trials' blocks in one call from the generator that drew x0,
        # each step from x0 on one stack: the values, generator use and bits
        # of sample_block and rbk_step trial by trial.
        drawn = spec.draws(words, trials)[:, 0]
        assert len(drawn) == trials
        X0 = np.broadcast_to(x0, (trials, n))
        draws = np.empty((trials, n))
        for sel, J in spec.groups(drawn):
            rows = slice(None) if sel is None else sel
            draws[rows] = averaged_step(X0[rows], system, J, scheme.realized(system, J), alpha)
        mean = draws.mean(axis=0)
        stderr = draws.std(axis=0, ddof=1) / np.sqrt(trials)
        worst_mc = max(worst_mc, float(np.max(np.abs(mean - closed) / (4.0 * stderr + 1e-15))))
    elapsed = time.perf_counter() - start
    _verdict(9, worst_exact <= 1e-12 and worst_mc <= 1.0,
             f"expectation oracle: enumeration gap {worst_exact:.2e}, "
             f"MC within {worst_mc:.2f} of the 4-stderr budget ({elapsed:.1f}s)")


def test_criterion_10_reduction_equivalences():
    system = generate_problem(GaussianNormalized(7, 4, seed=10))
    spec = UniformSubset(7, 1)
    shared = dict(max_iters=80, seed=55, trace_level=FULL_ITERATES, residual_tol=0.0)
    t_basic = run_solver(
        SolverConfig("basic", spec, uniform_weights(spec), ClassicConstant(1.0), **shared), system
    )
    t_rbk = run_solver(
        SolverConfig("rbk", spec, uniform_weights(spec), ClassicConstant(1.0), **shared), system
    )
    bitwise = all(
        np.array_equal(e1.iterate, e2.iterate) for e1, e2 in zip(t_basic.events, t_rbk.events)
    ) and np.array_equal(t_basic.final_x, t_rbk.final_x)

    rng = np.random.default_rng(20)
    proj_gap, compact_gap = 0.0, 0.0
    for _ in range(20):
        x = rng.standard_normal(4)
        i = int(rng.integers(7))
        single = block_projection_step(x, system, np.array([i]), alpha=1.0)
        basic = basic_kaczmarz_step(x, system.A[i], system.b[i], 1.0)
        proj_gap = max(proj_gap, float(np.max(np.abs(single - basic))))

        J = np.sort(rng.choice(7, size=3, replace=False))
        w = row_norm_sq_weights(UniformSubset(7, 3), system).realized(system, J)
        stepped = rbk_step(x, system, J, w, alpha=1.6)
        total = system.row_norms_sq[J].sum()
        compact = x - (1.6 / total) * system.A[J].T @ (system.A[J] @ x - system.b[J])
        compact_gap = max(compact_gap, float(np.max(np.abs(stepped - compact))))

    _verdict(10, bitwise and proj_gap <= 1e-12 and compact_gap <= 1e-12,
             f"reductions: tau=1 bitwise {bitwise}, singleton-projection gap {proj_gap:.2e}, "
             f"compact-update gap {compact_gap:.2e}")


def test_criterion_11_chebyshev_toolkit():
    root_err = max(
        float(np.max(np.abs(chebyshev_eval(k, chebyshev_roots(k))))) for k in range(1, 13)
    )

    rng = np.random.default_rng(111)
    optimality = True
    for ell, u, k in [(1.0, 4.0, 5), (0.5, 3.0, 8), (1.0, 10.0, 3)]:
        grid = np.linspace(ell, u, 1000)
        bound = min_deviation_bound(ell, u, k)
        for _ in range(20):
            roots = rng.uniform(ell, u, size=k) * (1 + 0.05 * rng.standard_normal(k))
            P = np.ones_like(grid)
            for r in roots:
                P *= 1.0 - grid / r
            optimality &= bool(np.max(np.abs(P)) >= bound - 1e-8)

    lams = np.linspace(0.01, 0.4, 11)
    perm_gap = 0.0
    for build in (
        lambda kap: chebyshev_schedule_pd(0.3, 4.0, 10, 7, kap),
        lambda kap: chebyshev_schedule_singular(4.0, 10, 7, kap),
    ):
        ref = None
        for kap in (identity_permutation(7), random_permutation(7, 1), random_permutation(7, 2)):
            prod = np.prod(1.0 - np.outer(build(kap).alphas, lams), axis=0)
            if ref is None:
                ref = prod
            else:
                perm_gap = max(perm_gap, float(np.max(np.abs(prod - ref))))

    _verdict(11, root_err <= 1e-12 and optimality and perm_gap <= 1e-10,
             f"toolkit: root residual {root_err:.2e}, min-deviation optimality {optimality}, "
             f"permutation invariance gap {perm_gap:.2e}")


def test_criterion_12_monotonicity_and_confinement():
    system = generate_problem(GaussianNormalized(10, 6, seed=12))
    spec = UniformSubset(10, 1)
    x_star = system.planted_solution
    monotone = True
    for alpha in (0.5, 1.0, 1.9):
        config = SolverConfig(
            "basic", spec, uniform_weights(spec), ClassicConstant(alpha),
            max_iters=60, seed=9, trace_level=FULL_ITERATES, residual_tol=0.0,
        )
        trace = run_solver(config, system)
        dists = [float(np.linalg.norm(e.iterate - x_star)) for e in trace.events]
        monotone &= all(d1 <= d0 + 1e-12 for d0, d1 in zip(dists, dists[1:]))

    wide = generate_problem(GaussianNormalized(5, 9, seed=13))
    rng = np.random.default_rng(14)
    idem_gap = 0.0
    for _ in range(10):
        z = project_onto_solution_set(wide, rng.standard_normal(9))
        zz = project_onto_solution_set(wide, z)
        idem_gap = max(idem_gap, float(np.linalg.norm(zz - z)))

    _, _, Vt = np.linalg.svd(wide.A)
    null_basis = Vt[np.linalg.matrix_rank(wide.A):]
    x0 = rng.standard_normal(9)
    confinement_gap = 0.0
    for method in ("rbk", "block-projection"):
        spec_w = UniformSubset(5, 2)
        config = SolverConfig(
            method, spec_w, uniform_weights(spec_w), ClassicConstant(1.0),
            max_iters=40, seed=15, trace_level=FULL_ITERATES, residual_tol=0.0,
        )
        trace = run_solver(config, wide, x0=x0)
        for e in trace.events:
            confinement_gap = max(
                confinement_gap, float(np.linalg.norm(null_basis @ (e.iterate - x0)))
            )

    _verdict(12, monotone and idem_gap <= 1e-8 and confinement_gap <= 1e-8,
             f"monotone distances {monotone}, projection idempotence gap {idem_gap:.2e}, "
             f"row-space confinement gap {confinement_gap:.2e}")
