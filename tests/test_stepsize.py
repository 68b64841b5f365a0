import json
import math

import numpy as np
import pytest

from kaczlab.analysis import RatePrediction
from kaczlab.errors import BadIntervalError, BadSpectrumError, NonPositiveConditioningError
from kaczlab.linalg import LinearSystem
from kaczlab.sampling import UniformSubset, enumerate_supports, partition_spec, sample_block
from kaczlab.stepsize import (
    Adaptive,
    ChebyshevPD,
    ChebyshevSchedule,
    ChebyshevSingular,
    ClassicConstant,
    ExtrapolatedConstant,
    adaptive_alpha,
    chebyshev_eval,
    chebyshev_roots,
    chebyshev_schedule_pd,
    chebyshev_schedule_singular,
    constant_extrapolated_alpha,
    explicit_weights,
    identity_permutation,
    min_deviation_bound,
    random_permutation,
    row_norm_sq_weights,
    stable_permutation,
    uniform_weights,
)


def normalized_system(m, n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    A /= np.linalg.norm(A, axis=1)[:, None]
    x = rng.standard_normal(n)
    return LinearSystem(A, A @ x, planted_solution=x, normalized=True)


class TestChebyshevToolkit:
    def test_t3_half(self):
        assert chebyshev_eval(3, 0.5) == pytest.approx(-1.0, abs=1e-14)

    def test_value_one_at_one(self):
        for k in range(11):
            assert chebyshev_eval(k, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_cosine_identity(self):
        theta = 0.3
        assert chebyshev_eval(5, math.cos(theta)) == pytest.approx(math.cos(5 * theta), abs=1e-12)

    def test_roots_small_degrees(self):
        np.testing.assert_allclose(chebyshev_roots(1), [0.0], atol=1e-15)
        np.testing.assert_allclose(chebyshev_roots(2), [np.sqrt(2) / 2, -np.sqrt(2) / 2])

    def test_roots_annihilate(self):
        for k in range(1, 13):
            roots = chebyshev_roots(k)
            assert np.all(np.diff(roots) < 0)  # descending
            assert np.max(np.abs(chebyshev_eval(k, roots))) <= 1e-12

    def test_array_evaluation(self):
        x = np.linspace(-1, 1, 7)
        np.testing.assert_allclose(chebyshev_eval(2, x), 2 * x * x - 1, atol=1e-14)


class TestMinDeviationBound:
    def test_degree_zero(self):
        assert min_deviation_bound(1.0, 4.0, 0) == 1.0

    def test_tiny_interval_limit(self):
        for k in range(1, 6):
            assert min_deviation_bound(1.0, 1.0 + 1e-9, k) <= 2e-4

    def test_matches_recurrence_evaluation(self):
        # 1 / |T_5(-5/3)| with the interval [1, 4] mapped to [-1, 1].
        direct = 1.0 / abs(chebyshev_eval(5, -5.0 / 3.0))
        val = min_deviation_bound(1.0, 4.0, 5)
        assert val == pytest.approx(direct, rel=1e-12)
        assert val <= 2.0 * (1.0 / 3.0) ** 5

    def test_bad_interval(self):
        with pytest.raises(BadIntervalError):
            min_deviation_bound(2.0, 1.0, 3)

    def test_no_overflow_at_high_degree(self):
        assert min_deviation_bound(1.0, 100.0, 5000) == 0.0

    def test_optimality_against_competitors(self):
        # No degree-k polynomial with P(0) = 1 and real roots near [l, u]
        # beats the Chebyshev bound on a fine grid.
        rng = np.random.default_rng(31)
        for ell, u, k in [(1.0, 4.0, 5), (0.5, 3.0, 8), (1.0, 10.0, 3)]:
            grid = np.linspace(ell, u, 1000)
            bound = min_deviation_bound(ell, u, k)
            for _ in range(20):
                roots = rng.uniform(ell, u, size=k) * (1 + 0.05 * rng.standard_normal(k))
                P = np.ones_like(grid)
                for r in roots:
                    P *= 1.0 - grid / r
                assert np.max(np.abs(P)) >= bound - 1e-8


class TestWeightSchemes:
    def test_uniform_realized(self):
        system = normalized_system(6, 4, seed=0)
        scheme = uniform_weights(UniformSubset(6, 3))
        w = scheme.realized(system, np.array([0, 2, 5]))
        np.testing.assert_allclose(w, [1 / 3] * 3)
        assert scheme.omega_min == scheme.omega_max == pytest.approx(1 / 3)

    def test_row_norm_sq_realized(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((5, 3)) * rng.uniform(0.5, 2.0, size=(5, 1))
        system = LinearSystem(A, A @ np.ones(3))
        spec = UniformSubset(5, 2)
        scheme = row_norm_sq_weights(spec, system)
        J = np.array([1, 4])
        w = scheme.realized(system, J)
        r = system.row_norms_sq[J]
        np.testing.assert_allclose(w, r / r.sum())
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_bounds_cover_all_supports(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((6, 3)) * rng.uniform(0.2, 3.0, size=(6, 1))
        system = LinearSystem(A, A @ np.ones(3))
        for spec in (UniformSubset(6, 3), partition_spec([(0, 1, 2), (3, 4, 5)])):
            for scheme in (uniform_weights(spec), row_norm_sq_weights(spec, system)):
                for J, _ in enumerate_supports(spec):
                    w = scheme.realized(system, J)
                    assert w.sum() == pytest.approx(1.0, abs=1e-12)
                    assert np.all(w >= scheme.omega_min - 1e-12)
                    assert np.all(w <= scheme.omega_max + 1e-12)
                if all(len(J) >= 2 for J, _ in enumerate_supports(spec)):
                    assert 0.0 < scheme.omega_min <= scheme.omega_max < 1.0

    def test_explicit_validation(self):
        spec = UniformSubset(3, 2)
        with pytest.raises(ValueError):
            explicit_weights([1.0, -1.0, 2.0], spec)
        scheme = explicit_weights([1.0, 2.0, 3.0], spec)
        system = normalized_system(3, 3, seed=3)
        np.testing.assert_allclose(scheme.realized(system, np.array([0, 2])), [0.25, 0.75])


class TestConstantExtrapolatedAlpha:
    def test_orthonormal_block_extrapolation(self):
        scheme = uniform_weights(UniformSubset(8, 4))
        assert constant_extrapolated_alpha(scheme, 1.0, delta=1.0) == pytest.approx(4.0)

    def test_tau_one_recovers_basic(self):
        scheme = uniform_weights(UniformSubset(8, 1))
        assert constant_extrapolated_alpha(scheme, 1.0, delta=1.0) == pytest.approx(1.0)

    def test_correlated_block_no_gain(self):
        scheme = uniform_weights(UniformSubset(8, 2))
        assert constant_extrapolated_alpha(scheme, 2.0, delta=1.0) == pytest.approx(1.0)

    def test_bad_conditioning(self):
        scheme = uniform_weights(UniformSubset(4, 2))
        with pytest.raises(NonPositiveConditioningError):
            constant_extrapolated_alpha(scheme, 0.0)


class TestAdaptiveAlpha:
    def test_orthonormal_rows(self):
        rows = np.eye(2)
        step = adaptive_alpha(rows, np.array([1.0, 1.0]), np.array([0.5, 0.5]), delta=1.0)
        assert step.L == pytest.approx(2.0)
        assert step.alpha == pytest.approx(2.0)

    def test_zero_residuals_skip(self):
        assert adaptive_alpha(np.eye(2), np.zeros(2), np.full(2, 0.5)) is None

    def test_cancelling_direction_skips(self):
        rows = np.array([[1.0, 0.0], [-1.0, 0.0]])
        out = adaptive_alpha(rows, np.array([1.0, 1.0]), np.array([0.5, 0.5]))
        assert out is None

    def test_oblique_pair(self):
        # Hand-evaluated: numerator 1, ||d||^2 = (2 + sqrt(2)) / 4.
        s = np.sqrt(2) / 2
        rows = np.array([[1.0, 0.0], [s, s]])
        step = adaptive_alpha(rows, np.array([1.0, 1.0]), np.array([0.5, 0.5]), delta=1.0)
        assert step.L == pytest.approx(4.0 / (2.0 + np.sqrt(2.0)), rel=1e-12)
        assert step.alpha == pytest.approx(1.1715728752538097, rel=1e-10)

    def test_jensen_lower_bound(self):
        # L >= 1 on every non-skipped call.
        system = normalized_system(10, 6, seed=4)
        rng = np.random.default_rng(8)
        spec = UniformSubset(10, 3)
        scheme = uniform_weights(spec)
        for _ in range(50):
            J = sample_block(spec, rng)
            x = rng.standard_normal(6)
            w = scheme.realized(system, J)
            step = adaptive_alpha(system.A[J], system.A[J] @ x - system.b[J], w)
            assert step is not None and step.L >= 1.0 - 1e-12

    def test_lower_bound_by_block_conditioning(self):
        system = normalized_system(9, 5, seed=6)
        rng = np.random.default_rng(9)
        spec = UniformSubset(9, 4)
        scheme = uniform_weights(spec)
        for _ in range(40):
            J = sample_block(spec, rng)
            x = rng.standard_normal(5)
            w = scheme.realized(system, J)
            step = adaptive_alpha(system.A[J], system.A[J] @ x - system.b[J], w)
            B = system.A[J]
            lam_block = np.linalg.eigvalsh(B @ B.T)[-1]  # rows are unit norm
            assert step.L >= 1.0 / (scheme.omega_max * lam_block) - 1e-8

    def test_dominates_constant_stepsize(self):
        # alpha_adaptive >= alpha_constant for uniform weights on unit rows.
        system = normalized_system(8, 5, seed=12)
        spec = UniformSubset(8, 3)
        scheme = uniform_weights(spec)
        lam_block = max(
            np.linalg.eigvalsh(system.A[J] @ system.A[J].T)[-1]
            for J, _ in enumerate_supports(spec)
        )
        rng = np.random.default_rng(13)
        for delta in (1.0, 0.5):
            alpha_const = constant_extrapolated_alpha(scheme, lam_block, delta)
            for _ in range(30):
                J = sample_block(spec, rng)
                x = rng.standard_normal(5)
                w = scheme.realized(system, J)
                step = adaptive_alpha(system.A[J], system.A[J] @ x - system.b[J], w, delta)
                assert step.alpha >= alpha_const - 1e-8

    def test_recovers_classic_extrapolated_form(self):
        # With row-norm-squared weights, alpha in the delta -> 0 limit is
        # 2 sum(wbar r^2) / ||sum(wbar r a)||^2 with wbar = 1/sum_J ||a_j||^2.
        rng = np.random.default_rng(14)
        A = rng.standard_normal((6, 4)) * rng.uniform(0.5, 2.0, size=(6, 1))
        system = LinearSystem(A, A @ np.ones(4))
        spec = UniformSubset(6, 3)
        scheme = row_norm_sq_weights(spec, system)
        for _ in range(20):
            J = sample_block(spec, rng)
            x = rng.standard_normal(4)
            r = system.A[J] @ x - system.b[J]
            w = scheme.realized(system, J)
            step = adaptive_alpha(system.A[J], r, w, delta=1.0)
            wbar = 1.0 / system.row_norms_sq[J].sum()
            d = (wbar * r) @ system.A[J]
            expected = 2.0 * wbar * (r @ r) / (d @ d)
            assert 2.0 * step.L == pytest.approx(expected, rel=1e-10)


class TestChebyshevSchedulePD:
    def test_flat_spectrum(self):
        sched = chebyshev_schedule_pd(2.0, 2.0, 5, 4, identity_permutation(4))
        np.testing.assert_allclose(sched.alphas, 2.5)

    def test_single_step(self):
        sched = chebyshev_schedule_pd(1.0, 3.0, 4, 1, [0])
        assert sched.alphas[0] == pytest.approx(2.0)

    def test_inverse_roots_property(self):
        # 1/alpha_j must be a root of the shifted Chebyshev polynomial.
        sched = chebyshev_schedule_pd(1.0, 4.0, 2, 3, identity_permutation(3))
        ell, u = sched.ell, sched.u
        for a in sched.alphas:
            arg = 2.0 / (a * (u - ell)) - (u + ell) / (u - ell)
            assert abs(chebyshev_eval(3, arg)) <= 1e-10

    def test_alpha_range(self):
        sched = chebyshev_schedule_pd(0.5, 6.0, 10, 12, identity_permutation(12))
        assert np.all(sched.alphas >= 10 / 6.0 * (1 - 1e-12))
        assert np.all(sched.alphas <= 10 / 0.5 * (1 + 1e-12))

    def test_bad_spectrum(self):
        with pytest.raises(BadSpectrumError):
            chebyshev_schedule_pd(0.0, 1.0, 3, 2, [0, 1])
        with pytest.raises(BadSpectrumError):
            chebyshev_schedule_pd(2.0, 1.0, 3, 2, [0, 1])

    def test_permutation_invariant_aggregate(self):
        # The product prod_j (1 - alpha_j lambda) must not depend on kappa.
        lams = np.linspace(0.05, 0.6, 9)
        base = None
        for kappa in (identity_permutation(6), random_permutation(6, 3), random_permutation(6, 4)):
            sched = chebyshev_schedule_pd(0.5, 6.0, 10, 6, kappa)
            prod = np.prod(1.0 - np.outer(sched.alphas, lams), axis=0)
            if base is None:
                base = prod
            else:
                np.testing.assert_allclose(prod, base, atol=1e-10)


class TestChebyshevScheduleSingular:
    def test_single_step_value(self):
        sched = chebyshev_schedule_singular(2.0, 2, 1, [0])
        assert sched.alphas[0] == pytest.approx(1.2071067811865475, rel=1e-12)

    def test_positivity(self):
        for k in (1, 2, 5, 17):
            sched = chebyshev_schedule_singular(3.0, 7, k, identity_permutation(k))
            assert np.all(sched.alphas > 0)

    def test_polynomial_constraints(self):
        # Q(lambda) = lambda prod(1 - alpha_j lambda) has Q(0) = 0, Q'(0) = 1,
        # and matches the pinned-root Chebyshev construction on a grid.
        k, m, lmax = 2, 1, 1.0
        sched = chebyshev_schedule_singular(lmax, m, k, identity_permutation(k))
        u = lmax / m

        def Q(lam):
            return lam * np.prod(1.0 - sched.alphas * lam)

        h = 1e-6
        assert Q(0.0) == 0.0
        assert (Q(h) - Q(-h)) / (2 * h) == pytest.approx(1.0, abs=1e-10)

        r = np.cos((2 * k + 1) * np.pi / (2 * (k + 1)))
        # T'_{k+1}(r_{k+1}) = (k+1) (-1)^k / sin(pi / (2(k+1))), signed.
        dT = (k + 1) * (-1) ** k / np.sin(np.pi / (2 * (k + 1)))
        for lam in np.linspace(0.0, u, 23):
            ref = u / (1 - r) * chebyshev_eval(k + 1, r + (1 - r) * lam / u) / dT
            assert Q(lam) == pytest.approx(ref, abs=1e-10)

    def test_permutation_invariant_aggregate(self):
        lams = np.linspace(0.0, 0.3, 7)
        base = None
        for kappa in (identity_permutation(5), random_permutation(5, 1)):
            sched = chebyshev_schedule_singular(3.0, 10, 5, kappa)
            prod = np.prod(1.0 - np.outer(sched.alphas, lams), axis=0)
            if base is None:
                base = prod
            else:
                np.testing.assert_allclose(prod, base, atol=1e-10)

    def test_bad_spectrum(self):
        with pytest.raises(BadSpectrumError):
            chebyshev_schedule_singular(-1.0, 3, 2, [0, 1])


class TestStableOrderings:
    def test_are_permutations(self):
        for k in (1, 2, 3, 7, 16, 33, 100):
            assert sorted(stable_permutation(k)) == list(range(k))

    def test_interleaves_extremes(self):
        np.testing.assert_array_equal(stable_permutation(8), [0, 4, 2, 6, 1, 5, 3, 7])

    def test_policy_default_uses_stable_ordering(self):
        pol = ChebyshevPD(horizon=8, lambda_min=0.01, lambda_max=4.0, m=10)
        sched = pol.schedule()
        np.testing.assert_array_equal(sched.kappa, stable_permutation(8))

    def test_policy_accepts_explicit_permutation(self):
        pol = ChebyshevSingular(horizon=4, lambda_max=2.0, m=6, kappa=(3, 1, 0, 2))
        np.testing.assert_array_equal(pol.schedule().kappa, [3, 1, 0, 2])


class TestPolicies:
    def test_classic_range(self):
        with pytest.raises(ValueError):
            ClassicConstant(0.0)
        with pytest.raises(ValueError):
            ClassicConstant(2.0)

    def test_adaptive_delta_range(self):
        with pytest.raises(ValueError):
            Adaptive(0.0)
        with pytest.raises(ValueError):
            Adaptive(1.5)

    @pytest.mark.parametrize("policy,field", [
        (ClassicConstant(1.0), None),
        (ExtrapolatedConstant(lambda_max_block=2.0, delta=0.5), "rate_constant_stepsize"),
        (Adaptive(delta=0.5), "rate_adaptive"),
        (ChebyshevPD(horizon=4, lambda_min=0.5, lambda_max=2.0, m=4), None),
        (ChebyshevSingular(horizon=4, lambda_max=2.0, m=4), None),
    ], ids=["classic", "constant-extrapolated", "adaptive", "chebyshev-pd", "chebyshev-singular"])
    def test_theory_factor_asks_for_rates_only_where_its_theorem_reads_them(self, policy, field):
        # Only the constant and adaptive rates read lambda_max^block and W:
        # those factors call rates once, with their own delta.
        prediction = RatePrediction(0.1, 0.2, 0.3, 0.4, 0.5, 6.0, True, False)
        calls = []

        def rates(delta):
            calls.append(delta)
            return prediction

        factor = policy.theory_factor(normalized_system(4, 6, seed=0), rates)
        if field is None:
            assert calls == []
        else:
            assert calls == [0.5]
            assert factor == getattr(prediction, field)

    def test_schedule_json_roundtrip(self):
        sched = chebyshev_schedule_pd(0.5, 2.0, 4, 5, random_permutation(5, 2))
        back = ChebyshevSchedule.from_json(sched.to_json())
        np.testing.assert_allclose(back.alphas, sched.alphas)
        np.testing.assert_array_equal(back.kappa, sched.kappa)
        assert (back.ell, back.u) == (sched.ell, sched.u)

    @pytest.mark.parametrize("field,value", [
        ("ell", "0.5"), ("u", True), ("alphas", ["1.0", 2.0, 3.0, 4.0, 5.0]),
    ], ids=["string-ell", "bool-u", "string-alpha"])
    def test_schedule_json_numbers_are_strict(self, field, value):
        doc = json.loads(chebyshev_schedule_pd(0.5, 2.0, 4, 5, random_permutation(5, 2)).to_json())
        with pytest.raises(ValueError, match=field):
            ChebyshevSchedule.from_json(json.dumps(doc | {field: value}))


class TestRefusals:
    def test_negative_degree(self):
        with pytest.raises(ValueError, match="nonnegative"):
            chebyshev_eval(-1, 0.5)

    def test_roots_of_degree_zero(self):
        with pytest.raises(ValueError, match="at least 1"):
            chebyshev_roots(0)

    def test_empty_horizon_permutation(self):
        with pytest.raises(ValueError, match="at least 1"):
            stable_permutation(0)

    @pytest.mark.parametrize("build", [
        lambda: chebyshev_schedule_pd(0.5, 2.0, 4, 0, []),
        lambda: chebyshev_schedule_singular(2.0, 4, 0, []),
    ], ids=["pd", "singular"])
    def test_empty_horizon_schedule(self, build):
        with pytest.raises(ValueError, match="at least 1"):
            build()
