import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kaczlab.analysis as analysis
import kaczlab.sampling as sampling
from kaczlab.analysis import (
    EXACT_ENUMERATION,
    MONTE_CARLO,
    PARTITION_MAX,
    ConditioningReport,
    block_lambda_max,
    build_W,
    build_conditioning_report,
    paving_quality,
    predict_rates,
)
from kaczlab.errors import ConfigMismatchError, MissingSpectrumError, NotNormalizedError
from kaczlab.linalg import LinearSystem
from kaczlab.problems import CoherentRows, GaussianNormalized, generate_problem
from kaczlab.sampling import (
    Partition,
    UniformSubset,
    build_random_paving,
    enumerate_supports,
    frobenius_partition,
    full_batch,
    partition_spec,
    sample_block,
)
from kaczlab.stepsize import row_norm_sq_weights, uniform_weights


def e_rows_system():
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    return LinearSystem(A, A @ np.ones(2), normalized=True)


class TestBlockLambdaMax:
    def test_orthonormal_or_singleton_blocks(self):
        val, mode = block_lambda_max(e_rows_system(), partition_spec([(0, 1), (2,)]))
        assert val == pytest.approx(1.0)
        assert mode == PARTITION_MAX

    def test_duplicated_row_in_block(self):
        val, _ = block_lambda_max(e_rows_system(), partition_spec([(0, 2), (1,)]))
        assert val == pytest.approx(2.0)

    def test_identity_any_tau(self):
        system = LinearSystem(np.eye(5), np.ones(5), normalized=True)
        for tau in (1, 2, 4):
            val, mode = block_lambda_max(system, UniformSubset(5, tau))
            assert val == pytest.approx(1.0)
            assert mode == EXACT_ENUMERATION

    def test_range_for_normalized_systems(self):
        # 1 <= lambda_max^block <= tau, strictly below tau when every
        # support has rank >= 2.
        system = generate_problem(GaussianNormalized(7, 5, seed=0))
        spec = UniformSubset(7, 3)
        val, _ = block_lambda_max(system, spec)
        assert 1.0 - 1e-12 <= val <= 3.0 + 1e-12
        ranks = [np.linalg.matrix_rank(system.A[J]) for J, _ in enumerate_supports(spec)]
        assert min(ranks) >= 2
        assert val < 3.0

    def test_enumeration_matches_brute_force(self):
        system = generate_problem(GaussianNormalized(6, 4, seed=1))
        spec = UniformSubset(6, 2)
        val, mode = block_lambda_max(system, spec)
        brute = max(
            np.linalg.eigvalsh(system.A[J] @ system.A[J].T)[-1]
            for J, _ in enumerate_supports(spec)
        )
        assert mode == EXACT_ENUMERATION
        assert val == pytest.approx(brute, rel=1e-12)

    def test_monte_carlo_mode_is_lower_bound(self, monkeypatch):
        system = generate_problem(GaussianNormalized(8, 5, seed=2))
        spec = UniformSubset(8, 3)
        exact, _ = block_lambda_max(system, spec)
        monkeypatch.setattr(sampling, "ENUMERATION_CAP", 10)
        est, mode = block_lambda_max(system, spec, budget=25, seed=3)
        assert mode == MONTE_CARLO
        assert est <= exact + 1e-12

    def test_unnormalized_rows_are_rescaled(self):
        # The diag(1/||a_i||^2) factor makes the result scale-invariant.
        rng = np.random.default_rng(4)
        A = rng.standard_normal((5, 3))
        scaled = A * rng.uniform(0.5, 3.0, size=(5, 1))
        b = np.zeros(5)
        spec = UniformSubset(5, 2)
        v1, _ = block_lambda_max(LinearSystem(A, b), spec)
        v2, _ = block_lambda_max(LinearSystem(scaled, b), spec)
        assert v1 == pytest.approx(v2, rel=1e-10)


def _one_support_lambda_max(system, J):
    """One support at a time, the reference for the stacked evaluation."""
    B = system.A[J] / np.sqrt(system.row_norms_sq[J])[:, None]
    G = B @ B.T if len(J) <= system.n else B.T @ B
    return float(np.linalg.eigvalsh(G)[-1])


@pytest.mark.parametrize("case", ["exact-chunked", "tau-above-n", "ragged-partition", "sampled"])
def test_stacked_block_lambda_max_matches_one_support_loop(case, monkeypatch):
    system = _spread_rows_system(30, 12, seed=5)
    if case == "exact-chunked":  # C(30, 3) = 4060 supports: several chunks
        spec = UniformSubset(30, 3)
        supports = [J for J, _ in enumerate_supports(spec)]
    elif case == "tau-above-n":
        system = _spread_rows_system(16, 3, seed=6)
        spec = UniformSubset(16, 5)
        supports = [J for J, _ in enumerate_supports(spec)]
    elif case == "ragged-partition":
        spec = build_random_paving(2, 30, 7).to_spec()  # blocks of 5 and 4 rows
        supports = [np.asarray(blk) for blk in spec.blocks]
    else:
        monkeypatch.setattr(sampling, "ENUMERATION_CAP", 10)
        spec = UniformSubset(30, 4)
        rng = np.random.default_rng(9)
        supports = [sample_block(spec, rng) for _ in range(300)]
    val, _ = block_lambda_max(system, spec, budget=300, seed=9)
    expected = max(_one_support_lambda_max(system, J) for J in supports)
    if case == "sampled":
        expected = max(expected, 0.0)
    assert val == expected


def _spread_rows_system(m, n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n)) * rng.uniform(0.5, 2.0, size=(m, 1))
    return LinearSystem(A, A @ rng.standard_normal(n))


def _chunk_supports(monkeypatch, system, tau, supports_per_chunk):
    """Stacks of ``supports_per_chunk`` supports of tau rows of ``system``."""
    monkeypatch.setattr(analysis, "SUPPORT_CHUNK_BYTES",
                        supports_per_chunk * tau * system.n * system.A.itemsize)


@pytest.mark.parametrize("seed, per_chunk", [
    *(pytest.param(seed, 2, id=str(seed)) for seed in range(100, 120)),
    *(pytest.param(seed, per_chunk, id=f"{seed}-{name}") for seed in range(100, 120)
      for per_chunk, name in ((1, "one-support-chunks"), (7, "stacked")))])
def test_pruning_keeps_the_maximum_of_duplicated_rows(seed, per_chunk, monkeypatch):
    """Three copies each of three rows, rescaled: a support of one row's
    copies has the all-ones Gram, whose Gershgorin bound is its lambda_max
    (3), and the computed values of such supports differ in their last
    bits.  In stacks of two supports, pruning on the bound with no margin,
    or pruning ties, drops one of them.  In stacks of one or seven, a
    Cholesky certificate below the running value itself, or above it,
    passes a later tie that is larger by an ulp or two."""
    rng = np.random.default_rng(seed)
    A = np.repeat(rng.standard_normal((3, 4)), 3, axis=0) * rng.uniform(0.5, 2.0, size=(9, 1))
    system = LinearSystem(A, A @ np.ones(4))
    _chunk_supports(monkeypatch, system, 3, per_chunk)
    spec = UniformSubset(9, 3)
    val, _ = block_lambda_max(system, spec)
    assert val == max(_one_support_lambda_max(system, J) for J, _ in enumerate_supports(spec))
    assert val == pytest.approx(3.0, rel=1e-14)


@pytest.mark.parametrize("case", ["late-winner", "tau-above-n", "one-support-chunks"])
def test_pruned_block_lambda_max_matches_one_support_loop(case, monkeypatch):
    if case == "late-winner":
        # Rows 28 and 29 nearly parallel: the last support wins, in the
        # last of many stacks of ten.
        A = np.random.default_rng(5).standard_normal((30, 12))
        A[29] = 1.7 * A[28] + 1e-3 * A[0]
        system = LinearSystem(A, A @ np.ones(12))
        spec, per_chunk = UniformSubset(30, 2), 10
    elif case == "tau-above-n":
        system = _spread_rows_system(16, 3, seed=6)
        spec, per_chunk = UniformSubset(16, 5), 7
    else:
        system = _spread_rows_system(12, 5, seed=8)
        spec, per_chunk = UniformSubset(12, 3), 1
    _chunk_supports(monkeypatch, system, spec.tau, per_chunk)
    supports = [J for J, _ in enumerate_supports(spec)]
    values = [_one_support_lambda_max(system, J) for J in supports]
    if case == "late-winner":
        assert np.argmax(values) == len(supports) - 1
    val, _ = block_lambda_max(system, spec)
    assert val == max(values)


def test_block_lambda_max_eigensolves_few_supports(monkeypatch):
    """On a 50x20 system with uniform 3-subsets (mc-small's shape) the
    bound rules out all but a few hundred of the C(50, 3) = 19,600
    supports; solving every one would count 19,600."""
    system = generate_problem(GaussianNormalized(50, 20, seed=2))
    spec = UniformSubset(50, 3)
    expected = max(_one_support_lambda_max(system, J) for J, _ in enumerate_supports(spec))
    eigvalsh, solved = np.linalg.eigvalsh, []

    def counting(G):
        solved.append(len(G))
        return eigvalsh(G)
    monkeypatch.setattr(analysis.np.linalg, "eigvalsh", counting)
    val, mode = block_lambda_max(system, spec)
    assert mode == EXACT_ENUMERATION
    assert val == expected
    assert sum(solved) < 1000


def test_certificate_eigensolves_few_one_support_chunks(monkeypatch):
    """Supports of 64 rows of a 300x600 system take a stack each, where no
    Gershgorin bound is taken: the Cholesky certificate rules out all but
    a few of 200 sampled supports, and the maximum keeps its bits."""
    system = _spread_rows_system(300, 600, seed=11)
    spec = UniformSubset(300, 64)
    assert 64 * system.n * system.A.itemsize > analysis.SUPPORT_CHUNK_BYTES
    ((_, stacks),), _ = spec.support_groups(200, seed=3)
    expected = max(_one_support_lambda_max(system, J) for stack in stacks for J in stack)
    eigvalsh, solved = np.linalg.eigvalsh, []

    def counting(G):
        solved.append(len(G))
        return eigvalsh(G)
    monkeypatch.setattr(analysis.np.linalg, "eigvalsh", counting)
    val, mode = block_lambda_max(system, spec, budget=200, seed=3)
    assert mode == MONTE_CARLO
    assert val == expected
    assert sum(solved) < 30


def test_certificate_needs_every_factorization_and_a_finite_one(monkeypatch):
    I = np.eye(3)
    assert analysis._certified_below(np.stack([I, 0.5 * I]), 1.5)
    assert not analysis._certified_below(np.stack([I, 2.0 * I]), 1.5)  # one fails
    assert not analysis._certified_below(I[None], 1.0)  # a tie
    nan = I.copy()
    nan[2, 2] = np.nan  # factored through by OpenBLAS, with no error
    assert not analysis._certified_below(nan[None], 1.5)
    assert not analysis._certified_below(I[None], -math.inf)  # nothing solved yet
    monkeypatch.setattr(analysis, "CERTIFIED_GRAM_SIZE", 2)
    assert not analysis._certified_below(0.5 * I[None], 1.5)  # above the covered order


def test_laws_are_values_and_systems_compare_by_identity():
    """Partitions that compare equal hash equal, so a 0.0 and a -0.0 block
    probability share one cached lambda_max^block; a system holding arrays
    compares by identity instead of raising."""
    system = e_rows_system()
    a = Partition(((0,), (1,), (2,)), [0.5, 0.5, 0.0])
    b = Partition(((0,), (1,), (2,)), [0.5, 0.5, -0.0])
    assert a == b and hash(a) == hash(b) and {a: 1}.get(b) == 1
    assert block_lambda_max(system, b) is block_lambda_max(system, a)
    assert sum(key[0] == "block_lambda_max" for key in system.cache) == 1
    assert (LinearSystem(system.A, system.b) == LinearSystem(system.A, system.b)) is False
    assert system == system


@pytest.mark.parametrize("law", [UniformSubset(5, 2), partition_spec([(0, 1), (2, 3)]),
                                 UniformSubset(12, 3)],
                         ids=["uniform-5", "partition-4", "uniform-12"])
@pytest.mark.parametrize("read", [block_lambda_max, build_W,
                                  lambda system, spec: row_norm_sq_weights(spec, system)],
                         ids=["block_lambda_max", "build_W", "row_norm_sq_weights"])
def test_a_law_over_other_rows_is_refused(read, law):
    # A law drawn from 5, 4 or 12 rows does not describe a 10-row system:
    # read through it, the system would give a value for other rows, or an
    # IndexError or a broadcast error.
    system = generate_problem(GaussianNormalized(10, 4, seed=1))
    with pytest.raises(ConfigMismatchError, match=f"covers {law.m} rows but the system has 10"):
        read(system, law)


def _drawn_spec(data, system):
    """A uniform law, a partition of mixed block sizes with one block never
    drawn, or a frobenius-weighted partition, on the rows of ``system``."""
    m = system.m
    form = data.draw(st.sampled_from(["uniform", "partition", "frobenius"]), label="form")
    if form == "uniform":
        return UniformSubset(m, data.draw(st.integers(1, m), label="tau"))
    rows = data.draw(st.permutations(range(m)), label="rows")
    cuts = sorted(data.draw(st.sets(st.integers(1, m - 1), min_size=1), label="cuts"))
    blocks = [rows[a:b] for a, b in zip([0, *cuts], [*cuts, m])]
    if form == "frobenius":
        return frobenius_partition(system, blocks)
    w = np.array(data.draw(st.lists(st.floats(0.1, 1.0), min_size=len(blocks),
                                    max_size=len(blocks)), label="w"))
    w[data.draw(st.integers(0, len(blocks) - 1), label="never drawn")] = 0.0
    return partition_spec(blocks, w / w.sum())


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(data=st.data())
def test_reports_on_a_shared_system_equal_reports_on_fresh_copies(data):
    # A system's cache keeps one W and one lambda_max^block at a time; a
    # report built after other laws' reports has the bits of one built on a
    # fresh copy of the system.
    m, n = data.draw(st.integers(2, 30), label="m"), data.draw(st.integers(1, 12), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    A = rng.standard_normal((m, n)) * rng.uniform(0.5, 2.0, size=m)[:, None]
    system = LinearSystem(A, A @ rng.standard_normal(n))
    for _ in range(data.draw(st.integers(2, 4), label="specs")):
        spec = _drawn_spec(data, system)
        seed = data.draw(st.integers(0, 1), label="lambda seed")
        shared = build_conditioning_report(system, spec, budget=20, seed=seed)
        fresh = build_conditioning_report(LinearSystem(A, system.b), spec, budget=20, seed=seed)
        for field in dataclasses.fields(ConditioningReport):
            a, b = getattr(shared, field.name), getattr(fresh, field.name)
            assert np.array_equal(a, b) if field.name == "W" else repr(a) == repr(b), field.name


class TestBuildW:
    def test_identity_tau_one(self):
        system = LinearSystem(np.eye(2), np.ones(2), normalized=True)
        np.testing.assert_allclose(build_W(system, UniformSubset(2, 1)), 0.5 * np.eye(2))

    def test_full_batch_gives_gram(self):
        system = generate_problem(GaussianNormalized(6, 3, seed=5))
        W = build_W(system, full_batch(6))
        np.testing.assert_allclose(W, system.A.T @ system.A, atol=1e-12)

    def test_enumeration_oracle(self):
        system = generate_problem(GaussianNormalized(3, 3, seed=6))
        spec = UniformSubset(3, 2)
        W = build_W(system, spec)
        ref = np.zeros((3, 3))
        for J, p in enumerate_supports(spec):
            for i in J:
                a = system.A[i]
                ref += p * np.outer(a, a) / (a @ a)
        np.testing.assert_allclose(W, ref, atol=1e-12)

    def test_trace_equals_probability_mass(self):
        # trace(W) = sum_i p_i: each normalized outer product carries
        # trace p_i.
        system = generate_problem(GaussianNormalized(7, 4, seed=7))
        for spec in (UniformSubset(7, 3), partition_spec([(0, 1, 2), (3, 4), (5, 6)])):
            W = build_W(system, spec)
            expected = sum(p * len(J) for J, p in enumerate_supports(spec))
            assert np.trace(W) == pytest.approx(expected, abs=1e-10)
            assert np.linalg.eigvalsh(W)[0] >= -1e-10  # PSD


class TestPredictRates:
    def test_identity_tau_one_rate(self):
        system = LinearSystem(np.eye(2), np.ones(2), normalized=True)
        spec = UniformSubset(2, 1)
        report = build_conditioning_report(system, spec)
        rates = predict_rates(report, uniform_weights(spec), delta=1.0, tau=1)
        assert rates.rate_constant_stepsize == pytest.approx(0.5)
        assert rates.rate_basic == pytest.approx(0.5)

    def test_constant_equals_adaptive_for_uniform_weights(self):
        system = generate_problem(GaussianNormalized(8, 4, seed=8))
        spec = partition_spec([(0, 1, 2, 3), (4, 5, 6, 7)])
        report = build_conditioning_report(system, spec)
        rates = predict_rates(report, uniform_weights(spec), delta=1.0, tau=4)
        assert rates.rate_constant_stepsize == pytest.approx(rates.rate_adaptive, rel=1e-12)
        assert 0.0 <= rates.rate_constant_stepsize < 1.0

    def test_flat_spectrum_cheb_factor_zero(self):
        rng = np.random.default_rng(9)
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        system = LinearSystem(Q, np.zeros(4), normalized=True)
        report = build_conditioning_report(system, UniformSubset(4, 1))
        rates = predict_rates(report, uniform_weights(UniformSubset(4, 1)), 1.0, 1)
        assert rates.cheb_factor == pytest.approx(0.0, abs=1e-8)

    def test_speedup_and_diversity(self):
        system = generate_problem(GaussianNormalized(40, 20, seed=10))
        spec = UniformSubset(40, 4)
        report = build_conditioning_report(system, spec, budget=50, seed=0)
        rates = predict_rates(report, uniform_weights(spec), 1.0, 4)
        assert rates.speedup_vs_basic == pytest.approx(4.0 / report.lambda_max_block)
        assert rates.diversity_ok == (report.spectral_sq < 40 / (6 * math.log(41)))

    def test_report_serializes(self):
        import json

        system = generate_problem(GaussianNormalized(5, 3, seed=11))
        report = build_conditioning_report(system, UniformSubset(5, 2))
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["rows"] == 5
        assert doc["lambda_max_block_mode"] == EXACT_ENUMERATION


class TestPavingQuality:
    def test_identity_satisfied(self):
        m = 12
        system = LinearSystem(np.eye(m), np.ones(m), normalized=True)
        quality = paving_quality(system, build_random_paving(0, m, 3))
        assert quality.lambda_max_block == pytest.approx(1.0)
        assert quality.bound == pytest.approx(6 * math.log(1 + m))
        assert quality.satisfied

    def test_identical_rows_give_block_size(self):
        system = generate_problem(CoherentRows(9, 4, coherence=1.0, seed=12))
        paving = build_random_paving(1, 9, 3)
        quality = paving_quality(system, paving)
        assert quality.lambda_max_block == pytest.approx(3.0, rel=1e-10)

    def test_identical_rows_can_violate_bound(self):
        system = generate_problem(CoherentRows(100, 4, coherence=1.0, seed=13))
        quality = paving_quality(system, build_random_paving(2, 100, 2))
        assert quality.lambda_max_block == pytest.approx(50.0, rel=1e-10)
        assert not quality.satisfied

    def test_requires_normalized(self):
        system = LinearSystem(2 * np.eye(4), np.ones(4))
        with pytest.raises(NotNormalizedError):
            paving_quality(system, build_random_paving(0, 4, 2))

    def test_cache_keeps_one_paving(self):
        # Random pavings seldom repeat: the system's cache keeps the latest
        # one's lambda_max^block, not every paving's arrays.
        m = 12
        system = LinearSystem(np.eye(m), np.ones(m), normalized=True)
        for seed in range(20):
            paving_quality(system, build_random_paving(seed, m, 3))
        assert sum(key[0] == "block_lambda_max" for key in system.cache) == 1

    def test_log2_reference_reported(self):
        system = LinearSystem(np.eye(8), np.ones(8), normalized=True)
        quality = paving_quality(system, build_random_paving(3, 8, 2))
        assert quality.bound_log2 == pytest.approx(6 * math.log2(9))
        assert quality.bound < quality.bound_log2


@pytest.mark.parametrize("field", ["lambda_max_block", "lambda_max_AAt"])
def test_predict_rates_refuses_an_incomplete_report(field):
    system = generate_problem(GaussianNormalized(8, 4, seed=8))
    spec = UniformSubset(8, 2)
    report = dataclasses.replace(build_conditioning_report(system, spec), **{field: math.nan})
    with pytest.raises(MissingSpectrumError, match="incomplete"):
        predict_rates(report, uniform_weights(spec), 1.0, 2)
