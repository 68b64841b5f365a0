import itertools
import json
from collections import Counter
from math import comb

import numpy as np
import pytest

from kaczlab import sampling
from kaczlab.analysis import block_lambda_max
from kaczlab.errors import BadBlockCountError, TooLargeError
from kaczlab.linalg import LinearSystem
from kaczlab.sampling import (
    DRAW_AHEAD,
    PARTITION_MAX,
    BlockStream,
    Partition,
    UniformSubset,
    WordSource,
    build_random_paving,
    enumerate_supports,
    frobenius_partition,
    full_batch,
    mean_block_size,
    membership_probability,
    partition_spec,
    paving_from_json,
    paving_to_json,
    replay_choice,
    sample_block,
    sampling_from_dict,
    support_count,
)
from kaczlab.engine import Trials
from kaczlab.problems import GaussianNormalized, generate_problem
from kaczlab.solver import SolverConfig
from kaczlab.stepsize import ClassicConstant, explicit_weights, uniform_weights, weights_from_dict


class TestSpecValidation:
    def test_uniform_tau_bounds(self):
        with pytest.raises(ValueError):
            UniformSubset(4, 0)
        with pytest.raises(ValueError):
            UniformSubset(4, 5)

    def test_partition_must_cover(self):
        with pytest.raises(ValueError):
            partition_spec([(0, 1), (3,)])  # index 2 missing

    def test_partition_probs_sum(self):
        with pytest.raises(ValueError):
            Partition(((0,), (1,)), np.array([0.6, 0.6]))

    def test_partition_needs_one_probability_per_block(self):
        with pytest.raises(ValueError, match="one probability per block required"):
            Partition(((0,), (1,), (2,)), [0.5, 0.5])

    def test_partition_blocks_nonempty(self):
        with pytest.raises(ValueError, match="at least one row"):
            Partition(((0, 1), ()), [0.5, 0.5])


class TestSampleBlock:
    def test_full_support_degenerate(self):
        rng = np.random.default_rng(0)
        spec = UniformSubset(5, 5)
        for _ in range(10):
            np.testing.assert_array_equal(sample_block(spec, rng), np.arange(5))

    def test_degenerate_partition_probability(self):
        spec = Partition(((0, 1), (2, 3)), np.array([1.0, 0.0]))
        rng = np.random.default_rng(1)
        for _ in range(20):
            np.testing.assert_array_equal(sample_block(spec, rng), [0, 1])

    def test_uniform_pairs_have_equal_frequency(self):
        # All 6 pairs of [4] should appear with frequency 1/6 +- 0.01.
        spec = UniformSubset(4, 2)
        rng = np.random.default_rng(123)
        counts = Counter(tuple(sample_block(spec, rng)) for _ in range(10**5))
        assert set(counts) == set(itertools.combinations(range(4), 2))
        for pair in counts:
            assert abs(counts[pair] / 10**5 - 1 / 6) < 0.01

    def test_partition_frequencies_match_probs(self):
        spec = Partition(((0,), (1, 2), (3, 4, 5)), np.array([0.5, 0.3, 0.2]))
        rng = np.random.default_rng(7)
        counts = Counter(len(sample_block(spec, rng)) for _ in range(10**5))
        np.testing.assert_allclose(
            [counts[1] / 10**5, counts[2] / 10**5, counts[3] / 10**5],
            [0.5, 0.3, 0.2],
            atol=0.01,
        )


class TestMembershipProbability:
    def test_uniform_formula(self):
        spec = UniformSubset(4, 2)
        for i in range(4):
            assert membership_probability(spec, i) == pytest.approx(0.5)

    def test_equal_partition(self):
        spec = partition_spec([(0, 1), (2, 3), (4, 5)])
        for i in range(6):
            assert membership_probability(spec, i) == pytest.approx(1 / 3)

    def test_frobenius_probs_on_normalized_equal_blocks(self):
        # With unit rows and equal block sizes tau, Frobenius probabilities
        # collapse to tau/m, the same as the uniform choice.
        rng = np.random.default_rng(5)
        A = rng.standard_normal((6, 4))
        A /= np.linalg.norm(A, axis=1)[:, None]
        system = LinearSystem(A, A @ np.ones(4), normalized=True)
        spec = frobenius_partition(system, [(0, 1), (2, 3), (4, 5)])
        for i in range(6):
            assert membership_probability(spec, i) == pytest.approx(2 / 6, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            membership_probability(UniformSubset(4, 2), 4)
        with pytest.raises(IndexError):
            membership_probability(partition_spec([(0, 1)]), -1)


def test_mean_block_size():
    assert mean_block_size(UniformSubset(9, 1)) == 1.0
    assert mean_block_size(UniformSubset(9, 4)) == 4.0
    assert mean_block_size(partition_spec([(i,) for i in range(5)])) == 1.0
    assert mean_block_size(partition_spec([(0,), (1,), (2, 3)])) == 4 / 3
    assert mean_block_size(full_batch(6)) == 6.0


def test_partition_mean_block_size_is_expected_drawn_size():
    # sum_l p_l |J_l|: a block of probability 0 is never drawn, so every
    # drawn block of the first law has one row.
    assert mean_block_size(Partition(((0,), (1, 2)), [1.0, 0.0])) == 1.0
    assert mean_block_size(Partition(((0,), (1, 2)), [0.25, 0.75])) == 1.75
    assert mean_block_size(Partition(((0, 1), (2, 3), (4, 5, 6)), [0.5, 0.5, 0.0])) == 2.0


class TestEnumerateSupports:
    def test_all_pairs_of_three(self):
        supports = enumerate_supports(UniformSubset(3, 2))
        assert [tuple(J) for J, _ in supports] == [(0, 1), (0, 2), (1, 2)]
        np.testing.assert_allclose([p for _, p in supports], [1 / 3] * 3)

    def test_partition_passthrough(self):
        spec = Partition(((0,), (1,)), np.array([0.3, 0.7]))
        supports = enumerate_supports(spec)
        assert [tuple(J) for J, _ in supports] == [(0,), (1,)]
        np.testing.assert_allclose([p for _, p in supports], [0.3, 0.7])

    def test_cap(self):
        assert support_count(UniformSubset(50, 10)) == comb(50, 10)
        with pytest.raises(TooLargeError):
            enumerate_supports(UniformSubset(50, 10))

    @pytest.mark.parametrize(
        "spec",
        [
            UniformSubset(6, 2),
            UniformSubset(5, 3),
            partition_spec([(0, 2), (1, 4), (3, 5)]),
            Partition(((0, 1, 2), (3,)), np.array([0.25, 0.75])),
        ],
    )
    def test_expectation_identity(self, spec):
        # E sum_{i in J} theta_i = sum_i p_i theta_i, exactly.
        rng = np.random.default_rng(17)
        supports = enumerate_supports(spec)
        assert sum(p for _, p in supports) == pytest.approx(1.0, abs=1e-12)
        for _ in range(5):
            theta = rng.standard_normal(spec.m)
            lhs = sum(p * theta[J].sum() for J, p in supports)
            rhs = sum(membership_probability(spec, i) * theta[i] for i in range(spec.m))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    @pytest.mark.parametrize("spec", [UniformSubset(6, 3), partition_spec([(0, 1), (2, 3, 4)])])
    def test_expected_block_size(self, spec):
        supports = enumerate_supports(spec)
        esize = sum(p * len(J) for J, p in supports)
        psum = sum(membership_probability(spec, i) for i in range(spec.m))
        assert esize == pytest.approx(psum, abs=1e-12)


class TestPaving:
    def test_even_split(self):
        paving = build_random_paving(0, 6, 3)
        assert sorted(len(blk) for blk in paving.blocks) == [2, 2, 2]
        assert sorted(i for blk in paving.blocks for i in blk) == list(range(6))

    def test_near_equal_split(self):
        paving = build_random_paving(0, 5, 2)
        assert sorted(len(blk) for blk in paving.blocks) == [2, 3]

    def test_single_block(self):
        paving = build_random_paving(0, 4, 1)
        assert paving.blocks == (tuple(range(4)),)

    def test_bad_block_count(self):
        with pytest.raises(BadBlockCountError):
            build_random_paving(0, 4, 5)

    def test_fixed_seed_reproducible(self):
        assert build_random_paving(99, 20, 4) == build_random_paving(99, 20, 4)

    def test_position_frequencies_uniform(self):
        # Each index should land in each block with near-uniform frequency
        # across seeds (permutation uniformity).
        m, ell, trials = 6, 3, 10**5
        rng = np.random.default_rng(0)
        # build_random_paving consumes an integer seed; draw them in bulk.
        seeds = rng.integers(0, 2**63, size=trials)
        # Each trial's rows in block order; every paving of m rows into ell
        # blocks cuts the same sizes, so position p lies in block[p].
        rows = np.array([[i for blk in build_random_paving(int(s), m, ell).blocks for i in blk]
                         for s in seeds])
        block = np.repeat(np.arange(ell), [len(blk) for blk in build_random_paving(0, m, ell).blocks])
        counts = np.bincount((rows * ell + block).ravel(), minlength=m * ell).reshape(m, ell)
        np.testing.assert_allclose(counts / trials, 1 / ell, atol=0.02)

    def test_json_roundtrip_one_based(self):
        paving = build_random_paving(7, 9, 2)
        text = paving_to_json(paving)
        assert paving_from_json(text) == paving
        # On-disk indices are 1-based.
        import json

        doc = json.loads(text)
        flat = sorted(i for blk in doc["blocks"] for i in blk)
        assert flat == list(range(1, 10))

    @pytest.mark.parametrize("doc,field", [
        ({"ell": 2.7, "seed": 1, "blocks": [[1, 2], [3]]}, "ell"),
        ({"ell": "2", "seed": 1, "blocks": [[1, 2], [3]]}, "ell"),
        ({"ell": 2, "seed": 1.5, "blocks": [[1, 2], [3]]}, "seed"),
        ({"ell": 2, "seed": 1, "blocks": [[1.9, 2], [3]]}, "blocks"),
        ({"ell": 2, "seed": 1, "blocks": [[True, 2], [3]]}, "blocks"),
        ({"ell": 5, "seed": 1, "blocks": [[1, 2], [3]]}, "ell"),
    ], ids=["fractional-ell", "string-ell", "fractional-seed", "fractional-row", "bool-row",
            "ell-not-block-count"])
    def test_json_numbers_are_strict(self, doc, field):
        with pytest.raises(ValueError, match=field):
            paving_from_json(json.dumps(doc))


_BLOCKS = [[0, 1], [2, 3]]


@pytest.mark.parametrize("doc,field", [
    ({"kind": "partition", "blocks": [[0.9, 1.7], [2, 3]], "probs": [0.5, 0.5]}, "blocks"),
    ({"kind": "partition", "blocks": [[0, True], [2, 3]], "probs": [0.5, 0.5]}, "blocks"),
    ({"kind": "partition", "blocks": [["0", 1], [2, 3]], "probs": [0.5, 0.5]}, "blocks"),
    ({"kind": "partition", "blocks": _BLOCKS, "probs": ["0.5", 0.5]}, "probs"),
    ({"kind": "partition", "blocks": _BLOCKS, "probs": [True, False]}, "probs"),
    ({"kind": "explicit", "values": ["1", 1.0, 2.0, 3]}, "values"),
    ({"kind": "explicit", "values": [1, True, 2.0, 3]}, "values"),
], ids=["fractional-row", "bool-row", "string-row", "string-prob", "bool-probs",
        "string-weight", "bool-weight"])
def test_partition_and_explicit_weight_numbers_are_strict(doc, field):
    A = np.arange(1.0, 9.0).reshape(4, 2)
    system = LinearSystem(A, A @ np.ones(2))
    with pytest.raises(ValueError, match=field):
        if doc["kind"] == "partition":
            sampling_from_dict(doc)
        else:
            weights_from_dict(doc, partition_spec(_BLOCKS), system)


def test_zero_probability_blocks_set_no_bounds():
    # Block (2, 3) is never drawn: its weight 9/10 and its collinear-ish
    # rows (lambda_max 2 after normalization) must not count.
    spec = Partition(((0, 1), (2, 3)), [1.0, 0.0])
    weights = explicit_weights([1, 1, 1, 9], spec)
    assert (weights.omega_min, weights.omega_max) == (0.5, 0.5)
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1e-3]])
    system = LinearSystem(A, A @ np.ones(2))
    assert block_lambda_max(system, spec) == (pytest.approx(1.0, rel=1e-12), PARTITION_MAX)


def test_full_batch_is_single_block():
    spec = full_batch(4)
    assert spec.blocks == (tuple(range(4)),)
    assert membership_probability(spec, 2) == pytest.approx(1.0)


def _state(rng: np.random.Generator) -> str:
    return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist)


def _states(words: WordSource) -> list[str]:
    """Every generator's full state, its buffer included, read by ``call``."""
    return [words.call(t, _state) for t in range(len(words))]


def _advanced(seed, draws: int) -> np.random.Generator:
    """``default_rng(seed)`` after ``draws`` uint32 draws."""
    rng = np.random.default_rng(seed)
    rng.integers(1 << 32, size=draws, dtype=np.uint32)
    return rng


def _half(rng: np.random.Generator) -> None:
    """One uint32 draw: a PCG64 generator then holds the other half of its
    64-bit word."""
    rng.integers(1 << 32, dtype=np.uint32)


def _source(bit_generator, seeds) -> WordSource:
    """A word source whose generators are ``Generator(bit_generator(seed))``:
    its own PCG64 ones, or fresh ones (empty buffers, as the source's own
    start) put in their place."""
    words = WordSource(seeds)
    if bit_generator is not np.random.PCG64:
        words.rngs = [np.random.Generator(bit_generator(seed)) for seed in seeds]
    return words


@pytest.mark.parametrize("bit_generator", [np.random.PCG64])
@pytest.mark.parametrize("m,tau,counts", [
    (50, 3, (3, 40)),
    (2000, 8, (3, 40)),
    (2000, 64, (3, 40)),
    (5, 5, (3, 40)),  # tau = m: Floyd's j = 0 draws nothing
    (64, 64, (3, 40)),
    (2**31, 3, (3, 40)),
    (12000, 3, (3, 40)),  # m > 10000 but tau <= m // 50: still Floyd's
    (10001, 300, (2, 3)),  # tau > m // 50: a tail shuffle, drawn by choice
    # Two of Floyd's three bounds just above 2**31: Lemire rejects about
    # half their draws, and a generator that rejects draws a further word
    # for each rejection.
    (2**31 + 2, 3, (1, 6)),
    # A pass holds fewer than 40 calls: drawn by choice.
    (2000, 300, (3, 40)),
    (2000, 1000, (3, 40)),
    (2**33 + 1, 3, (1, 4)),  # m > 2**32: 64-bit words, drawn by choice
], ids=["50-3", "2000-8", "2000-64", "5-5", "64-64", "2^31-3", "12000-3", "tail-shuffle",
        "rejecting", "2000-300", "2000-1000", "2^33+1-3"])
def test_uniform_draws_replay_choice(m, tau, counts, bit_generator):
    # Two consecutive batches: every value, in choice's order, and every
    # generator's state afterwards are those of per-call choice.
    seeds = [[7, t] for t in range(6)]
    ref = [np.random.Generator(bit_generator(seed)) for seed in seeds]
    words = _source(bit_generator, seeds)
    plain = [_advanced(seed, counts[0] * (2 * tau - 1 - (tau == m))) for seed in seeds]
    for batch, count in enumerate(counts):
        expected = np.array([[rng.choice(m, size=tau, replace=False) for rng in ref]
                             for _ in range(count)])
        got = replay_choice(words, m, tau, count)
        assert got.shape == (count, 6, tau) and np.array_equal(got, expected)
        assert _states(words) == [_state(rng) for rng in ref]
        if batch == 0 and m == 2**31 + 2:
            # The stack mixes generators that rejected (drew more than
            # 2 tau - 1 words a call) with ones that did not.
            rejected = [_state(a) != _state(b) for a, b in zip(ref, plain)]
            assert any(rejected) and not all(rejected)


def test_sampled_supports_replay_choice(monkeypatch):
    # block_lambda_max's sampled supports, drawn 7 a call: choice's values
    # in choice's (unsorted) order.
    monkeypatch.setattr(sampling, "ENUMERATION_CAP", 10)
    monkeypatch.setattr(sampling, "AHEAD_VALUES", 7 * 4)
    ((size, supports),), mode = UniformSubset(30, 4).support_groups(20, seed=9)
    rng = np.random.default_rng(9)
    assert size == 4 and mode == sampling.MONTE_CARLO
    assert [J.tolist() for J in supports] == [rng.choice(30, size=4, replace=False).tolist()
                                              for _ in range(20)]


@pytest.mark.parametrize("spec", [
    UniformSubset(9, 1),
    UniformSubset(9, 3),
    UniformSubset(2**31, 3),
    UniformSubset(2**31 + 2, 3),  # most draws reject
    partition_spec([(0, 1, 2), (3, 4), (5, 6, 7, 8)], [0.5, 0.2, 0.3]),
    # Every drawable block has 4 rows; the wider one is never drawn.
    partition_spec([range(i, i + 4) for i in range(0, 24, 4)] + [range(24, 30)],
                   [1 / 6] * 6 + [0.0]),
], ids=["tau1", "tau3", "tau3-m2^31", "tau3-rejecting", "ragged-partition", "one-drawn-size"])
def test_block_stream_replays_sample_block(spec):
    # Three trials drawn in lockstep, past one draw-ahead chunk, with trial 1
    # leaving the stack half-way: every draw is the one sample_block makes
    # from that trial's own generator.
    steps = DRAW_AHEAD + 40
    seeds = [11, 12, 13]
    refs = [np.random.default_rng(seed) for seed in seeds]
    stream = BlockStream(spec, seeds, steps)
    live = [0, 1, 2]
    for k in range(steps):
        if k == steps // 2:
            stream.keep(np.array([True, False, True]))
            live = [0, 2]
        draw = stream.next()
        for pos, t in enumerate(live):
            assert np.array_equal(stream.block(draw[pos]), sample_block(spec, refs[t]))
        rows = {}
        for trials, J in stream.groups(draw):
            for pos, j in zip(range(len(live)) if trials is None else trials, J):
                rows[pos] = j
        assert all(np.array_equal(rows[pos], stream.block(draw[pos])) for pos in range(len(live)))


@pytest.mark.parametrize("spec", [
    UniformSubset(9, 1),
    UniformSubset(9, 3),
    partition_spec([(0, 1, 2), (3, 4), (5, 6, 7, 8)], [0.5, 0.2, 0.3]),
], ids=["tau1", "tau3", "ragged-partition"])
def test_one_generator_stream_draws_without_trial_axis(spec):
    # A one-trial run's stream: each draw, and its one group, is that
    # trial's draw alone, past one draw-ahead chunk.
    steps = DRAW_AHEAD + 40
    ref = np.random.default_rng(21)
    stream = BlockStream(spec, [21], steps)
    for _ in range(steps):
        draw = stream.next()
        J = sample_block(spec, ref)
        assert np.array_equal(stream.block(draw), J)
        ((trials, rows),) = stream.groups(draw)
        assert trials is None and np.array_equal(rows, J)


def test_uniform_stream_draws_fewer_steps_under_the_value_cap(monkeypatch):
    # 3 trials of 4 rows and a cap of 60 indices: 5 steps a call.
    monkeypatch.setattr(sampling, "AHEAD_VALUES", 60)
    spec, seeds = UniformSubset(20, 4), [3, 4, 5]
    assert len(spec.draws(WordSource(seeds), DRAW_AHEAD)) == 5
    refs = [np.random.default_rng(seed) for seed in seeds]
    stream = BlockStream(spec, seeds, 12)
    for _ in range(12):
        assert np.array_equal(stream.next(), [sample_block(spec, rng) for rng in refs])


@pytest.mark.parametrize("bit_generator", [np.random.PCG64])
@pytest.mark.parametrize("m", [1, 2, 20, 2000, 2**31 + 2, 3 * 2**30 + 7, 2**32, 2**32 + 5])
def test_word_source_draws_what_integers_draws(m, bit_generator):
    # One-row draws from a word source: three generators that hold a
    # buffered half and three that do not, chained calls of odd and even
    # counts.  Every value, and every full generator state (read by
    # ``call``, which the next call's draws continue from), is that of
    # per-call integers(m, size=count).  Above 2**31 Lemire rejects about a
    # quarter (3 2**30 + 7) or half (2**31 + 2) of the words; above 2**32
    # integers draws 64-bit words, called through ``call``.
    spec = UniformSubset(m, 1)
    for counts in [(3, 8), (8, 5), (1, 1), (256, 33), (5, 2, 7)]:
        seeds = [[3, t] for t in range(6)]
        ref = [np.random.Generator(bit_generator(seed)) for seed in seeds]
        words = _source(bit_generator, seeds)
        for t in range(3):
            _half(ref[t])
            words.call(t, _half)
        for count in counts:
            got = spec.draws(words, count)
            expected = np.stack([rng.integers(m, size=count) for rng in ref], axis=1)
            assert got.shape == (count, 6, 1) and np.array_equal(got[..., 0], expected)
            assert _states(words) == [_state(rng) for rng in ref]


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.Philox])
@pytest.mark.parametrize("m", [20, 3 * 2**30 + 7, 2**32])
def test_call_hands_the_buffer_to_the_generator(m, bit_generator):
    # The source keeps each generator's buffered half itself while it
    # draws; ``call`` writes it to the generator's state, which then is that
    # of per-call integers, and the source's draws carry on from there.
    # Philox buffers its uint32 halves as PCG64 does (has_uint32,
    # uinteger): a source on Philox generators shows that the draws use no
    # more of PCG64 than that buffer and its raw words.
    spec = UniformSubset(m, 1)
    seeds = [[4, t] for t in range(4)]
    ref = [np.random.Generator(bit_generator(seed)) for seed in seeds]
    words = _source(bit_generator, seeds)
    for count in (5, 2, 7):
        expected = np.stack([rng.integers(m, size=count) for rng in ref], axis=1)
        assert np.array_equal(spec.draws(words, count)[..., 0], expected)
    assert _states(words) == [_state(rng) for rng in ref]
    assert np.array_equal(spec.draws(words, 3)[..., 0],
                          np.stack([rng.integers(m, size=3) for rng in ref], axis=1))


@pytest.mark.parametrize("spec,cap", [
    (UniformSubset(9, 1), None),
    (UniformSubset(3 * 2**30 + 7, 1), None),  # rejections shift a trial's words
    (UniformSubset(9, 3), 3 * 3 * 5),  # 5 calls a chunk: 25 words
    (UniformSubset(2**31 + 2, 3), 3 * 3 * 3),
], ids=["tau1", "tau1-rejecting", "tau3", "tau3-rejecting"])
@pytest.mark.parametrize("buffered", [False, True])
def test_block_stream_with_odd_chunks_replays_sample_block(monkeypatch, spec, cap, buffered):
    # Chunks of an odd number of words leave a half buffered between
    # chunks: 7 steps a chunk for one-row draws, 5 or 3 calls of 2 tau - 1
    # draws for tau = 3.  From generators that start with a half buffered
    # or not, every draw is sample_block's.
    monkeypatch.setattr(sampling, "DRAW_AHEAD", 7)
    if cap is not None:
        monkeypatch.setattr(sampling, "AHEAD_VALUES", cap)
    steps = 40
    seeds = [[8, t] for t in range(3)]
    refs = [np.random.default_rng(seed) for seed in seeds]
    stream = BlockStream(spec, seeds, steps)
    if buffered:
        for t, ref in enumerate(refs):
            _half(ref)
            stream.words.call(t, _half)
    for k in range(steps):
        draw = stream.next()
        assert np.array_equal(draw, [sample_block(spec, rng) for rng in refs])


@pytest.mark.parametrize("spec", [UniformSubset(30, 1), UniformSubset(30, 3)], ids=["tau1", "tau3"])
def test_trials_from_a_generator_with_a_buffered_half(monkeypatch, spec):
    # Chunks of 7 steps draw an odd number of words (7 one-row draws, 7
    # calls of 5), so each generator holds a buffered half between chunks:
    # the run draws the blocks sample_block draws from default_rng(seed),
    # and a stack of such generators ends each trial with the bits of its
    # own run.
    monkeypatch.setattr(sampling, "DRAW_AHEAD", 7)
    system = generate_problem(GaussianNormalized(30, 8, seed=4))
    config = SolverConfig("rbk", spec, uniform_weights(spec), ClassicConstant(1.0),
                          max_iters=3 * 7 + 4, residual_tol=0.0)
    run, ref = Trials(config, system, [5]), np.random.default_rng(5)
    assert len(run.blocks()) == config.max_iters + 1
    assert all(np.array_equal(J, sample_block(spec, ref)) for J in run.blocks()[1:])
    stack = Trials(config, system, [6, 7, 8])
    singles = [Trials(config, system, [seed]) for seed in (6, 7, 8)]
    assert stack.final_x.tobytes() == np.concatenate([run.final_x for run in singles]).tobytes()


def test_a_generator_is_no_seed():
    # A Generator's buffered half is not known to the source that would
    # draw from it: the source, and a run, refuse it.
    spec = UniformSubset(30, 1)
    system = generate_problem(GaussianNormalized(30, 8, seed=4))
    config = SolverConfig("rbk", spec, uniform_weights(spec), ClassicConstant(1.0), max_iters=5)
    with pytest.raises(TypeError):
        WordSource([1, np.random.default_rng(1)])
    with pytest.raises(TypeError):
        Trials(config, system, [np.random.default_rng(5)])
