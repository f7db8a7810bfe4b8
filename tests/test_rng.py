"""Random streams: the batched path against the scalar SplitMix64 oracle, draw
for draw, and the statistics of neighbouring streams."""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowpref import load_instance, sample_dataset
from lowpref.instances import count_cdf, sample_wins, sampling_plan
from lowpref.privacy import _draw_noise
from lowpref.rng import integers, normals, stream_keys, uniform
from conftest import (
    GAMMA,
    MASK64,
    oracle_count_cdf,
    oracle_integer,
    oracle_key,
    oracle_normal,
    oracle_uniforms,
    oracle_wins,
    oracle_word,
    unmix64,
)

INSTANCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "instances"

EDGES = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]
u64 = st.one_of(st.sampled_from(EDGES), st.integers(0, 2**64 - 1))
label = st.one_of(st.text(max_size=6), u64, st.integers(-(2**63), -1))


def _keys(values) -> np.ndarray:
    return np.array(values, dtype=np.uint64)


def _key_for_word0(word: int) -> int:
    """A key whose word 0 is ``word``."""
    return unmix64(word) - GAMMA & MASK64


def _loop_wins(pairs, counts, p_first, seeds):
    """sample_wins by the oracle, one stream and one CDF per pair: a row of
    wins per seed."""
    cdfs = [oracle_count_cdf(c, p) for c, p in zip(counts.tolist(), p_first.tolist())]
    return np.array([[oracle_wins(seed, pair, cdf) for pair, cdf in zip(pairs.tolist(), cdfs)]
                     for seed in seeds], dtype=np.int64)


def _assert_dataset_matches_loop(v, n, seeds):
    """sample_dataset keeps the plan's pairs and counts, and its wins are the
    oracle's, byte for byte."""
    pairs, counts, p_first = sampling_plan(v, n)
    for seed, want in zip(seeds, _loop_wins(pairs, counts, p_first, seeds)):
        data = sample_dataset(v, n, seed)
        for got, expected in ((data.pairs, pairs), (data.counts, counts), (data.wins, want)):
            assert got.dtype == np.int64
            assert got.tobytes() == expected.tobytes()


def _loop_noise(seed, pairs, stds):
    """_draw_noise by the oracle, one stream per pair."""
    return np.array([
        oracle_normal(oracle_key(seed, "noise", int(k), int(i), int(j)), std)
        for (k, i, j), std in zip(pairs, stds)
    ])


class TestDeriveSeeds:
    """``stream_keys``, the batched key of every label tuple, against the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(seeds=st.lists(u64, min_size=1, max_size=12), first=label,
           ints=st.lists(u64, min_size=1, max_size=12), last=label)
    def test_equals_oracle_key_elementwise(self, seeds, first, ints, last):
        n = min(len(seeds), len(ints))
        seeds, ints = seeds[:n], ints[:n]
        got = stream_keys(_keys(seeds), first, _keys(ints), last)
        assert got.dtype == np.uint64
        assert got.tolist() == [oracle_key(s, first, x, last) for s, x in zip(seeds, ints)]

    def test_negative_labels_wrap_as_in_derive_seed(self):
        """Negative labels, scalar or in an array, are their two's complement."""
        labels = np.array([-1, -(2**63), -(2**32)], dtype=np.int64)
        got = stream_keys(9, labels, "tie")
        assert got.tolist() == [oracle_key(9, int(x) & MASK64, "tie") for x in labels]
        assert int(stream_keys(-1, "x")) == int(stream_keys(2**64 - 1, "x"))

    @settings(max_examples=100, deadline=None)
    @given(seed=u64, words=st.lists(st.text(max_size=4), min_size=0, max_size=3))
    def test_scalar_parts_only(self, seed, words):
        got = stream_keys(seed, *words)
        assert got.shape == () and got.dtype == np.uint64
        assert int(got) == oracle_key(seed, *words)
        assert int(stream_keys(np.array(seed, dtype=np.uint64), *words)) == int(got)

    def test_parts_broadcast(self):
        reps = _keys([0, 2**32, 7])
        k = np.array([0, 1, 2**40, 3])
        got = stream_keys(reps[:, None], "sample", k, 5)
        assert got.shape == (3, 4)
        for r, rep in enumerate(reps.tolist()):
            assert got[r].tolist() == [oracle_key(rep, "sample", int(x), 5) for x in k]

    @settings(max_examples=100, deadline=None)
    @given(seeds=st.lists(st.sampled_from(EDGES), min_size=1, max_size=5),
           labels=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=2, max_size=8),
           middle=label)
    def test_seed_column_against_label_arrays(self, seeds, labels, middle):
        """An (R, 1) column of seeds against (m,) labels, negative or wide:
        every lane of the (R, m) keys equals the oracle."""
        seeds = [1, 2**32] + seeds
        labels = [-1, 2**32 + 3] + labels
        column = _keys(seeds)[:, None]
        ks = np.array(labels, dtype=np.int64)
        got = stream_keys(column, middle, ks, ks[::-1])
        assert got.shape == (len(seeds), len(labels)) and got.dtype == np.uint64
        for row, seed in zip(got.tolist(), seeds):
            assert row == [oracle_key(seed, middle, a, b) for a, b in zip(labels, labels[::-1])]

    def test_zero_length_axis(self):
        for parts, shape in (((np.arange(3)[:, None], "x", np.zeros(0, dtype=np.int64)), (3, 0)),
                             ((np.zeros((0, 1), dtype=np.uint64), "x", np.arange(20)), (0, 20))):
            got = stream_keys(*parts)
            assert got.shape == shape and got.dtype == np.uint64

    @pytest.mark.parametrize("seed", [42, 2**40])
    def test_scalar_prefix_grows_by_broadcasting(self, seed):
        """Scalar parts fold on one lane, which broadcasts to the batch at the
        first array part; no uint64 scalar overflows on the way."""
        reps = np.arange(20)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = stream_keys(seed, "data", 7, reps)
            tail = stream_keys(seed, "data", 7, 9, "tie", reps)
        assert got.tolist() == [oracle_key(seed, "data", 7, rep) for rep in reps.tolist()]
        assert tail.tolist() == [oracle_key(seed, "data", 7, 9, "tie", rep) for rep in reps.tolist()]

    def test_empty_batch(self):
        assert stream_keys(3, "x", np.zeros(0, dtype=np.int64)).shape == (0,)
        empty = np.zeros(0, dtype=np.uint64)
        assert uniform(empty).shape == uniform(empty, 5).shape == (0,)
        assert normals(empty, np.zeros(0)).shape == (0,)
        assert integers(empty, np.zeros(0, dtype=np.int64)).shape == (0,)

    def test_float_labels_refused(self):
        for part in (np.array([1.0]), np.float64(1.0), 1.0):
            with pytest.raises(TypeError):
                stream_keys(3, part)


class TestStreamWords:
    def test_known_answers(self):
        """Words 0 to 2 of key 0 are splitmix64.c's first outputs from seed 0."""
        want = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        assert [oracle_word(0, t) for t in range(3)] == want
        got = [float(uniform(_keys([0]), t)[0]) for t in range(3)]
        assert got == [(w >> 11) * 2.0**-53 for w in want]

    def test_independence_across_neighbouring_keys(self):
        """Word 0 of 10**5 consecutive pair labels, and of 10**5 consecutive
        seeds under one label, and word 1 against word 0: the mean, the
        variance and the correlation of neighbours each within 5 standard
        errors of 1/2, 1/12 and 0."""
        size = 10**5
        by_label = stream_keys(2024, "sample", np.arange(size))
        by_seed = stream_keys(np.arange(size), "sample", 7)
        for keys in (by_label, by_seed):
            u = uniform(keys)
            assert abs(u.mean() - 0.5) <= 5 * math.sqrt(1 / 12 / size)
            assert abs(u.var() - 1 / 12) <= 5 * math.sqrt((1 / 80 - 1 / 144) / size)
            assert abs(np.corrcoef(u[:-1], u[1:])[0, 1]) <= 5 / math.sqrt(size)
            assert abs(np.corrcoef(u, uniform(keys, 1))[0, 1]) <= 5 / math.sqrt(size)


class TestLaneDraws:
    @settings(max_examples=200, deadline=None)
    @given(seeds=st.lists(u64, min_size=0, max_size=60), t=st.integers(0, 9))
    def test_uniforms_equal_oracle(self, seeds, t):
        """Word t of every stream of a batch, as a float."""
        expected = [oracle_uniforms(s, t + 1)[t] for s in seeds]
        assert uniform(_keys(seeds), t).tobytes() == np.array(expected, dtype=float).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(seeds=st.lists(u64, min_size=0, max_size=40),
           std=st.one_of(st.just(0.0), st.floats(0.0, 10.0)))
    def test_normals_equal_oracle(self, seeds, std):
        got = normals(_keys(seeds), np.full(len(seeds), std))
        assert got.tobytes() == np.array([oracle_normal(s, std) for s in seeds]).tobytes()

    def test_normals_at_the_extreme_words(self):
        """Word 0 at 0 gives radius 0; at its top, radius sqrt(2·53·ln 2); word 1
        sweeps the angle.  Keys are planted through the inverse of mix64."""
        keys = [_key_for_word0(w) for w in (0, 2**11 - 1, MASK64, MASK64 - 2**11)]
        keys += [0, 1, 2**63]
        got = normals(_keys(keys), np.full(len(keys), 1.5))
        assert got.tobytes() == np.array([oracle_normal(k, 1.5) for k in keys]).tobytes()
        assert got[0] == got[1] == 0.0
        assert abs(got[2]) <= 1.5 * math.sqrt(2 * 53 * math.log(2))
        assert np.isfinite(got).all()


class TestLaneIntegers:
    """``integers`` against the oracle's ``floor(u·size)``, draw for draw."""

    @settings(max_examples=200, deadline=None)
    @given(seeds=st.lists(u64, min_size=0, max_size=40),
           sizes=st.lists(st.integers(1, 2**32), min_size=40, max_size=40))
    def test_integers_equal_oracle(self, seeds, sizes):
        sizes = sizes[: len(seeds)]
        got = integers(_keys(seeds), np.array(sizes, dtype=np.int64))
        assert got.dtype == np.int64
        assert got.tolist() == [oracle_integer(s, size) for s, size in zip(seeds, sizes)]

    @pytest.mark.parametrize("streams", [1, 11, 12, 1000])
    def test_every_size_up_to_a_thousand(self, streams):
        """Sizes 1 to 1,000 in batches of one stream and more."""
        sizes = np.arange(1, 1001)
        keys = stream_keys(5, "integers", np.arange(1000))
        for lo in range(0, 1000, streams):
            got = integers(keys[lo : lo + streams], sizes[lo : lo + streams])
            want = [oracle_integer(k, size) for k, size in
                    zip(keys[lo : lo + streams].tolist(), sizes[lo : lo + streams].tolist())]
            assert got.tolist() == want
            assert (0 <= got).all() and (got < sizes[lo : lo + streams]).all()

    @pytest.mark.parametrize("size", [1, 2, 3, 1000, 3 * 2**30, 2**32 - 1, 2**32])
    def test_top_word_draws_the_last_value(self, size):
        """The largest u, 1 − 2**-53, times any size up to 2**32 rounds to
        below the size, so the draw never reaches it."""
        keys = _keys([_key_for_word0(MASK64), _key_for_word0(0)])
        assert integers(keys, np.full(2, size)).tolist() == [size - 1, 0]


class TestCrossover:
    """Small batches, one stream and up, row by row against the per-stream loops."""

    @pytest.mark.parametrize("streams", [1, 11, 12, 13])
    def test_callers_around_the_crossover(self, streams):
        pairs = np.column_stack([np.arange(streams) % 3, np.arange(streams),
                                 np.arange(streams) + 1])
        counts = 1 + np.arange(streams) % 3
        p_first = np.linspace(0.1, 0.9, streams)
        stds = np.linspace(0.0, 2.0, streams)
        cdf = count_cdf(counts, p_first)
        for seed in (0, 2**32 - 1, 2**32, 2**64 - 1):
            assert sample_wins(pairs, counts, cdf, seed).tobytes() == \
                _loop_wins(pairs, counts, p_first, [seed])[0].tobytes()
            assert _draw_noise(seed, pairs, stds).tobytes() == \
                _loop_noise(seed, pairs, stds).tobytes()

    def test_seed_column_mixing_word_layouts(self, paper_instance):
        """A column of small, 32-bit-edge and wide seeds: each row is its seed's."""
        pairs, counts, p_first = sampling_plan(paper_instance, 150)
        stds = np.linspace(0.01, 2.0, len(pairs))
        seeds = _keys([3, 2**32 + 5, 0, 2**40, 2**32 - 1])
        wins = sample_wins(pairs, counts, count_cdf(counts, p_first), seeds[:, None])
        noise = _draw_noise(seeds[:, None], pairs, stds)
        loop = _loop_wins(pairs, counts, p_first, seeds.tolist())
        for seed, win_row, loop_row, noise_row in zip(seeds.tolist(), wins, loop, noise):
            assert win_row.tobytes() == loop_row.tobytes()
            assert noise_row.tobytes() == _loop_noise(seed, pairs, stds).tobytes()


class TestBatchedCallers:
    @pytest.mark.parametrize("name", sorted(p.name for p in INSTANCE_DIR.glob("*.json")))
    def test_sample_dataset_matches_per_pair_loop(self, name):
        v = load_instance(INSTANCE_DIR / name)
        n = 400 if v.num_actions < 50 else 20_000
        _assert_dataset_matches_loop(
            v, n, (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 424242, 12_345_678_901_234))

    def test_sample_dataset_matches_per_pair_loop_on_t1(self, t1):
        _assert_dataset_matches_loop(t1, 10_000, (0, 5, 2**40))

    def test_noise_matches_per_pair_loop(self, paper_instance):
        pairs = paper_instance.observed_pairs()
        stds = np.linspace(0.01, 2.0, len(pairs))
        for seed in (0, 3, 2**33):
            expected = _loop_noise(seed, pairs, stds)
            assert _draw_noise(seed, pairs, stds).tolist() == expected.tolist()

    def test_noise_rows_for_a_seed_column(self, tri):
        pairs = tri.observed_pairs()
        stds = np.array([0.5, 1.5])
        seeds = _keys([4, 2**50, 0])
        rows = _draw_noise(seeds[:, None], pairs, stds)
        assert rows.shape == (3, 2)
        for seed, row in zip(seeds.tolist(), rows):
            assert row.tolist() == _loop_noise(seed, pairs, stds).tolist()
