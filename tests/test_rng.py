"""Random streams: the batched seeding path against numpy's own, draw for draw."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowpref import load_instance, sample_dataset
from lowpref.instances import sampling_plan
from lowpref.privacy import _draw_noise
from lowpref.rng import default_rngs, derive_seed, derive_seeds, substream

INSTANCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "instances"

# Word-layout edges of SeedSequence: 0 is the single word [0], values below
# 2**32 are one word, larger ones two.
EDGES = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]
u64 = st.one_of(st.sampled_from(EDGES), st.integers(0, 2**64 - 1))
label = st.one_of(st.text(max_size=6), u64, st.integers(-(2**63), -1))


def _loop_sample(v, n, seed):
    """sample_dataset as it was first written: one substream per pair."""
    pairs, counts, p_first = sampling_plan(v, n)
    blocks = []
    for (k, i, j), count, p in zip(pairs.tolist(), counts.tolist(), p_first.tolist()):
        wins = substream(seed, "sample", k, i, j).random(count) < p
        block = np.empty((count, 4), dtype=np.int64)
        block[:, 0] = k
        block[:, 1] = i
        block[:, 2] = j
        block[:, 3] = wins
        blocks.append(block)
    return np.concatenate(blocks) if blocks else np.zeros((0, 4), dtype=np.int64)


def _loop_noise(seed, pairs, stds):
    """_draw_noise as it was first written: one substream per pair."""
    return np.array([
        substream(seed, "noise", int(k), int(i), int(j)).normal(0.0, std)
        for (k, i, j), std in zip(pairs, stds)
    ])


class TestDeriveSeeds:
    @settings(max_examples=300, deadline=None)
    @given(seeds=st.lists(u64, min_size=1, max_size=12), first=label,
           ints=st.lists(u64, min_size=1, max_size=12), last=label)
    def test_equals_derive_seed_elementwise(self, seeds, first, ints, last):
        n = min(len(seeds), len(ints))
        seeds, ints = seeds[:n], ints[:n]
        got = derive_seeds(np.array(seeds, dtype=np.uint64), first,
                           np.array(ints, dtype=np.uint64), last)
        assert got.dtype == np.uint64
        assert got.tolist() == [derive_seed(s, first, x, last) for s, x in zip(seeds, ints)]

    def test_negative_labels_wrap_as_in_derive_seed(self):
        labels = np.array([-1, -(2**63), -(2**32)], dtype=np.int64)
        got = derive_seeds(9, labels, "tie")
        assert got.tolist() == [derive_seed(9, int(x), "tie") for x in labels]

    @settings(max_examples=100, deadline=None)
    @given(seed=u64, words=st.lists(st.text(max_size=4), min_size=0, max_size=3))
    def test_scalar_parts_only(self, seed, words):
        got = derive_seeds(seed, *words)
        assert got.shape == () and int(got) == derive_seed(seed, *words)

    def test_parts_broadcast(self):
        reps = np.array([0, 2**32, 7], dtype=np.uint64)
        k = np.array([0, 1, 2**40, 3])
        got = derive_seeds(reps[:, None], "sample", k, 5)
        assert got.shape == (3, 4)
        for r, rep in enumerate(reps.tolist()):
            assert got[r].tolist() == [derive_seed(rep, "sample", int(x), 5) for x in k]

    def test_empty_batch(self):
        assert derive_seeds(3, "x", np.zeros(0, dtype=np.int64)).shape == (0,)
        assert list(default_rngs(np.zeros(0, dtype=np.uint64))) == []

    def test_float_labels_refused(self):
        with pytest.raises(TypeError):
            derive_seeds(3, np.array([1.0]))


class TestDefaultRngs:
    @settings(max_examples=200, deadline=None)
    @given(seeds=st.lists(u64, min_size=1, max_size=20),
           counts=st.lists(st.integers(0, 9), min_size=20, max_size=20))
    def test_random_matches_default_rng(self, seeds, counts):
        for seed, rng, count in zip(seeds, default_rngs(np.array(seeds, dtype=np.uint64)),
                                    counts):
            expected = np.random.default_rng(seed).random(count)
            assert rng.random(count).tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(seeds=st.lists(u64, min_size=1, max_size=20),
           std=st.floats(0.0, 10.0, allow_nan=False))
    def test_normal_matches_default_rng(self, seeds, std):
        batched = [rng.normal(0.0, std) for rng in default_rngs(np.array(seeds, dtype=np.uint64))]
        assert batched == [np.random.default_rng(seed).normal(0.0, std) for seed in seeds]

    def test_each_generator_continues_its_own_stream(self):
        seeds = derive_seeds(11, "sample", np.arange(5))
        for seed, rng in zip(seeds.tolist(), default_rngs(seeds)):
            reference = np.random.default_rng(seed)
            assert rng.random(3).tolist() == reference.random(3).tolist()
            assert rng.normal(0.0, 2.0, 4).tolist() == reference.normal(0.0, 2.0, 4).tolist()


class TestBatchedCallers:
    @pytest.mark.parametrize("name", sorted(p.name for p in INSTANCE_DIR.glob("*.json")))
    def test_sample_dataset_matches_per_pair_loop(self, name):
        v = load_instance(INSTANCE_DIR / name)
        n = 400 if v.num_actions < 50 else 20_000
        for seed in (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 424242, 12_345_678_901_234):
            batched = sample_dataset(v, n, seed).records
            assert batched.dtype == np.int64
            assert batched.tobytes() == _loop_sample(v, n, seed).tobytes()

    def test_sample_dataset_matches_per_pair_loop_on_t1(self, t1):
        for seed in (0, 5, 2**40):
            assert sample_dataset(t1, 10_000, seed).records.tobytes() == \
                _loop_sample(t1, 10_000, seed).tobytes()

    def test_noise_matches_per_pair_loop(self, paper_instance):
        pairs = paper_instance.observed_pairs()
        stds = np.linspace(0.01, 2.0, len(pairs))
        for seed in (0, 3, 2**33):
            expected = _loop_noise(seed, pairs, stds)
            assert _draw_noise(seed, pairs, stds).tolist() == expected.tolist()

    def test_noise_rows_for_a_seed_column(self, tri):
        pairs = tri.observed_pairs()
        stds = np.array([0.5, 1.5])
        seeds = np.array([4, 2**50, 0], dtype=np.uint64)
        rows = _draw_noise(seeds[:, None], pairs, stds)
        assert rows.shape == (3, 2)
        for seed, row in zip(seeds.tolist(), rows):
            assert row.tolist() == _loop_noise(seed, pairs, stds).tolist()
