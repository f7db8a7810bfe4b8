"""Random streams: the batched path against numpy's own, draw for draw."""

import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowpref import load_instance, sample_dataset
from lowpref.instances import sample_winners, sampling_plan
from lowpref.privacy import _draw_noise
from lowpref.rng import (
    LANE_MIN_STREAMS,
    _seeded,
    _ziggurat,
    derive_seed,
    derive_seeds,
    integers,
    normals,
    substream,
    uniforms,
)

INSTANCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "instances"

# Word-layout edges of SeedSequence: 0 is the single word [0], values below
# 2**32 are one word, larger ones two.
EDGES = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]
u64 = st.one_of(st.sampled_from(EDGES), st.integers(0, 2**64 - 1))
label = st.one_of(st.text(max_size=6), u64, st.integers(-(2**63), -1))
# Enough streams for the array path.
lane_seeds = st.lists(u64, min_size=LANE_MIN_STREAMS, max_size=LANE_MIN_STREAMS + 20)


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


def _assert_tallies_loop(data, records):
    """The dataset's pairs, counts and wins are the bytes of the loop's records
    tallied per pair by ``np.unique``."""
    pairs, inverse, counts = np.unique(records[:, :3], axis=0, return_inverse=True,
                                       return_counts=True)
    wins = np.bincount(inverse.reshape(-1), weights=records[:, 3], minlength=len(counts))
    for got, want in ((data.pairs, pairs), (data.counts, counts), (data.wins, wins.astype(np.int64))):
        assert got.dtype == np.int64
        assert got.tobytes() == want.tobytes()


def _loop_winners(pairs, counts, p_first, seed):
    """sample_winners for one seed, one substream per pair."""
    return np.concatenate([
        substream(seed, "sample", k, i, j).random(count) < p
        for (k, i, j), count, p in zip(pairs.tolist(), counts.tolist(), p_first.tolist())
    ])


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

    @settings(max_examples=100, deadline=None)
    @given(seeds=st.lists(st.sampled_from(EDGES), min_size=1, max_size=5),
           labels=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=2, max_size=8),
           middle=label)
    def test_seed_column_against_label_arrays(self, seeds, labels, middle):
        """An (R, 1) column of one- and two-word seeds against (m,) labels
        that wrap from negative or take two words: the column splits the
        broadcast lanes, and every lane still equals derive_seed."""
        seeds = [1, 2**32] + seeds
        labels = [-1, 2**32 + 3] + labels
        column = np.array(seeds, dtype=np.uint64)[:, None]
        ks = np.array(labels, dtype=np.int64)
        got = derive_seeds(column, middle, ks, ks[::-1])
        assert got.shape == (len(seeds), len(labels)) and got.dtype == np.uint64
        assert got.size >= LANE_MIN_STREAMS
        for row, seed in zip(got.tolist(), seeds):
            assert row == [derive_seed(seed, middle, a, b) for a, b in zip(labels, labels[::-1])]

    def test_zero_length_axis(self):
        for parts, shape in (((np.arange(3)[:, None], "x", np.zeros(0, dtype=np.int64)), (3, 0)),
                             ((np.zeros((0, 1), dtype=np.uint64), "x", np.arange(20)), (0, 20))):
            got = derive_seeds(*parts)
            assert got.shape == shape and got.dtype == np.uint64

    @pytest.mark.parametrize("seed", [42, 2**40])
    def test_scalar_prefix_grows_by_broadcasting(self, seed):
        """The first four entropy words are scalars (one- or two-word seed,
        a string label, an integer), so the pool starts on one lane and
        broadcasts to the batch at the first array word."""
        reps = np.arange(LANE_MIN_STREAMS + 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = derive_seeds(seed, "data", 7, reps)
            tail = derive_seeds(seed, "data", 7, 9, "tie", reps)
        assert got.tolist() == [derive_seed(seed, "data", 7, rep) for rep in reps.tolist()]
        assert tail.tolist() == [derive_seed(seed, "data", 7, 9, "tie", rep) for rep in reps.tolist()]

    def test_empty_batch(self):
        assert derive_seeds(3, "x", np.zeros(0, dtype=np.int64)).shape == (0,)
        empty = np.zeros(0, dtype=np.uint64)
        assert uniforms(empty, np.zeros(0, dtype=np.int64)).shape == (0,)
        assert normals(empty, np.zeros(0)).shape == (0,)
        assert integers(empty, np.zeros(0, dtype=np.int64)).shape == (0,)

    def test_float_labels_refused(self):
        with pytest.raises(TypeError):
            derive_seeds(3, np.array([1.0]))


def _first_output(seed: int) -> tuple[int, int, bool]:
    """(idx, rabs, fast) of the first output of default_rng(seed), as the
    ziggurat reads it."""
    word = int(np.random.default_rng(seed).bit_generator.random_raw())
    idx, rabs = word & 0xFF, word >> 9 & ((1 << 52) - 1)
    return idx, rabs, rabs < int(_ziggurat()[1][idx])


class TestLaneDraws:
    @settings(max_examples=200, deadline=None)
    @given(seeds=st.lists(u64, min_size=4 * 9, max_size=60),
           counts=st.lists(st.integers(0, 9), min_size=60, max_size=60))
    def test_random_matches_default_rng(self, seeds, counts):
        """At least four streams per position, so the array path draws."""
        counts = counts[: len(seeds)]
        expected = [np.random.default_rng(s).random(c) for s, c in zip(seeds, counts)]
        got = uniforms(np.array(seeds, dtype=np.uint64), np.array(counts))
        assert got.tobytes() == np.concatenate(expected).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(seeds=lane_seeds, std=st.one_of(st.just(0.0), st.floats(0.0, 10.0)))
    def test_normal_matches_default_rng(self, seeds, std):
        got = normals(np.array(seeds, dtype=np.uint64), np.full(len(seeds), std))
        expected = [np.random.default_rng(seed).normal(0.0, std) for seed in seeds]
        assert got.tobytes() == np.array(expected).tobytes()

    def test_seeded_state_matches_numpy(self):
        """The seeded PCG64 state and increment of each lane, which the
        streams drawn off the lanes are set to, are default_rng(seed)'s."""
        seeds = derive_seeds(3, "state", np.arange(40))
        seeds[:3] = [0, 2**32 - 1, 2**32]
        state = _seeded(seeds)
        for lane, seed in enumerate(seeds.tolist()):
            hi, lo, inc_hi, inc_lo = (int(half[lane]) for half in state)
            want = np.random.default_rng(seed).bit_generator.state["state"]
            assert (hi << 64 | lo, inc_hi << 64 | inc_lo) == (want["state"], want["inc"])

    def test_normal_off_the_fast_path(self):
        """Planted seeds whose first output lands on idx 0, on idx 1 (never
        on the fast path) and off the fast path elsewhere, among others."""
        wanted = {
            "idx 0": lambda idx, rabs, fast: idx == 0 and fast,
            "idx 0 tail": lambda idx, rabs, fast: idx == 0 and not fast,
            "idx 1": lambda idx, rabs, fast: idx == 1,
            "rabs >= ki": lambda idx, rabs, fast: idx > 1 and not fast,
        }
        planted = {}
        seed = 0
        while len(planted) < len(wanted):
            first = _first_output(seed)
            for name, test in wanted.items():
                if name not in planted and test(*first):
                    planted[name] = seed
            seed += 1
        seeds = list(planted.values()) + list(range(10**6, 10**6 + LANE_MIN_STREAMS))
        for std in (0.0, 1.0, 0.37):
            got = normals(np.array(seeds, dtype=np.uint64), np.full(len(seeds), std))
            expected = [np.random.default_rng(seed).normal(0.0, std) for seed in seeds]
            assert got.tobytes() == np.array(expected).tobytes()


def _numpy_integers(seeds, sizes):
    return [np.random.default_rng(seed).integers(size) for seed, size in zip(seeds, sizes)]


class TestLaneIntegers:
    """``integers`` against ``default_rng(seed).integers(size)``, draw for draw."""

    @settings(max_examples=200, deadline=None)
    @given(seeds=st.lists(u64, min_size=1, max_size=40),
           sizes=st.lists(st.integers(1, 1000), min_size=40, max_size=40))
    def test_matches_default_rng(self, seeds, sizes):
        sizes = sizes[: len(seeds)]
        got = integers(np.array(seeds, dtype=np.uint64), np.array(sizes))
        assert got.dtype == np.int64
        assert got.tolist() == _numpy_integers(seeds, sizes)

    @pytest.mark.parametrize("streams", [1, LANE_MIN_STREAMS - 1, LANE_MIN_STREAMS, 1000])
    def test_every_size_up_to_a_thousand(self, streams):
        """Sizes 1 to 1,000, in batches below and above the crossover."""
        sizes = np.arange(1, 1001)
        seeds = derive_seeds(5, "integers", np.arange(1000))
        for lo in range(0, 1000, streams):
            got = integers(seeds[lo : lo + streams], sizes[lo : lo + streams])
            want = _numpy_integers(seeds[lo : lo + streams].tolist(), sizes[lo : lo + streams])
            assert got.tolist() == want

    @pytest.mark.parametrize("streams", [LANE_MIN_STREAMS - 1, 2000])
    def test_rejected_streams_draw_on_their_own(self, streams):
        """At size 3·2**30 numpy rejects a low word below 2**30, about one
        stream in four, and draws again."""
        size = 3 * 2**30
        seeds = derive_seeds(11, "reject", np.arange(streams))
        low = [int(np.random.default_rng(s).bit_generator.random_raw()) & 0xFFFFFFFF
               for s in seeds.tolist()]
        rejected = sum(word < (2**32 - size) % size for word in low)
        if streams > LANE_MIN_STREAMS:
            assert 0.2 < rejected / streams < 0.3
        got = integers(seeds, np.full(streams, size))
        assert got.tolist() == _numpy_integers(seeds.tolist(), [size] * streams)


def _consumes_one_output(rabs: int, idx: int) -> bool:
    """Whether standard_normal takes the ziggurat fast path when its first
    output carries (rabs, sign 0, idx): with inc = 1, PCG64 steps to the
    state ``word`` and outputs it unrotated."""
    word = rabs << 9 | idx
    mult = 0x2360ED051FC65DA44385DF649FCCF645
    bits = np.random.PCG64(0)
    bits.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                  "state": {"state": (word - 1) * pow(mult, -1, 2**128) % 2**128, "inc": 1}}
    np.random.Generator(bits).standard_normal()
    return bits.state["state"]["state"] == word


class TestZiggurat:
    def test_every_ki_at_or_below_numpy(self):
        """A probe at ki - 1 takes the fast path: it consumes one output."""
        for idx, k in enumerate(_ziggurat()[1].tolist()):
            if k:
                assert _consumes_one_output(k - 1, idx), idx

    def test_known_entries(self):
        wi, ki = _ziggurat()
        assert int(ki[0]) == 0x000EF33D8025EF6A
        # numpy's own value: idx 1 never takes the fast path.
        assert int(ki[1]) == 0
        assert wi.shape == ki.shape == (256,)
        assert not wi.flags.writeable and not ki.flags.writeable


class TestCrossover:
    @pytest.mark.parametrize("streams", [1, LANE_MIN_STREAMS - 1, LANE_MIN_STREAMS,
                                         LANE_MIN_STREAMS + 1])
    def test_callers_around_the_crossover(self, streams):
        pairs = np.column_stack([np.arange(streams) % 3, np.arange(streams),
                                 np.arange(streams) + 1])
        counts = 1 + np.arange(streams) % 3
        p_first = np.linspace(0.1, 0.9, streams)
        stds = np.linspace(0.0, 2.0, streams)
        for seed in (0, 2**32 - 1, 2**32, 2**64 - 1):
            assert sample_winners(pairs, counts, p_first, seed).tobytes() == \
                _loop_winners(pairs, counts, p_first, seed).tobytes()
            assert _draw_noise(seed, pairs, stds).tobytes() == \
                _loop_noise(seed, pairs, stds).tobytes()

    def test_seed_column_mixing_word_layouts(self, paper_instance):
        """Rows whose seeds take one and two entropy words split the batch."""
        pairs, counts, p_first = sampling_plan(paper_instance, 150)
        stds = np.linspace(0.01, 2.0, len(pairs))
        seeds = np.array([3, 2**32 + 5, 0, 2**40, 2**32 - 1], dtype=np.uint64)
        wins = sample_winners(pairs, counts, p_first, seeds[:, None])
        noise = _draw_noise(seeds[:, None], pairs, stds)
        for seed, win_row, noise_row in zip(seeds.tolist(), wins, noise):
            assert win_row.tobytes() == _loop_winners(pairs, counts, p_first, seed).tobytes()
            assert noise_row.tobytes() == _loop_noise(seed, pairs, stds).tobytes()


class TestBatchedCallers:
    @pytest.mark.parametrize("name", sorted(p.name for p in INSTANCE_DIR.glob("*.json")))
    def test_sample_dataset_matches_per_pair_loop(self, name):
        v = load_instance(INSTANCE_DIR / name)
        n = 400 if v.num_actions < 50 else 20_000
        for seed in (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 424242, 12_345_678_901_234):
            _assert_tallies_loop(sample_dataset(v, n, seed), _loop_sample(v, n, seed))

    def test_sample_dataset_matches_per_pair_loop_on_t1(self, t1):
        for seed in (0, 5, 2**40):
            _assert_tallies_loop(sample_dataset(t1, 10_000, seed), _loop_sample(t1, 10_000, seed))

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
