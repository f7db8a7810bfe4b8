"""Instance model: validation, generation, sampling, proportions, file formats."""

import decimal
import hashlib
import itertools
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lowpref import (
    GeneratorConfig,
    PreferenceDataset,
    PrivacyParams,
    ValidationError,
    dp_rl_low,
    empirical_proportions,
    load_dataset,
    load_instance,
    make_instance,
    make_paper_instance,
    mle_fit,
    rl_low,
    rl_low_mdp,
    sample_dataset,
    save_dataset,
    save_instance,
    suboptimality_gaps,
    validate_instance,
    validate_kernel,
)
from lowpref.instances import (
    consistency_witness,
    count_cdf,
    observed_differences,
    outside_span,
    sample_wins,
    sampling_plan,
    span_svd,
)
from lowpref.rng import stream_keys
from conftest import (
    COMMITTED,
    GAMMA,
    MASK64,
    oracle_count_cdf,
    oracle_key,
    oracle_wins,
    random_consistent_instance,
    unmix64,
)


def _t1_like(**overrides):
    fields = dict(
        features=np.array([[[1.0], [0.0]]]),
        theta=[1.0],
        rho=[1.0],
        schedule=[[[0.0, 1.0], [0.0, 0.0]]],
        reward_bound=1.0,
    )
    fields.update(overrides)
    return make_instance(**fields)


class TestValidation:
    def test_t1_accepted(self, t1):
        assert validate_instance(t1) is t1

    def test_duplicate_features_rejected(self):
        bad = _t1_like(features=np.array([[[1.0], [1.0]]]))
        with pytest.raises(ValidationError, match="duplicate features"):
            validate_instance(bad)

    def test_reward_bound_violation_rejected(self):
        bad = _t1_like(reward_bound=0.5)
        with pytest.raises(ValidationError, match="reward bound"):
            validate_instance(bad)

    def test_rho_must_be_positive_probability(self):
        with pytest.raises(ValidationError, match="rho"):
            validate_instance(_t1_like(rho=[0.9]))

    def test_schedule_lower_triangle_rejected(self):
        with pytest.raises(ValidationError, match="i >= j"):
            validate_instance(_t1_like(schedule=[[[0.0, 0.5], [0.5, 0.0]]]))

    def test_non_unique_best_action_rejected(self):
        bad = _t1_like(features=np.array([[[1.0, 0.0], [0.0, 1.0]]]), theta=[1.0, 1.0])
        with pytest.raises(ValidationError, match="not unique"):
            validate_instance(bad)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="shape"):
            validate_instance(_t1_like(theta=[1.0, 2.0]))

    def test_nan_rho_rejected(self):
        with pytest.raises(ValidationError, match=r"rho has a non-finite entry at index \(0,\)"):
            validate_instance(_t1_like(rho=[float("nan")]))

    def test_nan_theta_rejected(self):
        with pytest.raises(ValidationError, match=r"theta has a non-finite entry at index \(0,\)"):
            validate_instance(_t1_like(theta=[float("nan")]))


def _first_duplicate_loop(features):
    """The duplicate check as it was written first: every pair, in order."""
    S, A, _ = features.shape
    for k in range(S):
        for i in range(A):
            for j in range(i + 1, A):
                if np.array_equal(features[k, i], features[k, j]):
                    return k, i, j
    return None


class TestDuplicateFeatures:
    @staticmethod
    def _planted(rows_by_state):
        features = np.array(rows_by_state, dtype=np.float64)
        S, A, _ = features.shape
        schedule = np.zeros((S, A, A))
        iu, ju = np.triu_indices(A, k=1)
        schedule[:, iu, ju] = 1.0 / (S * iu.size)
        return make_instance(features, np.ones(features.shape[2]), np.full(S, 1.0 / S),
                             schedule, 10.0)

    @pytest.mark.parametrize("rows, first", [
        # three equal rows: the first pair of them is reported
        ([[[1, 0], [5, 5], [2, 0], [5, 5], [5, 5]]], (0, 1, 3)),
        # only a later state repeats a row; state 0 shares rows with it
        ([[[1, 0], [2, 0], [3, 0]], [[3, 0], [1, 0], [3, 0]]], (1, 0, 2)),
        # two duplicate groups: the lower first index wins, not the lower pair
        ([[[4, 4], [1, 1], [2, 2], [1, 1], [4, 4]]], (0, 0, 4)),
        # -0.0 equals 0.0, as np.array_equal has it
        ([[[0.0, 1], [3, 3], [-0.0, 1]]], (0, 0, 2)),
    ])
    def test_planted_duplicates(self, rows, first):
        v = self._planted(rows)
        assert _first_duplicate_loop(v.features) == first
        k, i, j = first
        with pytest.raises(ValidationError,
                           match=f"duplicate features for actions {i} and {j} in state {k}"):
            validate_instance(v)

    def test_matches_pairwise_loop_on_random_grids(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            S, A, d = (int(x) for x in rng.integers(1, 5, size=3))
            features = rng.integers(0, 3, size=(S, A + 1, d)).astype(np.float64)
            v = self._planted(features)
            expected = _first_duplicate_loop(v.features)
            if expected is None:
                try:
                    validate_instance(v)
                except ValidationError as exc:  # e.g. a tied best action
                    assert "duplicate" not in str(exc)
                continue
            k, i, j = expected
            with pytest.raises(ValidationError,
                               match=f"actions {i} and {j} in state {k}$"):
                validate_instance(v)


class TestRewardsAndGaps:
    def test_t1_rewards(self, t1):
        assert t1.rewards()[0, 0] == 1.0
        assert t1.rewards()[0, 1] == 0.0

    def test_t1_gaps(self, t1):
        assert np.allclose(suboptimality_gaps(t1), [[0.0, 1.0]])

    def test_paper_instance_reward_ladder(self, paper_instance):
        # Analytic identity of the construction: reward(k, i) = 1 - 0.05 i.
        rewards = paper_instance.rewards()
        expected = 1.0 - 0.05 * np.arange(10)
        assert np.max(np.abs(rewards - expected[None, :])) < 1e-12

    def test_paper_instance_gaps(self, paper_instance):
        gaps = suboptimality_gaps(paper_instance)
        assert np.max(np.abs(gaps - 0.05 * np.arange(10)[None, :])) < 1e-12

    def test_best_action_gap_is_zero(self, paper_instance):
        gaps = suboptimality_gaps(paper_instance)
        assert np.all(gaps[:, 0] == 0.0)


class TestConsistency:
    def test_t1_consistent(self, t1):
        assert consistency_witness(t1.features, t1.schedule) is None

    def test_empty_schedule_inconsistent(self):
        empty = _t1_like(schedule=[[[0.0, 0.0], [0.0, 0.0]]])
        assert consistency_witness(empty.features, empty.schedule) == (0, 0, 1)

    def test_planar_missing_direction(self):
        features = np.array([[[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]])
        schedule = np.zeros((1, 3, 3))
        schedule[0, 0, 1] = 1.0
        v = make_instance(features, [1.0, -0.5], [1.0], schedule, 1.0)
        assert consistency_witness(v.features, v.schedule) == (0, 0, 2)

    def test_agrees_with_lstsq_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            v = random_consistent_instance(rng)
            # Randomly knock out one observed pair to hit both outcomes.
            schedule = np.array(v.schedule)
            pairs = np.argwhere(schedule > 0)
            if rng.random() < 0.5 and len(pairs) > 1:
                k, i, j = pairs[rng.integers(len(pairs))]
                schedule[k, i, j] = 0.0
            probe = make_instance(v.features, v.theta, v.rho, schedule, v.reward_bound)
            witness = consistency_witness(probe.features, probe.schedule)

            obs = np.argwhere(schedule > 0)
            basis_cols = (
                probe.features[obs[:, 0], obs[:, 1]] - probe.features[obs[:, 0], obs[:, 2]]
            ).T
            oracle = True
            for k in range(v.num_states):
                for i in range(v.num_actions):
                    for j in range(v.num_actions):
                        if i == j:
                            continue
                        target = probe.features[k, i] - probe.features[k, j]
                        if basis_cols.size:
                            sol, *_ = np.linalg.lstsq(basis_cols, target, rcond=None)
                            resid = float(np.linalg.norm(basis_cols @ sol - target))
                        else:
                            resid = float(np.linalg.norm(target))
                        if resid > 1e-9 * (1 + np.linalg.norm(target)):
                            oracle = False
            assert (witness is None) == oracle


def _pairwise_scan_witness(features, schedule):
    """The consistency check as it was first written: every difference
    features[k, i] - features[k, j], i < j, in (k, i, j) order."""
    _, observed, _ = observed_differences(features, schedule)
    rows = span_svd(observed)[2]
    S, A, _ = features.shape
    iu, ju = np.triu_indices(A, k=1)
    bad = np.argwhere(outside_span(features[:, iu] - features[:, ju], rows))
    if not bad.size:
        return None
    k, p = (int(x) for x in bad[0])
    return k, int(iu[p]), int(ju[p])


small_ints = st.integers(-2, 2)


@st.composite
def witness_cases(draw):
    """Features and a schedule: exact integer, rank-deficient, rows shared
    across states or normal features; an empty, partial or full schedule."""
    S, A, d = draw(st.integers(1, 3)), draw(st.integers(2, 5)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["integer", "rank_deficient", "shared_rows", "normal"]))
    if kind == "integer":
        features = draw(hnp.arrays(np.int64, (S, A, d), elements=small_ints))
    elif kind == "rank_deficient":
        r = draw(st.integers(1, max(d - 1, 1)))
        coeffs = draw(hnp.arrays(np.int64, (S, A, r), elements=small_ints))
        features = coeffs @ draw(hnp.arrays(np.int64, (r, d), elements=small_ints))
    elif kind == "shared_rows":
        base = draw(hnp.arrays(np.int64, (A, d), elements=small_ints))
        features = base[draw(hnp.arrays(np.int64, (S, A), elements=st.integers(0, A - 1)))]
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        features = rng.normal(size=(S, A, d))
        if draw(st.booleans()):  # every row on one line through the origin
            features = features @ rng.normal(size=(d, 1)) @ rng.normal(size=(1, d))
    iu, ju = np.triu_indices(A, k=1)
    mode = draw(st.sampled_from(["empty", "partial", "full"]))
    if mode == "empty":
        mask = np.zeros((S, iu.size), dtype=bool)
    elif mode == "partial":
        mask = draw(hnp.arrays(np.bool_, (S, iu.size)))
    else:
        mask = np.ones((S, iu.size), dtype=bool)
    schedule = np.zeros((S, A, A))
    schedule[:, iu, ju] = mask / max(int(mask.sum()), 1)
    return np.asarray(features, dtype=np.float64), schedule


class TestConsistencyWitnessOracle:
    @settings(max_examples=400, deadline=None)
    @given(case=witness_cases())
    def test_matches_pairwise_scan(self, case):
        features, schedule = case
        assert consistency_witness(features, schedule) == \
            _pairwise_scan_witness(features, schedule)

    def test_matches_pairwise_scan_on_random_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            v = random_consistent_instance(rng)
            schedule = np.array(v.schedule)
            pairs = np.argwhere(schedule > 0)
            drop = pairs[rng.random(len(pairs)) < rng.random()]
            schedule[drop[:, 0], drop[:, 1], drop[:, 2]] = 0.0
            assert consistency_witness(v.features, schedule) == \
                _pairwise_scan_witness(v.features, schedule)


class TestGenerator:
    def test_config_validation(self):
        with pytest.raises(ValidationError):
            GeneratorConfig(num_states=2, num_actions=1, dim=3, seed=0)
        with pytest.raises(ValidationError):
            GeneratorConfig(num_states=2, num_actions=5, dim=3, seed=0, gap_step=0.0)

    def test_paper_instance_shape(self, paper_instance):
        v = paper_instance
        assert (v.num_states, v.num_actions, v.dim) == (2, 10, 5)
        assert np.array_equal(v.theta, np.ones(5))
        assert np.array_equal(v.rho, [0.4, 0.6])
        pairs = v.observed_pairs()
        assert len(pairs) == 90
        assert np.allclose(
            v.schedule[pairs[:, 0], pairs[:, 1], pairs[:, 2]], 1.0 / 90
        )
        assert abs(v.schedule.sum() - 1.0) < 1e-12

    def test_reward_ladder_holds_across_seeds(self):
        for seed in (0, 1, 99, 12345):
            v = make_paper_instance(GeneratorConfig(2, 10, 5, seed))
            expected = 1.0 - 0.05 * np.arange(10)
            assert np.max(np.abs(v.rewards() - expected[None, :])) < 1e-12

    def test_generated_instance_consistent(self, paper_instance):
        assert consistency_witness(paper_instance.features, paper_instance.schedule) is None

    def test_uniform_rho_when_not_two_states(self):
        v = make_paper_instance(GeneratorConfig(3, 4, 3, seed=5))
        assert np.allclose(v.rho, 1.0 / 3)
        assert abs(v.schedule.sum() - 1.0) < 1e-12


class TestSampling:
    def test_counts_are_ceilings(self, t1):
        data = sample_dataset(t1, 10, seed=0)
        assert data.records.shape == (10, 4)
        assert np.all(data.records[:, :3] == [0, 0, 1])

    def test_ceiling_counts_per_pair(self, t2):
        data = sample_dataset(t2, 7, seed=0)
        counts = np.bincount(data.records[:, 0], minlength=2)
        assert counts[0] == math.ceil(0.2 * 7)
        assert counts[1] == math.ceil(0.8 * 7)

    def test_determinism(self, paper_instance):
        a = sample_dataset(paper_instance, 137, seed=77)
        b = sample_dataset(paper_instance, 137, seed=77)
        assert np.array_equal(a.records, b.records)

    def test_win_rate_matches_model(self, t1):
        n = 100_000
        data = sample_dataset(t1, n, seed=3)
        rate = data.records[:, 3].mean()
        p = 1.0 / (1.0 + math.exp(-1.0))
        assert abs(rate - p) <= 4 * math.sqrt(0.25 / n)

    def test_zero_parameter_gives_fair_coin(self, t1):
        v0 = make_instance(t1.features, [0.0], t1.rho, t1.schedule, t1.reward_bound)
        n = 100_000
        data = sample_dataset(v0, n, seed=9)
        assert abs(data.records[:, 3].mean() - 0.5) <= 3 * math.sqrt(0.25 / n)

    def test_rejects_bad_n(self, t1):
        with pytest.raises(ValidationError):
            sample_dataset(t1, 0, seed=0)


class TestSamplingPlan:
    """``p_first`` against the comparison model, pair by pair."""

    @pytest.mark.parametrize("path", COMMITTED, ids=lambda p: p.stem)
    def test_p_first_is_the_scalar_sigmoid(self, path):
        v = load_instance(path)
        pairs, _, p_first = sampling_plan(v, 1000)
        rewards = v.rewards()
        want = np.array([1 / (1 + math.exp(rewards[k, j] - rewards[k, i]))
                         for k, i, j in pairs.tolist()])
        assert np.all(np.abs(p_first - want) <= 4 * np.spacing(want))

    def test_gap_past_exp_range_gives_no_first_wins(self, wide_gap):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sampling_plan(wide_gap, 50)[2].tolist() == [0.0]
            assert sample_dataset(wide_gap, 50, seed=1).wins.tolist() == [0]


def _pairs(m: int) -> np.ndarray:
    """m distinct (0, i, i + 1) pairs."""
    return np.column_stack([np.zeros(m, dtype=np.int64), np.arange(m), np.arange(m) + 1])


def _seed_for_word0(word: int, pair) -> int:
    """A data seed whose (seed, "sample", k, i, j) stream has word 0 ``word``:
    the key fold run backwards through the inverse of mix64."""
    sample = int.from_bytes(hashlib.sha256(b"sample").digest()[:8], "little")
    h = unmix64(word) - GAMMA & MASK64
    for label in reversed((sample, *pair)):
        h = unmix64(h) ^ label
    assert oracle_key(unmix64(h), "sample", *pair) == unmix64(word) - GAMMA & MASK64
    return unmix64(h)


def _binomial_pmf(count: int, p: float) -> list[decimal.Decimal]:
    """Bin(count, p)'s pmf in 40-digit decimal arithmetic from the exact value
    of the float p: (1 − p)**count, then the ratio of neighbouring terms."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        p_first = decimal.Decimal(p)
        odds = p_first / (1 - p_first)
        pmf = [(1 - p_first) ** count]
        for w in range(count):
            pmf.append(pmf[-1] * (count - w) / (w + 1) * odds)
        return pmf


def _chi_square(draws: np.ndarray, pmf: list[float]) -> tuple[float, int]:
    """Pearson's statistic and its degrees of freedom for integer draws against
    a pmf, neighbouring values pooled until each bin expects at least 5."""
    expected = len(draws) * np.array(pmf)
    edges, running = [0], 0.0
    for w, e in enumerate(expected):
        running += e
        if running >= 5:
            edges.append(w + 1)
            running = 0.0
    edges[-1] = len(pmf)  # a remainder expecting under 5 joins the last bin
    want = np.add.reduceat(expected, edges[:-1])
    got = np.add.reduceat(np.bincount(draws, minlength=len(pmf)), edges[:-1])
    return float(((got - want) ** 2 / want).sum()), len(want) - 1


class TestCountSampler:
    """``count_cdf`` and ``sample_wins``: each pair's wins are one Bin(count,
    p_first) draw by inverse CDF, whatever the count, p or mix of counts."""

    def test_chi_square_over_a_grid(self):
        """20,000 draws for each (c, p) of a grid in one mixed-count plan, each
        pair's against its exact pmf: Pearson's statistic stays below its
        1 − 1e-6 quantile (Wilson–Hilferty)."""
        grid = [(c, p) for c in (1, 3, 40, 300, 4096) for p in (1e-6, 0.05, 0.5, 0.93)]
        counts = np.array([c for c, _ in grid])
        p_first = np.array([p for _, p in grid])
        seeds = stream_keys(11, "chi-square", np.arange(20_000))[:, None]
        wins = sample_wins(_pairs(len(grid)), counts, count_cdf(counts, p_first), seeds)
        for column, (c, p) in zip(wins.T, grid):
            statistic, df = _chi_square(column, [float(x) for x in _binomial_pmf(c, p)])
            if df:
                bound = df * (1 - 2 / (9 * df) + 4.75 * math.sqrt(2 / (9 * df))) ** 3
                assert statistic <= bound, (c, p, statistic, df)
            else:
                assert np.bincount(column, minlength=c + 1).argmax() == round(c * p)

    @pytest.mark.parametrize("count", [1, 4096])
    def test_p_at_and_near_the_ends(self, count):
        """p of 0 and 1, and floats within 1e-17 of them (1 − 1e-17 is 1.0):
        no RuntimeWarning, and the draws are the oracle's.  Word 0 at its
        bottom and top plants u = 0 and u = 1 − 2**-53."""
        p_first = np.array([0.0, 5e-324, 1e-17, 1 - 1e-17, np.nextafter(1.0, 0.0), 1.0])
        counts, pairs = np.full(len(p_first), count), _pairs(len(p_first))
        planted = [_seed_for_word0(word, pair) for word in (0, MASK64) for pair in pairs.tolist()]
        seeds = planted + list(range(200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cdf = count_cdf(counts, p_first)
            wins = sample_wins(pairs, counts, cdf, np.array(seeds, dtype=np.uint64)[:, None])
        cdfs = [oracle_count_cdf(count, p) for p in p_first.tolist()]
        assert wins.tolist() == [[oracle_wins(seed, pair, cdf) for pair, cdf in
                                  zip(pairs.tolist(), cdfs)] for seed in seeds]
        at_zero, at_top = np.diagonal(wins[:6]), np.diagonal(wins[6:12])
        assert (wins[12:, :3] == 0).all() and (wins[12:, 3:] == count).all()
        assert at_zero.tolist() == [0, 0, 0, count, 0 if count == 1 else at_zero[4], count]
        assert at_top.tolist() == [0, 0, 0 if count == 1 else 1, count, count, count]
        assert count - 40 <= at_zero[4] < count  # W = count − 1 has mass about 4.5e-13

    @pytest.mark.parametrize("p", [0.5, 1e-6])
    def test_underflowing_tails_shift_no_mass(self, p):
        """At c = 4,096 the pmf underflows in one tail (p = 1e-6) or both
        (p = 0.5).  The CDF matches 40-digit arithmetic, is exactly 1 wherever
        the exact upper tail is below 2**-60, and ends at exactly 1; u = 0 and
        u = 1 − 2**-53 draw counts inside the exact tails, not past them."""
        count = 4096
        pmf = _binomial_pmf(count, p)
        below = [0, *itertools.accumulate(pmf)]  # P(W < w), w = 0..count + 1
        above = [*itertools.accumulate(pmf[::-1]), 0][::-1]  # P(W >= w)
        cdf = count_cdf(np.array([count]), np.array([p]))
        got, first, stride = cdf
        assert (first.tolist(), stride.tolist(), got.shape) == ([0], [1], (count + 1,))
        assert got[-1] == 1.0 and (np.diff(got) >= 0).all()
        np.testing.assert_allclose(got, [float(x) for x in below[1:]], rtol=1e-9, atol=1e-300)
        assert (got[[float(x) < 2**-60 for x in above[1:]]] == 1.0).all()
        pair = (0, 0, 1)
        seeds = np.array([_seed_for_word0(0, pair), _seed_for_word0(MASK64, pair)],
                         dtype=np.uint64)
        low, top = sample_wins(np.array([pair]), np.array([count]), cdf, seeds[:, None])[:, 0]
        assert below[low] <= 2**-45
        assert above[top] >= 2**-60 and above[top + 1] <= 2**-45

    def test_mixed_counts_in_one_plan(self, t2):
        """Counts of 1, 2, 9 and 4,096 interleaved: the table holds each pair's
        own CDF once, from its first entry at its stride, every entry of the
        table belongs to one pair, and the draws are the oracle's; so is t2's
        plan (counts 1 and 3).  The two sum the log-pmf's terms, each up to
        c·|log q| ≈ 2,840 at c = 4,096, in different orders, so their CDFs
        agree to a few ulps of that: a relative 1e-12."""
        counts = np.array([9, 1, 4096, 2, 9, 1])
        p_first = np.array([0.3, 0.6, 0.5, 0.01, 0.99, 1.0])
        cdf = count_cdf(counts, p_first)
        table, first, stride = cdf
        cdfs = [oracle_count_cdf(c, p) for c, p in zip(counts.tolist(), p_first.tolist())]
        entries = [at + step * np.arange(len(want))
                   for at, step, want in zip(first.tolist(), stride.tolist(), cdfs)]
        assert sorted(np.concatenate(entries).tolist()) == list(range(len(table)))
        for at, want in zip(entries, cdfs):
            np.testing.assert_allclose(table[at], want, rtol=1e-12, atol=1e-300)
        pairs = _pairs(len(counts))
        seeds = list(range(300))
        wins = sample_wins(pairs, counts, cdf, np.array(seeds, dtype=np.uint64)[:, None])
        assert wins.tolist() == [[oracle_wins(seed, pair, c) for pair, c in
                                  zip(pairs.tolist(), cdfs)] for seed in seeds]
        pairs, counts, p_first = sampling_plan(t2, 3)
        assert counts.tolist() == [1, 3]
        cdfs = [oracle_count_cdf(c, p) for c, p in zip(counts.tolist(), p_first.tolist())]
        for seed in range(50):
            assert sample_dataset(t2, 3, seed).wins.tolist() == \
                [oracle_wins(seed, pair, c) for pair, c in zip(pairs.tolist(), cdfs)]

    def test_stacked_draw_allocates_no_record_sized_array(self, paper_instance):
        """200 repetitions at n = 40,000 (445 records per pair): the draw's
        peak allocation stays below one byte per (repetition, record)."""
        n, R = 40_000, 200
        pairs, counts, p_first = sampling_plan(paper_instance, n)
        cdf = count_cdf(counts, p_first)
        seeds = stream_keys(3, "data", n, np.arange(R))[:, None]
        tracemalloc.start()
        try:
            wins = sample_wins(pairs, counts, cdf, seeds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert wins.shape == (R, len(pairs)) and wins.dtype == np.int64
        assert peak < R * int(counts.sum()), peak


class TestProportions:
    def test_counting(self):
        records = np.array(
            [[0, 0, 1, 1], [0, 0, 1, 0], [0, 0, 1, 1], [0, 0, 2, 0]]
        )
        data = PreferenceDataset.from_records(records, n=4)
        props = empirical_proportions(data, (1, 3))
        assert props[0, 0, 1] == 0.75
        assert props[0, 0, 2] == 0.25
        assert props[0, 1, 2] == 0.0

    def test_sampled_dataset_has_unit_mass_pair(self, t1):
        data = sample_dataset(t1, 10, seed=1)
        assert empirical_proportions(data, (1, 2))[0, 0, 1] == 1.0

    def test_matches_ceil_adjusted_schedule(self, paper_instance):
        n = 123
        data = sample_dataset(paper_instance, n, seed=4)
        props = empirical_proportions(data, (2, 10))
        for k, i, j in paper_instance.observed_pairs():
            expected = math.ceil(paper_instance.schedule[k, i, j] * n - 1e-9) / n
            assert props[k, i, j] == expected
        assert len(data.records) == int(round(props.sum() * n))

    def test_out_of_range_rejected(self):
        data = PreferenceDataset.from_records(np.array([[0, 0, 5, 1]]), n=1)
        with pytest.raises(ValidationError):
            empirical_proportions(data, (1, 3))

    @pytest.mark.parametrize("bit", [2, -1])
    def test_winner_bit_outside_zero_one_rejected(self, bit):
        records = np.array([[0, 0, 1, 1], [0, 0, 1, bit]])
        with pytest.raises(ValidationError, match="record 1: winner_is_first"):
            PreferenceDataset.from_records(records, n=2)


class TestFiles:
    def test_instance_round_trip(self, tmp_path, paper_instance):
        path = tmp_path / "instance.json"
        save_instance(paper_instance, path)
        loaded = load_instance(path)
        assert np.array_equal(loaded.features, paper_instance.features)
        assert np.array_equal(loaded.theta, paper_instance.theta)
        assert np.array_equal(loaded.rho, paper_instance.rho)
        assert np.array_equal(loaded.schedule, paper_instance.schedule)
        assert loaded.reward_bound == paper_instance.reward_bound

    def test_instance_schema_keys(self, tmp_path, t1):
        path = tmp_path / "t1.json"
        save_instance(t1, path)
        payload = json.loads(path.read_text())
        assert set(payload) == {"S", "A", "d", "features", "theta", "rho", "schedule", "L"}
        assert payload["schedule"] == [[0, 0, 1, 1.0]]

    def test_dataset_round_trip(self, tmp_path, paper_instance):
        data = sample_dataset(paper_instance, 50, seed=2)
        path = tmp_path / "data.csv"
        save_dataset(data, path)
        assert path.read_text().splitlines()[0] == "state,first,second,winner_is_first"
        loaded = load_dataset(path)
        assert np.array_equal(loaded.records, data.records)

    @pytest.mark.parametrize("row, reason", [
        ("0,1,0,1", "first 1 is not below second 0"),
        ("0,0,1,3", "winner_is_first is 3, must be 0 or 1"),
        ("-1,0,1,1", "state index -1 is negative"),
    ])
    def test_refused_rows_are_named_by_file_and_line(self, tmp_path, row, reason):
        """Blank lines are skipped but counted: the bad row after the blank
        line 3 is line 4, not record 1."""
        path = tmp_path / "bad.csv"
        path.write_text("state,first,second,winner_is_first\n0,0,1,1\n\n" + row + "\n0,0,1,0\n")
        with pytest.raises(ValidationError, match=rf"^{re.escape(f'{path} line 4: {reason}')}$"):
            load_dataset(path)

    def test_header_only_dataset_is_refused_by_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("state,first,second,winner_is_first\n\n")
        with pytest.raises(ValidationError, match=rf"^{re.escape(f'{path} has no records')}$"):
            load_dataset(path)

    def test_malformed_instance_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"S": 1, "A": 2}))
        with pytest.raises(ValidationError):
            load_instance(path)


class TestPerPairDataset:
    """The dataset holds per-pair counts and wins, tallied once from records."""

    @pytest.mark.parametrize("pairs, counts, wins, n, reason", [
        ([[0, 0, 1]], [2], [1], 0, "n must be >= 1"),
        ([[0, 0, 1]], [2.0], [1], 2, "counts must be integers"),
        ([[0, 0, 1], [0, 0, 2]], [2], [1], 2, "not shaped"),
        ([[0, 0, 1]], [2], [1, 0], 2, "not shaped"),
        ([0, 0, 1], [2], [1], 2, "not shaped"),
        ([[0, 0, 1], [-1, 0, 1]], [2, 2], [1, 1], 2, r"pair 1 \(-1, 0, 1\): state index -1"),
        ([[0, -1, 1]], [2], [1], 2, r"pair 0 \(0, -1, 1\): action index -1 is negative"),
        ([[0, 1, 1]], [2], [1], 2, r"pair 0 \(0, 1, 1\): first 1 is not below second 1"),
        ([[0, 2, 3], [0, 1, 2]], [2, 2], [1, 1], 2, r"pair 1 \(0, 1, 2\): pairs are not sorted"),
        ([[1, 0, 1], [0, 0, 2]], [2, 2], [1, 1], 2, r"pair 1 \(0, 0, 2\): pairs are not sorted"),
        ([[0, 0, 1], [0, 0, 1]], [2, 2], [1, 1], 2, r"pair 1 \(0, 0, 1\): pairs are not sorted"),
        ([[0, 0, 1]], [0], [0], 2, r"pair 0 \(0, 0, 1\): count 0 is below 1"),
        ([[0, 0, 1]], [2], [-1], 2, r"pair 0 \(0, 0, 1\): wins -1 lie outside \[0, 2\]"),
        ([[0, 0, 1]], [2], [3], 2, r"pair 0 \(0, 0, 1\): wins 3 lie outside \[0, 2\]"),
    ])
    def test_constructor_refusals(self, pairs, counts, wins, n, reason):
        with pytest.raises(ValidationError, match=reason):
            PreferenceDataset(np.array(pairs), np.array(counts), np.array(wins), n)

    def test_fields_are_read_only_int64(self):
        data = PreferenceDataset([[0, 0, 1], [1, 0, 2]], [3, 1], [2, 0], 4)
        for field in (data.pairs, data.counts, data.wins, data.records):
            assert field.dtype == np.int64 and not field.flags.writeable
        assert data.records.tolist() == [[0, 0, 1, 1], [0, 0, 1, 1], [0, 0, 1, 0], [1, 0, 2, 0]]
        empty = PreferenceDataset.from_records(np.zeros((0, 4), dtype=np.int64), n=1)
        assert empty.pairs.shape == (0, 3) and empty.records.shape == (0, 4)

    @pytest.mark.parametrize("record, reason", [
        ([0, 1, 1, 0], r"^record 2: first 1 is not below second 1$"),
        ([0, 2, 1, 1], r"^record 2: first 2 is not below second 1$"),
        ([0, 0, 1, 2], r"^record 2: winner_is_first is 2, must be 0 or 1$"),
        ([-1, 0, 1, 0], r"^record 2: state index -1 is negative$"),
        ([0, -2, 1, 0], r"^record 2: action index -2 is negative$"),
        # The tally's flat key (k·T + i)·T + j, T = 1 + the largest second index,
        # must fit in int64: T = 3,037,000,500 gives T² > 2**63 − 1 alone.
        ([2**62, 0, 1, 1], r"^record 2: indices \(4611686018427387904, 0, 1\) overflow the pair key$"),
        ([0, 0, 3_037_000_499, 1], r"^record 2: indices \(0, 0, 3037000499\) overflow the pair key$"),
        ([1, 0, 2**31, 1], r"^record 2: indices \(1, 0, 2147483648\) overflow the pair key$"),
    ])
    def test_from_records_names_the_bad_row(self, record, reason):
        with pytest.raises(ValidationError, match=reason):
            PreferenceDataset.from_records([[0, 0, 1, 1], [0, 0, 2, 0], record], n=3)

    def test_largest_key_that_fits_is_tallied(self):
        data = PreferenceDataset.from_records([[0, 0, 3_037_000_498, 1], [0, 0, 1, 0]], n=2)
        assert data.pairs.tolist() == [[0, 0, 1], [0, 0, 3_037_000_498]]
        assert data.counts.tolist() == [1, 1] and data.wins.tolist() == [0, 1]

    def test_shuffled_tally_matches_a_dict_oracle(self):
        v = load_instance(next(p for p in COMMITTED if p.stem == "S4-A100-d8-seed7"))
        data = sample_dataset(v, 20 * v.num_actions**2, seed=2)
        records = np.random.default_rng(3).permutation(data.records)
        assert not np.array_equal(records, data.records)
        tally = {}
        for k, i, j, won in records.tolist():
            counts = tally.setdefault((k, i, j), [0, 0])
            counts[0] += 1
            counts[1] += won
        got = PreferenceDataset.from_records(records, data.n)
        assert len(records) == 217_800 and got.n == data.n
        assert got.pairs.tolist() == [list(key) for key in sorted(tally)]
        assert got.counts.tolist() == [tally[key][0] for key in sorted(tally)]
        assert got.wins.tolist() == [tally[key][1] for key in sorted(tally)]

    def test_records_round_trip_field_for_field(self, paper_instance):
        other = random_consistent_instance(np.random.default_rng(5))
        for v, n in ((paper_instance, 137), (other, 60)):
            data = sample_dataset(v, n, seed=11)
            again = PreferenceDataset.from_records(data.records, data.n)
            for name in ("pairs", "counts", "wins"):
                assert getattr(again, name).tobytes() == getattr(data, name).tobytes()
            assert again.n == data.n

    def test_shuffled_csv_gives_the_same_estimates(self, tmp_path, paper_instance):
        v, privacy = paper_instance, PrivacyParams(epsilon=0.9, delta=0.2)
        kernel = validate_kernel(
            np.random.default_rng(2024).dirichlet(np.ones(2), size=(2, 10)), (2, 10))
        save_dataset(sample_dataset(v, 200, seed=3), tmp_path / "data.csv")
        header, *body = (tmp_path / "data.csv").read_text().splitlines()
        np.random.default_rng(9).shuffle(body)
        (tmp_path / "shuffled.csv").write_text("\n".join([header, *body]) + "\n")
        outputs = []
        for name in ("data.csv", "shuffled.csv"):
            data = load_dataset(tmp_path / name)
            report = rl_low(data, v.features, v.reward_bound, tie_seed=4)
            private = dp_rl_low(data, v.features, v.reward_bound, privacy, seed=5, tie_seed=4)
            fit = mle_fit(data, v.features, v.reward_bound)
            policy = rl_low_mdp(data, v.features, v.reward_bound, kernel, v.rho, tie_seed=4)
            outputs.append((report.rhat.tobytes(), report.selections.tobytes(),
                            private.rhat.tobytes(), private.selections.tobytes(),
                            fit.theta_hat.tobytes(), fit.status, policy))
        assert outputs[0] == outputs[1]

    def test_load_save_load_is_a_fixed_point(self, tmp_path, paper_instance):
        save_dataset(sample_dataset(paper_instance, 90, seed=8), tmp_path / "a.csv")
        first = load_dataset(tmp_path / "a.csv")
        save_dataset(first, tmp_path / "b.csv")
        second = load_dataset(tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        for name in ("pairs", "counts", "wins", "records"):
            assert getattr(first, name).tobytes() == getattr(second, name).tobytes()
        assert first.n == second.n == len(first.records)

    @pytest.mark.parametrize("pairs, reason", [
        ([[0, 0, 1], [5, 0, 1]], r"^dataset pair 1 \(5, 0, 1\): state index 5 is outside S = 2$"),
        ([[0, 0, 1], [1, 0, 7]], r"^dataset pair 1 \(1, 0, 7\): action index 7 is outside A = 4$"),
        ([[0, 0, 9], [3, 0, 1]], r"^dataset pair 0 \(0, 0, 9\): action index 9 is outside A = 4$"),
    ], ids=["state", "action", "first-pair"])
    def test_out_of_range_index_names_its_pair(self, pairs, reason):
        data = PreferenceDataset(pairs, [1, 1], [0, 1], 2)
        with pytest.raises(ValidationError, match=reason):
            data.check_dims((2, 4))

    @pytest.mark.parametrize("dims, reason", [((1, 3), "state index"), ((2, 2), "action index")])
    def test_indices_outside_the_instance_refused_by_every_caller(self, dims, reason):
        data = PreferenceDataset([[0, 0, 1], [1, 0, 2]], [3, 1], [2, 0], 4)
        features = np.random.default_rng(0).normal(size=(*dims, 2))
        for call in (lambda: empirical_proportions(data, dims),
                     lambda: rl_low(data, features, 10.0),
                     lambda: mle_fit(data, features, 10.0)):
            with pytest.raises(ValidationError, match=reason):
                call()
