"""Gaussian mechanism calibration, label-freeness, and private pipeline."""

import math
import warnings

import numpy as np
import pytest

from lowpref import (
    PreferenceDataset,
    PrivacyParams,
    SuccessRates,
    ValidationError,
    build_weight_table,
    dp_rl_low,
    empirical_proportions,
    estimate_relative_rewards,
    gaussian_mechanism,
    rl_low,
    sample_dataset,
    success_rates,
)
import lowpref.privacy as privacy_mod
from conftest import sensitivity_audit

PRIVACY = PrivacyParams(epsilon=0.9, delta=0.2)
EXPECTED_STD = math.sqrt(2 * math.log(1.25 / 0.2)) / (0.9 * 100 * 1.0)


def zero_noise(seed, pairs, stds):
    return np.zeros(len(stds))


def stacked_draws(rates, schedule, n, draws):
    """Noise of ``draws`` mechanism calls with seeds 0, 1, ..., one row per
    seed: one call on stacked rates with a seed column gives the draws that
    one call per seed gives."""
    stacked = SuccessRates(rates.pairs, np.tile(rates.raw, (draws, 1)), rates.clip_bound)
    perturbed = gaussian_mechanism(stacked, schedule, n, PRIVACY, np.arange(draws)[:, None])
    return perturbed.raw - rates.raw


def noise_stds(rates, schedule, n, monkeypatch):
    """The per-pair stds the mechanism hands to its noise draw."""
    seen = []

    def capture(seed, pairs, stds):
        seen.append(stds)
        return np.zeros(len(stds))

    monkeypatch.setattr(privacy_mod, "_draw_noise", capture)
    gaussian_mechanism(rates, schedule, n, PRIVACY, seed=1)
    return seen[0]


class TestParams:
    @pytest.mark.parametrize("eps,delta", [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0), (-1, 0.2)])
    def test_rejects_outside_open_interval(self, eps, delta):
        with pytest.raises(ValidationError):
            PrivacyParams(epsilon=eps, delta=delta)

    def test_accepts_interior(self):
        PrivacyParams(epsilon=0.9, delta=0.2)

    def test_rejects_delta_whose_inverse_overflows(self):
        # 1.25 / 1e-320 is inf, and so would be H_dp and every noise scale.
        with pytest.raises(ValidationError, match="delta is too small"):
            PrivacyParams(epsilon=0.9, delta=1e-320)
        PrivacyParams(epsilon=0.9, delta=7e-309)  # 1.25 / delta is finite


class TestNonFiniteNoiseScale:
    def test_dp_rl_low_refuses_before_it_warns(self, t1):
        # epsilon * n * N = 1e-318 puts sqrt(2 ln(1.25 / delta)) / (epsilon * n * N) past
        # the largest double.
        data = sample_dataset(t1, 100, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="not finite at epsilon=1e-320"):
                dp_rl_low(data, t1.features, t1.reward_bound,
                          PrivacyParams(epsilon=1e-320, delta=0.2), seed=1)

    def test_finite_scales_keep_their_bits(self):
        masses = np.array([1.0, 0.25, 1 / 3, 1e-5])
        for eps, delta, n in [(0.9, 0.2, 100), (1e-300, 1e-300, 7), (0.5, 7e-309, 1)]:
            want = math.sqrt(2 * math.log(1.25 / delta)) / (eps * n * masses)
            got = privacy_mod.noise_scale(n, masses, PrivacyParams(eps, delta))
            assert got.tobytes() == want.tobytes()
            assert privacy_mod.noise_scale(n, 0.25, PrivacyParams(eps, delta)) == want[1]


class TestMechanism:
    def _rates(self, t1, n=100, seed=0):
        data = sample_dataset(t1, n, seed=seed)
        schedule = empirical_proportions(data, (1, 2))
        return data, schedule, success_rates(data, schedule, t1.reward_bound)

    def test_noise_std_formula(self, t1, monkeypatch):
        data, schedule, rates = self._rates(t1)
        stds = noise_stds(rates, schedule, 100, monkeypatch)
        assert stds.tolist() == pytest.approx([EXPECTED_STD], rel=1e-12)
        assert privacy_mod.noise_scale(100, 1.0, PRIVACY) == pytest.approx(EXPECTED_STD, rel=1e-12)
        assert abs(EXPECTED_STD - 0.0212718) < 1e-6

    def test_zero_noise_is_identity(self, t1, monkeypatch):
        data, schedule, rates = self._rates(t1)
        monkeypatch.setattr(privacy_mod, "_draw_noise", zero_noise)
        perturbed = gaussian_mechanism(rates, schedule, 100, PRIVACY, seed=1)
        assert np.array_equal(perturbed.pairs, rates.pairs)
        assert np.array_equal(perturbed.raw, rates.raw)
        assert perturbed.clip_bound == rates.clip_bound

    def test_balanced_rate_with_zero_noise_stays_balanced(self, t1, monkeypatch):
        records = np.asarray([[0, 0, 1, 1]] * 50 + [[0, 0, 1, 0]] * 50)
        data = PreferenceDataset.from_records(records, n=100)
        schedule = empirical_proportions(data, (1, 2))
        rates = success_rates(data, schedule, t1.reward_bound)
        monkeypatch.setattr(privacy_mod, "_draw_noise", zero_noise)
        perturbed = gaussian_mechanism(rates, schedule, 100, PRIVACY, seed=0)
        assert perturbed.raw[0] == 0.5

    def test_complement_orientation(self, t1):
        data, schedule, rates = self._rates(t1)
        perturbed = gaussian_mechanism(rates, schedule, 100, PRIVACY, seed=4)
        # One noisy rate per pair, for the lower-indexed action: the reverse
        # orientation is its complement by construction, never drawn apart.
        assert perturbed.pairs.tolist() == [[0, 0, 1]] and perturbed.raw.shape == (1,)
        table = build_weight_table(schedule, t1.features)
        assert -2.0 <= estimate_relative_rewards(perturbed, table, t1.features)[0, 1] <= 2.0

    def test_rates_past_zero_and_one_give_twice_the_bound(self, t1, wide_gap):
        # At n = 10 the noise std is about 0.21, so it carries many rates of
        # 0 below 0 and of 1 above 1.  Their log-odds are -inf and +inf, which
        # clip to exactly -2L and 2L, without a RuntimeWarning.
        for v in (t1, wide_gap):
            L = v.reward_bound
            table = build_weight_table(v.schedule, v.features)
            rates = SuccessRates(table.pairs, np.repeat([[0.0], [1.0]], 200, axis=0), L)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                noisy = gaussian_mechanism(rates, v.schedule, 10, PRIVACY,
                                           np.arange(400)[:, None])
                rhat = estimate_relative_rewards(noisy, table, v.features)[:, 0, 1]
            below, above = noisy.raw[:, 0] < 0, noisy.raw[:, 0] > 1
            assert below.sum() > 50 and above.sum() > 50
            assert rhat[below].tolist() == [2 * L] * below.sum()
            assert rhat[above].tolist() == [-2 * L] * above.sum()

    def test_empirical_std_calibration(self, t1):
        data, schedule, rates = self._rates(t1)
        draws = stacked_draws(rates, schedule, 100, 100_000)[:, 0]
        measured = draws.std(ddof=1)
        assert abs(measured - EXPECTED_STD) <= 0.02 * EXPECTED_STD
        assert abs(draws.mean()) <= 4 * EXPECTED_STD / math.sqrt(draws.size)

    def test_noise_independence_across_pairs(self, tri):
        data = sample_dataset(tri, 50, seed=0)
        schedule = empirical_proportions(data, (1, 3))
        rates = success_rates(data, schedule, tri.reward_bound)
        a, b = stacked_draws(rates, schedule, 50, 100_000).T
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) <= 0.02

    def test_reproducible_given_seed(self, t1):
        data, schedule, rates = self._rates(t1)
        p1 = gaussian_mechanism(rates, schedule, 100, PRIVACY, seed=9)
        p2 = gaussian_mechanism(rates, schedule, 100, PRIVACY, seed=9)
        assert np.array_equal(p1.raw, p2.raw)


class TestSensitivity:
    def test_full_mass_pair(self):
        schedule = np.zeros((1, 2, 2))
        schedule[0, 0, 1] = 1.0
        assert sensitivity_audit(schedule, 100) == {(0, 0, 1): 0.01}

    def test_quarter_mass_pair(self):
        schedule = np.zeros((1, 2, 2))
        schedule[0, 0, 1] = 0.25
        assert sensitivity_audit(schedule, 100)[(0, 0, 1)] == pytest.approx(0.04)

    def test_std_equals_scaled_sensitivity(self, paper_instance, monkeypatch):
        data = sample_dataset(paper_instance, 200, seed=1)
        schedule = empirical_proportions(data, (2, 10))
        rates = success_rates(data, schedule, paper_instance.reward_bound)
        stds = noise_stds(rates, schedule, 200, monkeypatch)
        audit = sensitivity_audit(schedule, 200)
        scale = math.sqrt(2 * math.log(1.25 / PRIVACY.delta)) / PRIVACY.epsilon
        assert [tuple(p) for p in rates.pairs.tolist()] == list(audit)
        for std, sens in zip(stds, audit.values()):
            assert std == pytest.approx(scale * sens, rel=1e-12)

    def test_label_flip_changes_rate_by_audited_amount(self, t1):
        data = sample_dataset(t1, 40, seed=3)
        schedule = empirical_proportions(data, (1, 2))
        rates = success_rates(data, schedule, t1.reward_bound)
        flipped = np.array(data.records)
        flipped[0, 3] = 1 - flipped[0, 3]
        rates2 = success_rates(
            PreferenceDataset.from_records(flipped, n=40), schedule, t1.reward_bound
        )
        delta = abs(rates2.raw[0] - rates.raw[0])
        audit = sensitivity_audit(schedule, 40)
        assert delta == pytest.approx(audit[(0, 0, 1)], rel=1e-12)


class TestPrivatePipeline:
    def test_zero_noise_stub_matches_public_run(self, paper_instance, monkeypatch):
        v = paper_instance
        data = sample_dataset(v, 150, seed=17)
        plain = rl_low(data, v.features, v.reward_bound, tie_seed=3)
        monkeypatch.setattr(privacy_mod, "_draw_noise", zero_noise)
        private = dp_rl_low(data, v.features, v.reward_bound, PRIVACY, seed=5, tie_seed=3)
        assert np.array_equal(private.rhat, plain.rhat)
        assert np.array_equal(private.selections, plain.selections)

    def test_weights_are_label_free(self, paper_instance):
        v = paper_instance
        data = sample_dataset(v, 120, seed=6)
        flipped_records = np.array(data.records)
        flipped_records[:, 3] = 1 - flipped_records[:, 3]
        flipped = PreferenceDataset.from_records(flipped_records, n=120)

        schedule_a = empirical_proportions(data, (2, 10))
        schedule_b = empirical_proportions(flipped, (2, 10))
        assert np.array_equal(schedule_a, schedule_b)
        table_a = build_weight_table(schedule_a, v.features)
        table_b = build_weight_table(schedule_b, v.features)
        assert np.array_equal(table_a.scale, table_b.scale)
        assert np.array_equal(table_a.diff_coords, table_b.diff_coords)
        assert np.array_equal(table_a.basis, table_b.basis)
        entry_a = table_a.entry((0, 4, 0), v.features)
        entry_b = table_b.entry((0, 4, 0), v.features)
        assert np.array_equal(entry_a.weights, entry_b.weights)

    def test_accurate_selection_with_small_noise(self, t1):
        correct = 0
        for seed in range(200):
            data = sample_dataset(t1, 10_000, seed=seed)
            report = dp_rl_low(
                data, t1.features, t1.reward_bound, PRIVACY, seed=seed, tie_seed=seed
            )
            correct += int(report.selections[0] == 0)
        # Noise std ~2.1e-4 against a log-odds gap of 1; failures are
        # essentially impossible at this n.
        assert correct >= 198

    def test_selection_agreement_improves_with_n(self, t1):
        from lowpref.rng import derive_seed

        disagreement = {}
        for n in (100, 1000, 10_000):
            count = 0
            for rep in range(200):
                data = sample_dataset(t1, n, seed=derive_seed(13, "data", n, rep))
                plain = rl_low(data, t1.features, 1.0, tie_seed=rep)
                private = dp_rl_low(
                    data, t1.features, 1.0, PRIVACY,
                    seed=derive_seed(13, "noise", n, rep), tie_seed=rep,
                )
                count += int(plain.selections[0] != private.selections[0])
            disagreement[n] = count / 200
        assert disagreement[100] >= disagreement[1000] >= disagreement[10_000]
        assert disagreement[10_000] <= 0.01
