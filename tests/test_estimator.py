"""Estimation pipeline: clipped log-odds, basis, whitening, weights, estimates."""

import dataclasses
import math
import re
import time
import types

import numpy as np
import pytest

from lowpref import (
    InconsistencyError,
    NumericalError,
    PreferenceDataset,
    ValidationError,
    build_weight_table,
    empirical_proportions,
    estimate_relative_rewards,
    load_instance,
    local_weights_qp_oracle,
    make_instance,
    rl_low,
    sample_dataset,
    select_best_actions,
    success_rates,
)
from lowpref.estimator import SuccessRates, _pair_log_odds, dataset_inputs
from lowpref.instances import observed_differences
from lowpref.baseline import MleFit, mle_select
from lowpref.rng import stream_keys
from conftest import (
    COMMITTED,
    oracle_integer,
    oracle_key,
    random_consistent_instance,
    tall_instances,
)


def make_rates(table, raw, L=1.0):
    """Rates on the table's pairs for a reward bound of L."""
    return SuccessRates(table.pairs, np.asarray(raw, dtype=float), L)


def observed_diffs(v, table):
    pairs = table.pairs
    return v.features[pairs[:, 0], pairs[:, 1]] - v.features[pairs[:, 0], pairs[:, 2]]


def log_odds(raw, L):
    """The pipeline's clipped log-odds of rates ``raw`` for a reward bound of L."""
    raw = np.asarray(raw, dtype=float)
    pairs = np.tile([0, 0, 1], (raw.size, 1))
    return _pair_log_odds(SuccessRates(pairs, raw, L), types.SimpleNamespace(pairs=pairs))


# 7.65 is a relabelling test instance's bound; at 18 and 18.5 the rate
# 1/(1 + exp(-2L)) rounds near and then to 1; past 354.9 exp(2L) overflows.
BOUNDS = (1.0, 7.65, 18.0, 18.5, 20.0, 354.9, 360.0)


@pytest.mark.filterwarnings("error")
class TestClip:
    """The one log-odds step: log(b) − log1p(−b) of the raw rate, clipped to
    [−2L, 2L] in log space, so the ends are exact for every reward bound and
    rates at or past 0 and 1 raise no RuntimeWarning."""

    def test_identity_region(self):
        # Inside the band the clip leaves the log-odds' bits alone.
        raw = np.linspace(0.12, 0.88, 1001)
        want = np.log(raw) - np.log1p(-raw)
        assert log_odds(raw, 1.0).tobytes() == want.tobytes()
        assert log_odds([0.5], 1.0).tolist() == [0.0]

    def test_upper_bound(self):
        # A rate at or above 1 (the Gaussian mechanism can leave [0, 1]).
        for L in BOUNDS:
            assert log_odds([1.0, 1.3], L).tolist() == [2 * L] * 2
        assert log_odds([0.95], 1.0).tolist() == [2.0]

    def test_lower_bound(self):
        for L in BOUNDS:
            assert log_odds([0.0, -0.3, -0.0], L).tolist() == [-2 * L] * 3
        assert log_odds([0.05], 1.0).tolist() == [-2.0]

    def test_ends_mirror_for_every_bound(self):
        # log_odds(1 - b) == -log_odds(b) at the ends.
        for L in np.concatenate([np.linspace(0.0, 360.0, 4001), BOUNDS]).tolist():
            assert log_odds([1.0, 1.3], L).tolist() == (-log_odds([0.0, -0.3], L)).tolist()
        ends = np.array([0.0, 1e-300, 0.05])
        assert log_odds(1 - ends, 1.0).tolist() == (-log_odds(ends, 1.0)).tolist()

    def test_one_pair_estimates_exactly_twice_the_bound(self):
        # Features -1 and 1 with rewards -theta and theta: the better action
        # wins all 10 records, in either orientation, and rl_low puts action
        # 1 at exactly +-2L.
        schedule = np.zeros((1, 2, 2))
        schedule[0, 0, 1] = 1.0
        for L in BOUNDS[1:]:
            for theta in (L, -L):
                v = make_instance(np.array([[[-1.0], [1.0]]]), [theta], [1.0], schedule, L)
                data = sample_dataset(v, 10, seed=1)
                assert data.wins.tolist() == [10 * (theta < 0)]
                report = rl_low(data, v.features, L)
                assert report.rhat[0].tolist() == [0.0, math.copysign(2 * L, theta)]
                assert report.selections.tolist() == [int(theta > 0)]

    def test_reward_bound_past_exp_overflow(self, wide_gap):
        data = sample_dataset(wide_gap, 10, seed=1)
        assert data.wins.tolist() == [0]  # action 1 wins every record
        report = rl_low(data, wide_gap.features, wide_gap.reward_bound)
        assert report.rhat[0, 1] == 720.0
        assert report.selections.tolist() == [1]


class TestSuccessRates:
    def test_counting(self, t1):
        records = np.array([[0, 0, 1, 1], [0, 0, 1, 1], [0, 0, 1, 0]])
        data = PreferenceDataset.from_records(records, n=3)
        schedule = empirical_proportions(data, (1, 2))
        rates = success_rates(data, schedule, L=1.0)
        assert rates.pairs.tolist() == [[0, 0, 1]]
        assert rates.raw[0] == pytest.approx(2 / 3)

    def test_one_rate_per_observed_pair(self, paper_instance):
        # One rate per observed pair, for the lower-indexed action; the
        # reverse orientation is the implied complement and is not stored.
        data = sample_dataset(paper_instance, 60, seed=0)
        schedule = empirical_proportions(data, (2, 10))
        rates = success_rates(data, schedule, L=paper_instance.reward_bound)
        assert np.array_equal(rates.pairs, paper_instance.observed_pairs())
        table = build_weight_table(schedule, paper_instance.features)
        assert np.array_equal(rates.pairs, table.pairs)
        rec = data.records
        for idx, (k, i, j) in enumerate(rates.pairs):
            rows = (rec[:, 0] == k) & (rec[:, 1] == i) & (rec[:, 2] == j)
            assert rates.raw[idx] == rec[rows, 3].mean()

    def test_all_wins_clipped(self, t1):
        records = np.tile([0, 0, 1, 1], (5, 1))
        data = PreferenceDataset.from_records(records, n=5)
        schedule = empirical_proportions(data, (1, 2))
        rates = success_rates(data, schedule, L=1.0)
        assert rates.raw.tolist() == [1.0]
        assert log_odds(rates.raw, 1.0).tolist() == [2.0]

    def test_schedule_mismatch_rejected(self, t1):
        data = sample_dataset(t1, 5, seed=0)
        with pytest.raises(ValidationError, match="proportions"):
            success_rates(data, t1.schedule * 0.5, L=1.0)

    def test_dataset_inputs_match_public_composition(self, paper_instance, t1):
        # dataset_inputs reads the pair list and masses counts / n, with no
        # dense schedule; its rates and every field of its weight table must be
        # the bytes of empirical_proportions followed by success_rates and
        # build_weight_table.
        rng = np.random.default_rng(31)
        instances = [paper_instance, t1] + [
            random_consistent_instance(rng, s_max=4, a_max=6) for _ in range(20)
        ]
        for v in instances:
            data = sample_dataset(v, int(rng.integers(40, 400)), seed=int(rng.integers(1e6)))
            schedule = empirical_proportions(data, (v.num_states, v.num_actions))
            want = success_rates(data, schedule, v.reward_bound)
            try:
                want_table = build_weight_table(schedule, v.features)
            except InconsistencyError:
                with pytest.raises(InconsistencyError):  # an unobserved chain link
                    dataset_inputs(data, v.features, v.reward_bound)
                continue
            got, table = dataset_inputs(data, v.features, v.reward_bound)
            assert np.array_equal(got.pairs, want.pairs)
            assert got.raw.tobytes() == want.raw.tobytes()
            assert got.clip_bound == want.clip_bound
            for field in dataclasses.fields(table):
                assert getattr(table, field.name).tobytes() == \
                    getattr(want_table, field.name).tobytes(), field.name

    @pytest.mark.parametrize(
        "record, reason",
        [([1, 0, 1, 1], "state index"), ([-1, 0, 1, 1], "state index"),
         ([0, 0, 2, 1], "action index")],
    )
    def test_out_of_range_records_refused(self, t1, record, reason):
        # A negative index is refused as the records are tallied, an index
        # past the instance's (S, A) when the dataset meets the instance.
        def data():
            return PreferenceDataset.from_records(np.array([[0, 0, 1, 1], record]), n=2)

        for call in (
            lambda: empirical_proportions(data(), (1, 2)),
            lambda: rl_low(data(), t1.features, t1.reward_bound),
        ):
            with pytest.raises(ValidationError, match=reason):
                call()


class TestSpanBasis:
    def test_t1_single_direction(self, t1):
        basis = build_weight_table(t1.schedule, t1.features).basis
        assert basis.shape[0] == 1
        assert abs(abs(basis[0, 0]) - 1.0) < 1e-12

    def test_two_directions(self, tri):
        basis = build_weight_table(tri.schedule, tri.features).basis
        assert basis.shape[0] == 2

    def test_orthonormal_and_reconstructs(self, paper_instance):
        v = paper_instance
        basis = build_weight_table(v.schedule, v.features).basis
        assert basis.shape[0] <= 5
        gram = basis @ basis.T
        assert np.max(np.abs(gram - np.eye(basis.shape[0]))) < 1e-12
        for k, i, j in v.observed_pairs()[:10]:
            diff = v.features[k, i] - v.features[k, j]
            recon = (diff @ basis.T) @ basis
            assert np.linalg.norm(recon - diff) < 1e-10

    def test_empty_schedule_rejected(self, t1):
        with pytest.raises(ValidationError):
            build_weight_table(np.zeros_like(t1.schedule), t1.features)

    def test_inconsistent_schedule_refused_with_witness(self, tri):
        schedule = np.zeros_like(tri.schedule)
        schedule[0, 0, 1] = 1.0  # spans f0 - f1 only; f2 - f0 leaves the span
        with pytest.raises(InconsistencyError, match=r"witness pair \(0, 0, 2\)$") as err:
            build_weight_table(schedule, tri.features)
        assert err.value.witness == (0, 0, 2)
        # Every pair observed but those of action 3 in state 1, which alone
        # leaves the plane x3 = 0.
        features = np.random.default_rng(4).normal(size=(2, 4, 3))
        features[:, :, 2] = 0.0
        features[1, 3, 2] = 1.0
        schedule, (iu, ju) = np.zeros((2, 4, 4)), np.triu_indices(4, k=1)
        schedule[:, iu, ju] = 1.0
        schedule[1, :, 3] = 0.0
        with pytest.raises(InconsistencyError) as err:
            build_weight_table(schedule / schedule.sum(), features)
        assert err.value.witness == (1, 0, 3)


class TestDesignMatrix:
    """The mass-weighted Gram matrix V of the observed differences is
    diag(scale²) in the table's basis, and the identity in its whitened
    coordinates."""

    def test_t1(self, t1):
        scale = build_weight_table(t1.schedule, t1.features).scale
        assert scale.shape == (1,)
        assert abs(scale[0] ** 2 - 1.0) < 1e-12

    def test_t2_pools_masses(self, t2):
        scale = build_weight_table(t2.schedule, t2.features).scale
        assert abs(scale[0] ** 2 - 1.0) < 1e-12

    def test_scaling_linearity(self, paper_instance):
        v = paper_instance
        table = build_weight_table(v.schedule, v.features)
        scaled = build_weight_table(np.asarray(v.schedule) * 0.35, v.features)
        assert np.max(np.abs(scaled.scale**2 - 0.35 * table.scale**2)) < 1e-12

    def test_whitened_coordinates_reproduce_v(self, paper_instance):
        rng = np.random.default_rng(19)
        instances = [paper_instance] + [random_consistent_instance(rng) for _ in range(20)]
        for v in instances:
            table = build_weight_table(v.schedule, v.features)
            coords = observed_diffs(v, table) @ table.basis.T
            V = (coords * table.masses[:, None]).T @ coords
            size = max(1.0, float(np.trace(V)))
            assert np.max(np.abs(V - np.diag(table.scale**2))) < 1e-12 * size
            assert np.max(np.abs(table.diff_coords * table.scale - coords)) < 1e-12 * size
            whitened = table.diff_coords * table.masses[:, None] ** 0.5
            assert np.max(np.abs(whitened.T @ whitened - np.eye(len(table.scale)))) < 1e-12
            telescoped = v.features - v.features[:, :1]
            assert np.max(np.abs(table.target_coords * table.scale
                                 - telescoped @ table.basis.T)) < 1e-12 * size

    def test_degenerate_schedule_rejected(self):
        # Two observed differences, (−1, 0) and (−1, −eps): both directions are
        # in the rank, but V's smallest eigenvalue is below 1e-12 of its trace.
        schedule = np.zeros((1, 3, 3))
        schedule[0, 0, 1] = schedule[0, 0, 2] = 0.5
        for eps, refused in ((1e-7, True), (1e-5, False)):
            features = np.array([[[0.0, 0.0], [1.0, 0.0], [1.0, eps]]])
            weighted = observed_differences(features, schedule)[1] * 0.5**0.5
            sigma = np.linalg.svd(weighted, compute_uv=False)
            if refused:
                assert 1e-9 < sigma[1] / sigma[0] < 1e-6
                with pytest.raises(NumericalError, match="numerically singular"):
                    build_weight_table(schedule, features)
            else:
                assert build_weight_table(schedule, features).scale.shape == (2,)


class TestLocalWeights:
    def test_t1_unique_weight(self, t1):
        entry = build_weight_table(t1.schedule, t1.features).entry((0, 0, 1), t1.features)
        assert entry.weights.shape == (1,)
        assert abs(entry.weights[0] - 1.0) < 1e-12
        assert abs(entry.gamma - 1.0) < 1e-12

    def test_t2_inverse_variance_pooling(self, t2):
        entry = build_weight_table(t2.schedule, t2.features).entry((0, 0, 1), t2.features)
        assert np.allclose(entry.weights, [0.2, 0.8], atol=1e-12)
        assert abs(entry.gamma - 1.0) < 1e-12

    def test_unique_decomposition_gamma(self, tri):
        table = build_weight_table(tri.schedule, tri.features)
        entry = table.entry((0, 0, 2), tri.features)
        assert np.allclose(entry.weights, [1.0, 1.0], atol=1e-10)
        assert abs(entry.gamma - 4.0) < 1e-10

    def test_antisymmetry(self, paper_instance):
        v = paper_instance
        table = build_weight_table(v.schedule, v.features)
        fwd = table.entry((1, 2, 5), v.features)
        rev = table.entry((1, 5, 2), v.features)
        assert np.max(np.abs(fwd.weights + rev.weights)) < 1e-12

    def test_reconstruction_constraint(self, paper_instance):
        v = paper_instance
        table = build_weight_table(v.schedule, v.features)
        entry = table.entry((0, 3, 0), v.features)
        pairs = table.pairs
        diffs = v.features[pairs[:, 0], pairs[:, 1]] - v.features[pairs[:, 0], pairs[:, 2]]
        recon = entry.weights @ diffs
        target = v.features[0, 3] - v.features[0, 0]
        assert np.max(np.abs(recon - target)) < 1e-8

    def test_target_outside_span_rejected(self, tri):
        # A consistent table on collinear features, f2 = (2, 0), queried with
        # tri's own features, whose f0 - f2 leaves the table's span.
        schedule = np.zeros_like(tri.schedule)
        schedule[0, 0, 1] = 1.0
        collinear = np.array(tri.features)
        collinear[0, 2] = (2.0, 0.0)
        table = build_weight_table(schedule, collinear)
        with pytest.raises(InconsistencyError):
            table.entry((0, 0, 2), tri.features)

    def test_target_outside_the_index_range_refused(self, tri):
        table = build_weight_table(tri.schedule, tri.features)
        for target in ((0, -1, 0), (0, 3, 0), (0, 0, 3), (1, 0, 1), (-1, 0, 1)):
            with pytest.raises(ValidationError, match=rf"^weight target \({target[0]}, "):
                table.entry(target, tri.features)

    def test_qp_oracle_matches(self, t1, t2):
        for v, target in ((t1, (0, 0, 1)), (t2, (0, 0, 1))):
            table = build_weight_table(v.schedule, v.features)
            entry = table.entry(target, v.features)
            analytic = table.entry_dict(entry)
            oracle = local_weights_qp_oracle(target, v.schedule, v.features)
            for key in oracle:
                assert abs(analytic[key] - oracle[key]) < 1e-10

    def test_gamma_identity_and_optimality(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            v = random_consistent_instance(rng)
            table = build_weight_table(v.schedule, v.features)
            k = int(rng.integers(v.num_states))
            i, j = rng.choice(v.num_actions, size=2, replace=False)
            entry = table.entry((k, int(i), int(j)), v.features)
            objective = float(np.sum(entry.weights**2 / table.masses))
            assert abs(objective - entry.gamma) < 1e-8 * max(1.0, entry.gamma)

            # Any feasible perturbation (null-space direction) cannot improve.
            pairs = table.pairs
            diffs = (
                v.features[pairs[:, 0], pairs[:, 1]]
                - v.features[pairs[:, 0], pairs[:, 2]]
            )
            raw = rng.normal(size=len(pairs))
            sol, *_ = np.linalg.lstsq(diffs.T, diffs.T @ raw, rcond=None)
            null_dir = raw - sol
            if np.linalg.norm(null_dir) > 1e-8:
                perturbed = entry.weights + 0.1 * null_dir
                pert_obj = float(np.sum(perturbed**2 / table.masses))
                assert pert_obj >= entry.gamma - 1e-9


class TestEstimates:
    def test_t1_logit_identity(self, t1):
        p = 1.0 / (1.0 + math.exp(-1.0))
        table = build_weight_table(t1.schedule, t1.features)
        rhat = estimate_relative_rewards(make_rates(table, [p]), table, t1.features)
        assert abs(rhat[0, 1] - (-1.0)) < 1e-12
        assert rhat[0, 0] == 0.0

    def test_all_wins_reaches_twice_bound(self, t1):
        records = np.tile([0, 0, 1, 1], (8, 1))
        data = PreferenceDataset.from_records(records, n=8)
        schedule = empirical_proportions(data, (1, 2))
        rates = success_rates(data, schedule, L=1.0)
        table = build_weight_table(schedule, t1.features)
        rhat = estimate_relative_rewards(rates, table, t1.features)
        assert abs(rhat[0, 1] - (-2.0)) < 1e-12  # log-odds bounded by 2L

    def test_reference_action_is_zero(self, paper_instance):
        data = sample_dataset(paper_instance, 90, seed=5)
        report = rl_low(data, paper_instance.features, paper_instance.reward_bound)
        assert np.all(report.rhat[:, 0] == 0.0)

    def test_fast_equals_slow(self, paper_instance):
        v = paper_instance
        data = sample_dataset(v, 150, seed=8)
        schedule = empirical_proportions(data, (2, 10))
        rates = success_rates(data, schedule, v.reward_bound)
        table = build_weight_table(schedule, v.features)
        fast = estimate_relative_rewards(rates, table, v.features, fast_path=True)
        slow = estimate_relative_rewards(rates, table, v.features, fast_path=False)
        assert np.max(np.abs(fast - slow)) < 1e-10

    def test_sign_coherence_with_planted_rates(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            v = random_consistent_instance(rng)
            rewards = v.rewards()
            table = build_weight_table(v.schedule, v.features)
            planted = [
                1.0 / (1.0 + math.exp(rewards[k, j] - rewards[k, i]))
                for k, i, j in table.pairs
            ]
            rates = make_rates(table, planted, v.reward_bound)
            rhat = estimate_relative_rewards(rates, table, v.features)
            expected = rewards - rewards[:, :1]
            assert np.max(np.abs(rhat - expected)) < 1e-9

    def test_degenerate_rate_gives_twice_the_bound(self, t1):
        # t1's reward bound is 1: the lower-indexed action winning every
        # record (rate 1) or none (rate 0) puts action 1 at exactly -2 or 2.
        table = build_weight_table(t1.schedule, t1.features)
        for rate, want in ((1.0, -2.0), (0.0, 2.0)):
            rates = make_rates(table, [rate], t1.reward_bound)
            assert estimate_relative_rewards(rates, table, t1.features)[0, 1] == want

    def test_rates_on_other_pairs_rejected(self, tri):
        full = build_weight_table(tri.schedule, tri.features)
        chain = np.array(tri.schedule)
        chain[0, 0, 1] = 0.0
        chain[0, 0, 2] = 0.5
        other = build_weight_table(chain, tri.features)
        with pytest.raises(ValidationError, match="different pairs"):
            estimate_relative_rewards(make_rates(other, [0.6, 0.4]), full, tri.features)

    def test_basis_independence(self, paper_instance):
        v = paper_instance
        data = sample_dataset(v, 200, seed=11)
        schedule = empirical_proportions(data, (2, 10))
        rates = success_rates(data, schedule, v.reward_bound)

        table = build_weight_table(schedule, v.features)
        rhat1 = estimate_relative_rewards(rates, table, v.features)

        # Another whitening of another basis: a random rotation of the span
        # basis, whitened by the Cholesky factor L of its own V = L L' rather
        # than by the SVD.  The fast path reads only the two coordinate arrays.
        rng = np.random.default_rng(0)
        r = table.basis.shape[0]
        q, _ = np.linalg.qr(rng.normal(size=(r, r)))
        rotated = q @ table.basis
        coords = observed_diffs(v, table) @ rotated.T
        lower = np.linalg.cholesky((coords * table.masses[:, None]).T @ coords)
        whiten = np.linalg.inv(lower).T
        table2 = dataclasses.replace(
            table,
            diff_coords=coords @ whiten,
            target_coords=(v.features - v.features[:, :1]) @ rotated.T @ whiten,
        )
        rhat2 = estimate_relative_rewards(rates, table2, v.features)
        assert np.max(np.abs(rhat1 - rhat2)) < 1e-9


def _estimate_oracle(rates, table):
    """One row's fast-path estimate by the per-row arithmetic: the pipeline's
    log-odds, then a gemv and one matrix-vector product per state."""
    g = table.diff_coords.T @ (table.masses * _pair_log_odds(rates, table))
    return table.target_coords @ g


def _select_oracle(rhat, tie_seed):
    """One (S, A) row's selection by the per-state loop, each tie drawn by the
    scalar oracle from its (tie seed, "tie", k) stream."""
    selections, tie_sets = [], []
    for k, row in enumerate(rhat):
        ties = np.flatnonzero(row == row.max())
        tie_sets.append([int(a) for a in ties])
        pick = 0 if ties.size == 1 else oracle_integer(oracle_key(tie_seed, "tie", k), ties.size)
        selections.append(int(ties[pick]))
    return selections, tie_sets


def _stacked_rates(table, rng, shape, L):
    raw = rng.uniform(0.02, 0.98, size=shape + (len(table.pairs),))
    return SuccessRates(table.pairs, raw, L)


class TestStackedOracle:
    """Stacks (..., m) of rates and (..., S, A) of estimates against the
    per-row arithmetic, bit for bit."""

    @staticmethod
    def _assert_rows_match(rates, table, features):
        stacked = estimate_relative_rewards(rates, table, features)
        assert stacked.shape == rates.raw.shape[:-1] + features.shape[:2]
        for index in np.ndindex(rates.raw.shape[:-1]):
            row = SuccessRates(table.pairs, rates.raw[index], rates.clip_bound)
            want = _estimate_oracle(row, table)
            assert stacked[index].tobytes() == want.tobytes()
            assert estimate_relative_rewards(row, table, features).tobytes() == want.tobytes()

    @pytest.mark.parametrize("path", COMMITTED, ids=lambda p: p.stem)
    def test_committed_instances(self, path):
        v = load_instance(path)
        rng = np.random.default_rng(12)
        for n in ((50, 400) if v.num_actions < 50 else (20_000,)):
            data = sample_dataset(v, n, seed=n)
            _, table = dataset_inputs(data, v.features, v.reward_bound)
            rates = _stacked_rates(table, rng, (6,), v.reward_bound)
            self._assert_rows_match(rates, table, v.features)

    def test_random_instances_and_leading_axes(self):
        rng = np.random.default_rng(77)
        for index in range(40):
            v = random_consistent_instance(rng, s_max=4, a_max=6)
            table = build_weight_table(v.schedule, v.features)
            shape = ((5,), (2, 3), (1,))[index % 3]
            self._assert_rows_match(_stacked_rates(table, rng, shape, v.reward_bound),
                                    table, v.features)

    def test_slow_path_takes_the_same_stacks(self, paper_instance):
        v = paper_instance
        table = build_weight_table(v.schedule, v.features)
        rates = _stacked_rates(table, np.random.default_rng(3), (4, 2), v.reward_bound)
        fast = estimate_relative_rewards(rates, table, v.features)
        slow = estimate_relative_rewards(rates, table, v.features, fast_path=False)
        assert slow.shape == fast.shape == (4, 2, 2, 10)
        assert np.max(np.abs(fast - slow)) < 1e-10
        row = SuccessRates(table.pairs, rates.raw[1, 0], v.reward_bound)
        single = estimate_relative_rewards(row, table, v.features, fast_path=False)
        assert np.max(np.abs(single - slow[1, 0])) < 1e-12

    def test_selection_with_planted_ties(self):
        rng = np.random.default_rng(5)
        R, S, A = 300, 6, 5
        rhat = rng.normal(size=(R, S, A))
        for r, k in zip(rng.integers(R, size=400), rng.integers(S, size=400)):
            tied = rng.choice(A, size=int(rng.integers(2, A + 1)), replace=False)
            rhat[r, k, tied] = rhat[r, k].max()
        rhat[7] = 0.0  # every state of one row ties over all actions
        seeds = stream_keys(9, "tie", np.arange(R))  # uint64, many above 2**63
        selections, tie_sets = select_best_actions(rhat, seeds)
        assert tie_sets is None and selections.shape == (R, S)
        drawn = 0
        for r, seed in enumerate(seeds.tolist()):
            want, ties = _select_oracle(rhat[r], seed)
            assert selections[r].tolist() == want
            got_row, got_ties = select_best_actions(rhat[r], seed)
            assert got_row.tolist() == want and got_ties == ties
            drawn += sum(len(t) > 1 for t in ties)
        assert drawn > 300
        # One seed for the whole stack.
        selections, _ = select_best_actions(rhat[:20], 4)
        for r in range(20):
            assert selections[r].tolist() == _select_oracle(rhat[r], 4)[0]


def _random_targets(rng, S, A, count):
    """(k, i, j) index arrays with i != j in both orders."""
    ks = rng.integers(S, size=count)
    iz = rng.integers(A, size=count)
    js = (iz + rng.integers(1, A, size=count)) % A
    return ks, iz, js


class TestStackedTargets:
    """WeightTable.targets against WeightTable.entry, bit for bit."""

    @staticmethod
    def _assert_matches_entry(table, features, ks, iz, js):
        whitened, gamma = table.targets(features, ks, iz, js)
        assert whitened.shape == (len(ks), table.scale.size) and gamma.shape == (len(ks),)
        for t, target in enumerate(zip(ks.tolist(), iz.tolist(), js.tolist())):
            entry = table.entry(target, features)
            k, i, j = target
            coords = (features[k, i] - features[k, j]) @ table.basis.T
            assert whitened[t].tobytes() == (coords / table.scale).tobytes()
            weights = table.masses * (table.diff_coords @ whitened[t])
            assert weights.tobytes() == entry.weights.tobytes()
            assert float(gamma[t]).hex() == entry.gamma.hex()

    @pytest.mark.parametrize("path", COMMITTED, ids=lambda p: p.stem)
    def test_committed_instances(self, path):
        v = load_instance(path)
        table = build_weight_table(v.schedule, v.features)
        targets = _random_targets(np.random.default_rng(31), v.num_states, v.num_actions, 300)
        self._assert_matches_entry(table, v.features, *targets)

    def test_random_instances(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            v = random_consistent_instance(rng, s_max=4, a_max=6)
            table = build_weight_table(v.schedule, v.features)
            targets = _random_targets(rng, v.num_states, v.num_actions, 25)
            self._assert_matches_entry(table, v.features, *targets)

    def test_refusal_names_the_first_outside_target(self):
        rng = np.random.default_rng(8)
        S, A = 3, 5
        flat = np.concatenate([rng.normal(size=(S, A, 2)), np.zeros((S, A, 1))], axis=2)
        schedule, (iu, ju) = np.zeros((S, A, A)), np.triu_indices(A, k=1)
        schedule[:, iu, ju] = 1.0 / (S * iu.size)
        table = build_weight_table(schedule, flat)  # spans the plane x3 = 0
        lifted = flat.copy()
        lifted[1, 3, 2] = lifted[2, 1, 2] = 1.0  # two actions leave the plane
        for _ in range(20):
            ks, iz, js = _random_targets(rng, S, A, 12)
            outside = (lifted[ks, iz, 2] != 0) | (lifted[ks, js, 2] != 0)
            if not outside.any():
                self._assert_matches_entry(table, lifted, ks, iz, js)
                continue
            first = int(np.argmax(outside))
            want = (int(ks[first]), int(iz[first]), int(js[first]))
            with pytest.raises(InconsistencyError) as err:
                table.targets(lifted, ks, iz, js)
            assert err.value.witness == want
            assert str(err.value) == f"target difference {want} lies outside the observed span"


    def test_index_outside_the_range_refused(self, paper_instance):
        """Named as ``entry`` names it, first bad target first; (0, -1, 0)
        would otherwise wrap to the gamma of (0, 9, 0)."""
        v = paper_instance
        table = build_weight_table(v.schedule, v.features)
        for bad in ((0, -1, 0), (0, 0, 10), (2, 1, 0), (-1, 3, 4), (0, 10, -1)):
            ks, iz, js = (np.array([0, 1, t, 1, 0]) for t in bad)
            iz[[0, 1, 3]], js[[0, 1, 3]] = (1, 2, 3), (0, 5, 9)
            ks[4], iz[4], js[4] = 5, 0, 1  # a later bad target is not the one named
            message = f"weight target {bad} outside (S, A) (2, 10)"
            with pytest.raises(ValidationError) as err:
                table.targets(v.features, ks, iz, js)
            assert str(err.value) == message
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                table.entry(bad, v.features)


class TestTallDesigns:
    """Designs on both sides of ``QR_SVD_ENTRIES``: past it the weight table's
    factors come from the SVD of the R of a QR, and U is never formed."""

    def test_factors_are_the_direct_svds(self):
        instances = tall_instances(3)
        for v in instances:
            table = build_weight_table(v.schedule, v.features)
            _, diffs, masses = observed_differences(v.features, v.schedule)
            root = np.sqrt(masses)
            u, s, vh = np.linalg.svd(diffs * root[:, None], full_matrices=False)
            r = v.dim - (v is instances[-1])  # the last one is rank-deficient
            assert table.scale.size == r
            assert table.scale.tobytes() == s[:r].tobytes()
            assert table.basis.tobytes() == vh[:r].tobytes()
            want = u[:, :r] / root[:, None]
            assert np.max(np.abs(table.diff_coords - want)) <= 1e-12 * np.max(np.abs(want))

    def test_estimates_match_per_target_oracles(self):
        rng = np.random.default_rng(17)
        for v in tall_instances(3):
            data = sample_dataset(v, 20 * v.num_actions**2, seed=v.num_actions)
            rates, table = dataset_inputs(data, v.features, v.reward_bound)
            stacked = _stacked_rates(table, rng, (3,), v.reward_bound)
            TestStackedOracle._assert_rows_match(stacked, table, v.features)
            fast = estimate_relative_rewards(rates, table, v.features)
            slow = estimate_relative_rewards(rates, table, v.features, fast_path=False)
            assert np.max(np.abs(fast - slow)) < 1e-10
            # Weights N·diff·V⁺·target from the normal equations, free of the factorisation.
            diffs, masses = observed_diffs(v, table), table.masses
            gram = (diffs * masses[:, None]).T @ diffs
            targets = (v.features - v.features[:, :1]).reshape(-1, v.dim)
            weights = masses[:, None] * (diffs @ np.linalg.pinv(gram, 1e-10) @ targets.T)
            want = (_pair_log_odds(rates, table) @ weights).reshape(fast.shape)
            assert np.max(np.abs(fast - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))


class TestTransitivity:
    def test_additivity_across_targets(self):
        rng = np.random.default_rng(314)
        checked = 0
        while checked < 200:
            v = random_consistent_instance(rng)
            if v.num_actions < 3:
                continue
            data = sample_dataset(v, int(rng.integers(20, 200)), seed=int(rng.integers(1e6)))
            schedule = empirical_proportions(data, (v.num_states, v.num_actions))
            rates = success_rates(data, schedule, v.reward_bound)
            table = build_weight_table(schedule, v.features)
            from lowpref.estimator import _pair_log_odds

            log_odds = _pair_log_odds(rates, table)
            for _ in range(5):
                k = int(rng.integers(v.num_states))
                i, j, l = rng.choice(v.num_actions, size=3, replace=False)
                r_ij = table.entry((k, int(i), int(j)), v.features).weights @ log_odds
                r_jl = table.entry((k, int(j), int(l)), v.features).weights @ log_odds
                r_il = table.entry((k, int(i), int(l)), v.features).weights @ log_odds
                assert abs(r_ij + r_jl - r_il) < 1e-9
                checked += 1


class TestSelection:
    def test_clear_winner(self):
        selections, ties = select_best_actions(np.array([[0.3, 0.0]]))
        assert selections[0] == 0 and ties == [[0]]

    def test_tie_uniformity(self):
        rhat = np.array([[0.5, 0.5, -1.0]])
        picks = [select_best_actions(rhat, tie_seed=s)[0][0] for s in range(10_000)]
        ties = select_best_actions(rhat, tie_seed=0)[1]
        assert ties == [[0, 1]]
        freq = np.mean(np.asarray(picks) == 0)
        assert abs(freq - 0.5) <= 0.02

    @staticmethod
    def _planted(ties, R=40, S=3, A=4, seed=0):
        """An (R, S, A) stack with exactly ``ties`` tied states."""
        rng = np.random.default_rng(seed)
        rhat = rng.normal(size=(R, S, A))
        for flat in rng.choice(R * S, size=ties, replace=False):
            r, k = divmod(int(flat), S)
            tied = rng.choice(A, size=int(rng.integers(2, A + 1)), replace=False)
            rhat[r, k, tied] = rhat[r, k].max()
        return rhat

    @pytest.mark.parametrize("tie_seed", [-1, 0, 2**63 + 5])
    @pytest.mark.parametrize("ties", [5, 12, 90])
    def test_scalar_seed_matches_substream_loop(self, tie_seed, ties):
        """Any number of ties, one stream per tied state; a scalar seed of any
        sign is masked to 64 bits."""
        rhat = self._planted(ties)
        assert int(((rhat == rhat.max(axis=-1, keepdims=True)).sum(axis=-1) > 1).sum()) == ties
        selections, tie_sets = select_best_actions(rhat, tie_seed)
        assert tie_sets is None
        for r in range(len(rhat)):
            assert selections[r].tolist() == _select_oracle(rhat[r], tie_seed)[0]
        wide = self._planted(ties, R=1, S=120)[0]  # every tie in one (S, A) call
        got, got_ties = select_best_actions(wide, tie_seed)
        assert (got.tolist(), got_ties) == _select_oracle(wide, tie_seed)

    @pytest.mark.parametrize("ties", [5, 12, 90])
    def test_seed_array_matches_substream_loop(self, ties):
        rhat = self._planted(ties, seed=ties)
        seeds = stream_keys(2, "tie", np.arange(len(rhat)))  # uint64, many above 2**63
        for tie_seed in (seeds, seeds.astype(np.int64), np.arange(-20, 20)):
            selections, _ = select_best_actions(rhat, tie_seed)
            for r, seed in enumerate(tie_seed.tolist()):
                assert selections[r].tolist() == _select_oracle(rhat[r], seed)[0]

    @pytest.mark.parametrize("ties", [5, 30])
    def test_mle_select_draws_the_shared_tie_streams(self, ties):
        """Fits pinned to the bound tie on equal features; ``select_best_actions``
        draws them from the same "tie" streams as the estimators' ties."""
        rng = np.random.default_rng(ties)
        theta = rng.normal(size=3)
        features = rng.normal(size=(40, 5, 3))
        for k in range(ties):
            best = int(np.argmax(features[k] @ theta))
            features[k, (best + 1 + np.arange(k % 3 + 1)) % 5] = features[k, best]
        fit = MleFit(theta_hat=theta, log_likelihood=0.0, status="interior", iterations=1)
        rhat = features @ theta
        for seed in (0, 7, 2**64 - 1):
            got = mle_select(fit, features, seed).tolist()
            assert got == _select_oracle(rhat, seed)[0]
            assert got == select_best_actions(rhat, seed)[0].tolist()
        drawn = [mle_select(fit, features, seed) for seed in range(8)]
        assert any((a != drawn[0]).any() for a in drawn[1:])

    def test_non_finite_estimate_is_refused_by_index(self):
        nan, inf = float("nan"), float("inf")
        for rhat, at in (([[0, nan, 1], [2, 1, 0]], r"\(0, 1\)"),
                         ([[0, 1, 2], [inf, 1, 0]], r"\(1, 0\)"),
                         ([[0, 1, -inf], [2, 1, 0]], r"\(0, 2\)"),
                         ([[[0, 1], [2, 1]], [[1, 1], [nan, 0]]], r"\(1, 1, 0\)")):
            with pytest.raises(ValidationError,
                               match=rf"^rhat has a non-finite entry at index {at}$"):
                select_best_actions(np.array(rhat), 0)
        fit = MleFit(theta_hat=np.array([nan, 1.0]), log_likelihood=0.0, status="stalled",
                     iterations=1)
        with pytest.raises(ValidationError, match=r"index \(0, 0\)$"):
            mle_select(fit, np.ones((2, 3, 2)))

    def test_t1_high_rate_selects_first(self, t1):
        table = build_weight_table(t1.schedule, t1.features)
        rhat = estimate_relative_rewards(make_rates(table, [0.9]), table, t1.features)
        selections, _ = select_best_actions(rhat)
        assert selections[0] == 0


class TestPipeline:
    def test_t1_reliable_at_n200(self, t1):
        correct = 0
        for seed in range(200):
            data = sample_dataset(t1, 200, seed=seed)
            report = rl_low(data, t1.features, t1.reward_bound, tie_seed=seed)
            correct += int(report.selections[0] == 0)
        # P(Bin(200, 0.731) < 100) is ~3e-11; all runs should succeed.
        assert correct >= 198

    def test_inconsistent_dataset_refused(self, tri):
        records = np.array([[0, 0, 1, 1], [0, 0, 1, 0]])
        data = PreferenceDataset.from_records(records, n=2)
        with pytest.raises(InconsistencyError) as err:
            rl_low(data, tri.features, tri.reward_bound)
        assert err.value.witness is not None

    def test_deterministic_given_seeds(self, paper_instance):
        v = paper_instance
        data = sample_dataset(v, 100, seed=21)
        a = rl_low(data, v.features, v.reward_bound, tie_seed=5)
        b = rl_low(data, v.features, v.reward_bound, tie_seed=5)
        assert np.array_equal(a.rhat, b.rhat)
        assert np.array_equal(a.selections, b.selections)

    def test_regret_decreases_with_more_data(self, paper_instance):
        from lowpref import simple_regret

        v = paper_instance
        means = {}
        for n in (100, 400):
            total = 0.0
            for rep in range(200):
                data = sample_dataset(v, n, seed=rep)
                report = rl_low(data, v.features, v.reward_bound, tie_seed=rep)
                total += simple_regret(v, report.selections)
            means[n] = total / 200
        assert means[400] < means[100]


class TestComplexityTrend:
    def test_estimate_and_select_scale_linearly_in_states(self):
        """Doubling S*A at fixed (n, d) should not much more than double the
        estimate+select wall time (global-vector path)."""

        def setup(S):
            rng = np.random.default_rng(S)
            A, d = 10, 8
            features = rng.normal(size=(S, A, d))
            schedule = np.zeros((S, A, A))
            iu, ju = np.triu_indices(A, k=1)
            schedule[:, iu, ju] = 1.0
            schedule /= schedule.sum()
            table = build_weight_table(schedule, features)
            vals = rng.uniform(0.2, 0.8, size=len(table.pairs))
            return make_rates(table, vals), table, features

        def measure(args, repeats=50):
            rates, table, features = args
            samples = []
            for _ in range(repeats):
                start = time.perf_counter()
                rhat = estimate_relative_rewards(rates, table, features)
                select_best_actions(rhat)
                samples.append(time.perf_counter() - start)
            return float(np.median(samples))

        small, large = setup(40), setup(80)
        measure(small, repeats=5)  # warm-up
        # Best of three rounds: scheduling blips only ever inflate a round.
        ratio = min(measure(large) / measure(small) for _ in range(3))
        assert ratio < 2.5, f"doubling S*A scaled time by {ratio:.2f}"
