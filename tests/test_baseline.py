"""Constrained logistic MLE baseline."""

import math

import numpy as np
import pytest

from lowpref import (
    PreferenceDataset,
    ValidationError,
    mle_fit,
    mle_select,
    sample_dataset,
)
from lowpref.baseline import MAX_ITERATIONS
from lowpref.instances import sampling_plan
from lowpref.rng import derive_seed, stream_keys, substream
from conftest import mle_gradient, mle_log_likelihood, random_consistent_instance


def records_on_t1(wins, losses):
    rows = [[0, 0, 1, 1]] * wins + [[0, 0, 1, 0]] * losses
    return PreferenceDataset.from_records(np.asarray(rows), n=wins + losses)


def numpy_stream_dataset(v, n, seed):
    """The dataset drawn with one numpy generator per pair, as
    ``substream(seed, "sample", k, i, j).random(count) < p_first``."""
    pairs, counts, p_first = sampling_plan(v, n)
    wins = [np.count_nonzero(substream(seed, "sample", k, i, j).random(count) < p)
            for (k, i, j), count, p in zip(pairs.tolist(), counts.tolist(), p_first.tolist())]
    return PreferenceDataset(pairs, counts, wins, n)


class TestFit:
    def test_single_parameter_closed_form(self, t1):
        data = records_on_t1(73, 27)
        fit = mle_fit(data, t1.features, L=1.0)
        assert fit.converged
        assert fit.theta_hat[0] == pytest.approx(math.log(73 / 27), abs=1e-8)
        assert fit.theta_hat[0] == pytest.approx(0.99462, abs=1e-5)

    def test_balanced_data_gives_zero(self, t1):
        data = records_on_t1(50, 50)
        fit = mle_fit(data, t1.features, L=1.0)
        assert fit.converged and fit.iterations == 0
        assert fit.theta_hat[0] == 0.0

    def test_separable_data_pinned_at_boundary(self, t1):
        data = records_on_t1(40, 0)
        fit = mle_fit(data, t1.features, L=1.0)
        # The likelihood increases toward the feasible boundary; the fit
        # stops exactly on the reward-bound face with the gradient still
        # pushing outward along the active constraint normal.
        assert fit.theta_hat[0] == pytest.approx(1.0, abs=1e-12)
        grad = mle_gradient(data, t1.features, fit.theta_hat)
        assert grad[0] > 0  # KKT: outward multiplier on the active face

    def test_reward_bound_respected(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            v = random_consistent_instance(rng)
            data = sample_dataset(v, 80, seed=int(rng.integers(1e6)))
            fit = mle_fit(data, v.features, v.reward_bound)
            rewards = v.features @ fit.theta_hat
            assert np.max(np.abs(rewards)) <= v.reward_bound + 1e-6

    def test_fitted_value_dominates_references(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            v = random_consistent_instance(rng)
            data = sample_dataset(v, 60, seed=int(rng.integers(1e6)))
            fit = mle_fit(data, v.features, v.reward_bound)
            at_zero = mle_log_likelihood(data, v.features, np.zeros(v.dim))
            at_truth = mle_log_likelihood(data, v.features, v.theta)
            assert fit.log_likelihood >= at_zero - 1e-9
            assert fit.log_likelihood >= at_truth - 1e-9

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        v = random_consistent_instance(rng)
        data = sample_dataset(v, 50, seed=4)
        for _ in range(5):
            theta = rng.normal(size=v.dim) * 0.5
            grad = mle_gradient(data, v.features, theta)
            step = 1e-5
            for axis in range(v.dim):
                e = np.zeros(v.dim)
                e[axis] = step
                numeric = (
                    mle_log_likelihood(data, v.features, theta + e)
                    - mle_log_likelihood(data, v.features, theta - e)
                ) / (2 * step)
                assert abs(grad[axis] - numeric) <= 1e-6 * max(1.0, abs(numeric))

    def test_consistency_on_t1(self, t1):
        close = 0
        for seed in range(200):
            data = sample_dataset(t1, 10_000, seed=seed)
            fit = mle_fit(data, t1.features, L=1.0)
            close += int(abs(fit.theta_hat[0] - 1.0) <= 0.1)
        assert close >= 0.95 * 200

    def test_empty_dataset_rejected(self, t1):
        empty = PreferenceDataset.from_records(np.zeros((0, 4), dtype=np.int64), n=1)
        with pytest.raises(ValidationError):
            mle_fit(empty, t1.features, L=1.0)


class TestStopRule:
    """How a fit stops: a KKT test on the face-Newton decrement, and a status."""

    # Log-likelihoods the fit reached when it ran to the iteration cap on
    # these cells of the README config (paper instance, master seed 42) while
    # each cell's data seed was ``derive_seed(42, "data", n, rep)`` and each
    # pair drew from its own numpy generator.
    CAPPED_BEFORE = {
        (50, 174): -57.74421996827575,
        (250, 128): -179.60809541375926,
        (250, 154): -182.8615614320118,
    }

    def test_interior_optimum(self, t1):
        fit = mle_fit(records_on_t1(73, 27), t1.features, L=1.0)
        assert fit.status == "interior" and fit.converged

    def test_boundary_optimum(self, t1):
        fit = mle_fit(records_on_t1(40, 0), t1.features, L=1.0)
        assert fit.status == "boundary_kkt" and fit.converged

    def test_formerly_capped_cells_stop_at_least_as_high(self, paper_instance):
        v = paper_instance
        for (n, rep), before in self.CAPPED_BEFORE.items():
            data = numpy_stream_dataset(v, n, derive_seed(42, "data", n, rep))
            fit = mle_fit(data, v.features, v.reward_bound)
            assert fit.status != "cap" and fit.iterations < MAX_ITERATIONS, (n, rep)
            assert fit.log_likelihood >= before - 1e-9, (n, rep)

    def test_readme_config_fits_all_stop_at_kkt_points(self, paper_instance):
        v = paper_instance
        statuses = {}
        for n in range(50, 401, 50):
            for rep in range(200):
                data = sample_dataset(v, n, seed=int(stream_keys(42, "data", n, rep)))
                status = mle_fit(data, v.features, v.reward_bound).status
                statuses[status] = statuses.get(status, 0) + 1
        assert set(statuses) <= {"interior", "boundary_kkt"}, statuses
        assert sum(statuses.values()) == 1600

    def test_likelihood_matches_per_record_sum(self, t1, t2, paper_instance):
        rng = np.random.default_rng(5)
        cases = [(t1, 30), (t2, 50), (paper_instance, 200)]
        cases += [(random_consistent_instance(rng), int(rng.integers(5, 300))) for _ in range(20)]
        for v, n in cases:
            data = sample_dataset(v, n, seed=int(rng.integers(1e6)))
            fit = mle_fit(data, v.features, v.reward_bound)
            per_record = mle_log_likelihood(data, v.features, fit.theta_hat)
            assert fit.log_likelihood == pytest.approx(per_record, rel=1e-10, abs=0.0)


class TestSelect:
    def test_true_parameter_recovers_optima(self, paper_instance):
        v = paper_instance
        fit_like = mle_fit(
            sample_dataset(v, 50, seed=0), v.features, v.reward_bound
        )
        object.__setattr__(fit_like, "theta_hat", np.array(v.theta))
        assert np.array_equal(mle_select(fit_like, v.features), v.best_actions())

    def test_zero_parameter_ties_uniformly(self, t1):
        from lowpref.baseline import MleFit

        fit = MleFit(theta_hat=np.zeros(1), log_likelihood=0.0, status="interior", iterations=0)
        picks = [mle_select(fit, t1.features, tie_seed=s)[0] for s in range(4000)]
        freq = np.mean(np.asarray(picks) == 0)
        assert abs(freq - 0.5) <= 0.03

    def test_positive_estimate_selects_first(self, t1):
        from lowpref.baseline import MleFit

        fit = MleFit(
            theta_hat=np.array([0.99]), log_likelihood=0.0, status="interior", iterations=3
        )
        assert mle_select(fit, t1.features)[0] == 0
