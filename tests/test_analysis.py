"""Hardness coefficients, discrepancy/KL machinery, adversary construction."""

import math
import tracemalloc

import numpy as np
import pytest

from lowpref import (
    HardnessReport,
    InconsistencyError,
    NumericalError,
    PreferenceDataset,
    PrivacyParams,
    ValidationError,
    alt_minimizer,
    build_weight_table,
    d_tilde,
    hardness,
    kl_bracket,
    load_instance,
    lower_bound_adversary,
    make_instance,
    mdp_hardness,
    rl_low,
    sample_dataset,
    suboptimality_gaps,
    validate_kernel,
)
import lowpref.analysis as analysis
from conftest import COMMITTED, random_consistent_instance, tall_instances

PRIVACY = PrivacyParams(epsilon=0.9, delta=0.2)


def with_theta(v, theta):
    rewards = np.asarray(v.features) @ np.asarray(theta, dtype=float)
    bound = max(v.reward_bound, float(np.max(np.abs(rewards))))
    return make_instance(v.features, theta, v.rho, v.schedule, bound)


class TestHardness:
    def test_t1_coefficients(self, t1):
        report = hardness(t1)
        assert report.gamma[(0, 1)] == pytest.approx(1.0, abs=1e-12)
        assert report.gamma_tilde[(0, 1)] == pytest.approx(1.0, abs=1e-12)
        assert report.gamma_dp[(0, 1)] == pytest.approx(1.0, abs=1e-12)
        assert report.gamma_tilde_dp[(0, 1)] == pytest.approx(1.0, abs=1e-12)
        assert report.H == pytest.approx(1.0, abs=1e-12)
        assert report.argmax == (0, 1)

    def test_t2_pooling(self, t2):
        report = hardness(t2)
        for key in ((0, 1), (1, 1)):
            assert report.gamma[key] == pytest.approx(1.0, abs=1e-12)
        assert report.H == pytest.approx(1.0, abs=1e-12)

    def test_mass_scaling_inverts_gamma(self, paper_instance):
        v = paper_instance
        base = hardness(v)
        for c in (0.5, 0.25):
            scaled = make_instance(
                v.features, v.theta, v.rho, np.asarray(v.schedule) * c, v.reward_bound
            )
            report = hardness(scaled)
            for key, value in base.gamma.items():
                assert report.gamma[key] == pytest.approx(value / c, rel=1e-10)

    def test_h_dp_formula(self, t1):
        report = hardness(t1, PRIVACY)
        expected = math.sqrt(math.log(1.25 / 0.2) * 1.0) / (math.sqrt(0.9) * 1.0)
        assert report.H_dp == pytest.approx(expected, rel=1e-12)

    def test_argmax_attains_h(self, paper_instance):
        report = hardness(paper_instance)
        gaps = suboptimality_gaps(paper_instance)
        k, i = report.argmax
        assert report.H == pytest.approx(report.gamma[(k, i)] / gaps[k, i] ** 2)
        for key, gamma in report.gamma.items():
            assert gamma > 0
            assert report.H >= gamma / gaps[key] ** 2 - 1e-12


class TestQMembership:
    def test_t1_vacuous(self, t1):
        assert hardness(t1).q_member

    def test_equal_ratios_fail(self, t2):
        assert not hardness(t2).q_member

    def test_dominant_ratio_passes(self):
        # Orthogonal per-state feature directions with unequal comparison
        # mass: the starved direction's ratio dominates the other by far
        # more than 4x.  (With equal gaps and a shared direction the ratios
        # are forced equal, so dominance needs dimension >= 2.)
        features = np.array(
            [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]]
        )
        schedule = np.zeros((2, 2, 2))
        schedule[0, 0, 1] = 0.9
        schedule[1, 0, 1] = 0.1
        v = make_instance(features, [1.0, 1.0], [0.5, 0.5], schedule, 1.0)
        report = hardness(v)
        gaps = suboptimality_gaps(v)
        ratios = sorted(
            (g / gaps[key] ** 2 for key, g in report.gamma.items()), reverse=True
        )
        assert ratios[0] >= 4 * ratios[1]
        assert report.q_member


class TestDiscrepancy:
    def test_zero_for_same_parameter(self, t1):
        assert d_tilde(t1, with_theta(t1, [1.0])) == 0.0

    def test_t1_hand_value(self, t1):
        assert d_tilde(t1, with_theta(t1, [-1.0])) == pytest.approx(4.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = random_consistent_instance(rng)
            alt = with_theta(v, np.asarray(v.theta) + rng.normal(size=v.dim))
            assert d_tilde(v, alt) == pytest.approx(d_tilde(alt, v), rel=1e-12)

    def test_invariant_to_off_span_component(self, tri):
        # [1, 1] is orthogonal to both observed differences [1,0] and [0,-1]... not quite;
        # construct the orthogonal complement explicitly instead.
        rng = np.random.default_rng(8)
        v = tri
        obs = np.array([[1.0, 0.0], [0.0, -1.0]])
        raw = rng.normal(size=2)
        # Remove the span component: here the span is all of R^2, so use a
        # 3-dimensional variant with a genuinely deficient span.
        features = np.zeros((1, 3, 3))
        features[0, :, :2] = v.features[0]
        schedule = v.schedule
        v3 = make_instance(features, [1.0, -0.5, 0.3], [1.0], schedule, 2.0)
        alt = with_theta(v3, np.asarray(v3.theta) + rng.normal(size=3))
        base_val = d_tilde(v3, alt)
        shifted = with_theta(v3, np.asarray(alt.theta) + np.array([0.0, 0.0, 5.0]))
        assert d_tilde(v3, shifted) == pytest.approx(base_val, rel=1e-12)

    def test_structural_mismatch_rejected(self, t1, t2):
        with pytest.raises(ValidationError):
            d_tilde(t1, t2)


class TestKlBracket:
    def test_t1_hand_values(self, t1):
        alt = with_theta(t1, [-1.0])
        exact, lower, upper = kl_bracket(t1, alt, n=1)
        p = 1 / (1 + math.exp(-1))
        hand = p * math.log(p / (1 - p)) + (1 - p) * math.log((1 - p) / p)
        assert exact == pytest.approx(hand, rel=1e-12)
        assert exact == pytest.approx(0.462117, abs=1e-6)
        assert lower == pytest.approx(2 * math.exp(-4) * 4, rel=1e-12)
        assert upper == pytest.approx(2 * math.exp(2) * 4, rel=1e-12)
        assert lower <= exact <= upper

    def test_scales_linearly_in_n(self, t1):
        alt = with_theta(t1, [-1.0])
        exact1, *_ = kl_bracket(t1, alt, n=1)
        exact7, *_ = kl_bracket(t1, alt, n=7)
        assert exact7 == pytest.approx(7 * exact1, rel=1e-12)

    def test_identical_parameters_give_zeros(self, t1):
        assert kl_bracket(t1, with_theta(t1, [1.0]), n=5) == (0.0, 0.0, 0.0)

    def test_containment_sweep(self):
        # The stated lower constant 2n exp(-4 R_max) is only valid once the
        # reward scale is of order one (the regime of every concrete
        # instance here); pairs are rescaled so the base instance has
        # maximum absolute reward 1.2, which guarantees pointwise validity.
        rng = np.random.default_rng(11)
        for _ in range(100):
            v = random_consistent_instance(rng)
            scale = 1.2 / float(np.max(np.abs(v.rewards())))
            v = with_theta(v, np.asarray(v.theta) * scale)
            alt = with_theta(v, np.asarray(v.theta) + 0.5 * rng.normal(size=v.dim))
            exact, lower, upper = kl_bracket(v, alt, n=int(rng.integers(1, 50)))
            assert lower - 1e-12 <= exact <= upper + 1e-12

    def test_small_reward_regime_breaks_stated_constant(self, t1):
        # Counterexample to the universal claim: with rewards well below
        # one, the d_KL ratio drops to sigmoid(2R) sigmoid(-2R) / 2, which
        # undercuts 2 exp(-4 R_max); the containment assertion fires.
        small = with_theta(t1, [0.2])
        alt = with_theta(small, [0.1])
        with pytest.raises(NumericalError, match="KL bracket"):
            kl_bracket(small, alt, n=1)


class TestAltMinimizer:
    def test_t1_closed_form(self, t1):
        pair = alt_minimizer(t1, np.array([-1.0]), eta=2.0)
        assert pair.alt.theta == pytest.approx([-1.0], abs=1e-12)
        assert pair.dtilde_value == pytest.approx(4.0, abs=1e-12)
        rewards = pair.alt.rewards()
        assert rewards[0, 1] - rewards[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_shift(self, t1):
        pair = alt_minimizer(t1, np.array([-1.0]), eta=0.0)
        assert np.array_equal(pair.alt.theta, t1.theta)
        assert pair.dtilde_value == 0.0

    def test_constraint_and_value(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            v = random_consistent_instance(rng)
            pairs = v.observed_pairs()
            k, i, j = pairs[rng.integers(len(pairs))]
            z = v.features[k, i] - v.features[k, j]
            eta = float(rng.normal())
            pair = alt_minimizer(v, z, eta)
            assert float(z @ (pair.alt.theta - v.theta)) == pytest.approx(eta, abs=1e-9)
            assert d_tilde(v, pair.alt) == pytest.approx(pair.dtilde_value, abs=1e-8)

    def test_minimum_against_kkt_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            v = random_consistent_instance(rng)
            pairs = v.observed_pairs()
            k, i, j = pairs[rng.integers(len(pairs))]
            z = v.features[k, i] - v.features[k, j]
            eta = float(rng.normal()) or 0.3
            pair = alt_minimizer(v, z, eta)
            # Oracle: minimise x' M x subject to z . x = eta via the KKT
            # block system, where M is the mass-weighted Gram matrix of the
            # observed differences in ambient coordinates.
            diffs = v.features[pairs[:, 0], pairs[:, 1]] - v.features[pairs[:, 0], pairs[:, 2]]
            masses = v.schedule[pairs[:, 0], pairs[:, 1], pairs[:, 2]]
            M = (diffs * masses[:, None]).T @ diffs
            d = v.dim
            kkt = np.zeros((d + 1, d + 1))
            kkt[:d, :d] = 2 * M
            kkt[:d, d] = z
            kkt[d, :d] = z
            rhs = np.zeros(d + 1)
            rhs[d] = eta
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            oracle_value = float(sol[:d] @ M @ sol[:d])
            assert pair.dtilde_value == pytest.approx(oracle_value, abs=1e-8)

    def test_random_members_never_beat_minimum(self, paper_instance):
        rng = np.random.default_rng(23)
        v = paper_instance
        z = v.features[0, 1] - v.features[0, 0]
        eta = 0.1
        pair = alt_minimizer(v, z, eta)
        x_min = pair.alt.theta - v.theta
        for _ in range(1000):
            raw = rng.normal(size=v.dim)
            member_shift = x_min + raw - (raw @ z) / (z @ z) * z
            member = with_theta(v, v.theta + member_shift)
            assert z @ member_shift == pytest.approx(eta, abs=1e-9)
            assert d_tilde(v, member) >= pair.dtilde_value - 1e-8

    def test_off_span_direction_rejected(self, tri):
        features = np.zeros((1, 3, 3))
        features[0, :, :2] = tri.features[0]
        v3 = make_instance(features, [1.0, -0.5, 0.3], [1.0], tri.schedule, 2.0)
        with pytest.raises(ValidationError):
            alt_minimizer(v3, np.array([0.0, 0.0, 1.0]), eta=1.0)


class TestAdversary:
    def test_t1_construction(self, t1):
        pair = lower_bound_adversary(t1)
        assert pair.alt.theta == pytest.approx([-1.0], abs=1e-12)
        assert hardness(pair.alt).H == pytest.approx(1.0, abs=1e-10)

    def test_generated_instance_flips_only_hard_state(self, paper_instance):
        v = paper_instance
        report = hardness(v)
        pair = lower_bound_adversary(v)
        k_bar, i_bar = report.argmax
        base_best = v.best_actions()
        alt_best = pair.alt.best_actions()
        for k in range(v.num_states):
            if k == k_bar:
                assert alt_best[k] == i_bar
            else:
                assert alt_best[k] == base_best[k]

    def test_gap_shift_property(self, paper_instance):
        v = paper_instance
        report = hardness(v)
        k_bar, i_bar = report.argmax
        gaps = suboptimality_gaps(v)
        pair = lower_bound_adversary(v)
        alt_rewards = pair.alt.rewards()
        shift = alt_rewards[k_bar, i_bar] - alt_rewards[k_bar, v.best_actions()[k_bar]]
        assert shift == pytest.approx(gaps[k_bar, i_bar], abs=1e-8)

    def test_q_member_hardness_bracket(self, t1):
        report = hardness(t1)
        assert report.q_member
        pair = lower_bound_adversary(t1)
        h_alt = hardness(pair.alt).H
        assert report.H * (1 - 1e-9) <= h_alt <= 8 * report.H * (1 + 1e-9)

    def test_shared_geometry_failure_is_reported(self, t2):
        # Both states share the feature geometry, so the shift that flips
        # the hard state necessarily flips the other one too.
        with pytest.raises(NumericalError, match="untouched state"):
            lower_bound_adversary(t2)


class TestEnvelopes:
    def test_json_report_round_trip(self, t1):
        report = hardness(t1, PRIVACY)
        payload = report.to_json_dict()
        assert payload["gamma"] == {"0,1": 1.0}
        assert payload["q_member"] is True


def _hardness_oracle(v, privacy=None):
    """hardness as a per-target loop: one span-checked ``WeightTable.entry``
    per (k, i, best[k]) in (k, i) order, then the four sums of its weights."""
    table = build_weight_table(v.schedule, v.features)
    best, gaps = v.best_actions(), suboptimality_gaps(v)
    gamma, gamma_tilde, gamma_dp, gamma_tilde_dp, ratios = {}, {}, {}, {}, {}
    for k in range(v.num_states):
        for i in range(v.num_actions):
            if i == best[k]:
                continue
            entry = table.entry((k, i, int(best[k])), v.features)
            w = entry.weights
            gamma[(k, i)] = entry.gamma
            gamma_tilde[(k, i)] = float(np.sum(np.abs(w) / np.sqrt(table.masses)))
            gamma_dp[(k, i)] = float(np.sum((w / table.masses) ** 2))
            gamma_tilde_dp[(k, i)] = float(np.sum(np.abs(w) / table.masses))
            ratios[(k, i)] = entry.gamma / gaps[k, i] ** 2
    argmax = max(ratios, key=ratios.get)
    H = float(ratios[argmax])
    H_dp = None
    if privacy is not None:
        H_dp = max(
            math.sqrt(math.log(1.25 / privacy.delta) * g)
            / (math.sqrt(privacy.epsilon) * gaps[key])
            for key, g in gamma_dp.items()
        )
    q_member = all(H >= 4 * r for key, r in ratios.items() if key != argmax)
    return HardnessReport(
        gamma, gamma_tilde, gamma_dp, gamma_tilde_dp, H, H_dp, q_member, argmax
    )


def _adversary_oracle(v):
    """lower_bound_adversary as the composition hardness -> alt_minimizer at
    twice the argmax gap -> hardness of the alternative when q_member."""
    report = _hardness_oracle(v)
    k_bar, i_bar = report.argmax
    best = v.best_actions()
    z = v.features[k_bar, i_bar] - v.features[k_bar, int(best[k_bar])]
    pair = alt_minimizer(v, z, 2 * float(suboptimality_gaps(v)[k_bar, i_bar]))
    alt_best = pair.alt.best_actions()
    problems = [
        f"best action changed in untouched state {k}"
        for k in range(v.num_states)
        if k != k_bar and alt_best[k] != best[k]
    ]
    if alt_best[k_bar] != i_bar:
        problems.append(
            f"target action {i_bar} is not optimal in state {k_bar} "
            f"under the alternative"
        )
    if report.q_member and not problems:
        H, H_alt = report.H, _hardness_oracle(pair.alt).H
        if not (H * (1 - 1e-9) <= H_alt <= 8 * H * (1 + 1e-9)):
            problems.append(f"hardness bracket violated: {H} <= {H_alt} <= {8 * H}")
    if problems:
        raise NumericalError("adversary construction failed: " + "; ".join(problems))
    return pair


def _assert_same_report(got, want):
    names = ("gamma", "gamma_tilde", "gamma_dp", "gamma_tilde_dp")
    for name in names:
        assert list(getattr(got, name)) == list(getattr(want, name))
    assert {key: g.hex() for key, g in got.gamma.items()} == {
        key: g.hex() for key, g in want.gamma.items()
    }
    assert (got.H.hex(), got.argmax, got.q_member) == (
        want.H.hex(), want.argmax, want.q_member
    )
    # The other three sums may be accumulated in another order.
    for name in names[1:]:
        for key, value in getattr(want, name).items():
            assert getattr(got, name)[key] == pytest.approx(value, rel=1e-12, abs=0)
    if want.H_dp is None:
        assert got.H_dp is None
    else:
        assert got.H_dp == pytest.approx(want.H_dp, rel=1e-12, abs=0)


def _random_instances(seed, count):
    rng = np.random.default_rng(seed)
    return [random_consistent_instance(rng, s_max=4, a_max=6) for _ in range(count)]


class TestHardnessOracle:
    """hardness against the per-target loop: gamma, H, argmax and q_member
    bit for bit, the other sums to 1e-12 relative."""

    @pytest.mark.parametrize("path", COMMITTED, ids=lambda p: p.stem)
    def test_committed_instances(self, path):
        v = load_instance(path)
        _assert_same_report(hardness(v, PRIVACY), _hardness_oracle(v, PRIVACY))

    def test_fixtures(self, t1, t2, tri):
        for v in (t1, t2, tri):
            _assert_same_report(hardness(v), _hardness_oracle(v))
            _assert_same_report(hardness(v, PRIVACY), _hardness_oracle(v, PRIVACY))

    def test_random_instances(self):
        for v in _random_instances(41, 50):
            _assert_same_report(hardness(v, PRIVACY), _hardness_oracle(v, PRIVACY))

    def test_tall_designs(self):
        for v in tall_instances(4):
            _assert_same_report(hardness(v, PRIVACY), _hardness_oracle(v, PRIVACY))

    @pytest.mark.parametrize("pairs_per_block", [1, 3, None], ids=["one", "three", "all"])
    def test_pair_blocks(self, pairs_per_block, t1, t2, tri, monkeypatch):
        # The |w| sums walk blocks of pairs: one pair per block, three pairs with
        # a remainder block, and one block larger than the pair count.
        instances = [load_instance(path) for path in COMMITTED] + [t1, t2, tri]
        for v in instances + tall_instances(4):
            targets = v.num_states * (v.num_actions - 1)
            pairs = pairs_per_block or len(v.observed_pairs()) + 1
            monkeypatch.setattr(analysis, "PAIR_SUM_BLOCK_BYTES", 8 * targets * pairs)
            _assert_same_report(hardness(v, PRIVACY), _hardness_oracle(v, PRIVACY))


class TestAdversaryOracle:
    """lower_bound_adversary against the composition it replaces."""

    @staticmethod
    def _assert_same_pair(v):
        try:
            want = _adversary_oracle(v)
        except NumericalError as exc:
            with pytest.raises(NumericalError) as got:
                lower_bound_adversary(v)
            assert str(got.value) == str(exc)
            return
        got = lower_bound_adversary(v)
        assert got.alt.theta.tobytes() == want.alt.theta.tobytes()
        assert got.z.tobytes() == want.z.tobytes()
        assert (got.dtilde_value.hex(), got.eta.hex()) == (
            want.dtilde_value.hex(), want.eta.hex()
        )

    def test_q_member_fixture(self, t1):
        assert hardness(t1).q_member
        self._assert_same_pair(t1)

    def test_shared_geometry_failure(self, t2):
        self._assert_same_pair(t2)

    @pytest.mark.parametrize("path", COMMITTED, ids=lambda p: p.stem)
    def test_committed_instances(self, path):
        self._assert_same_pair(load_instance(path))

    def test_random_instances(self):
        for v in _random_instances(43, 30):
            self._assert_same_pair(v)

    def test_tall_designs(self):
        for v in tall_instances(4):
            self._assert_same_pair(v)


class TestTracedPeak:
    """Traced peak memory of single calls on the committed S=4, A=100 instance,
    in units of one (m × d) float64 array.  On numpy 2.4.6 they read 2.501
    (rl_low) and 2.751 (hardness), where a dense-schedule geometry with the
    SVD's left vectors and 2 MiB pair-sum blocks read 4.098 and 5.061.  The
    bounds sit half a unit above the readings, so a weight table that keeps
    one more per-pair array fails."""

    BOUNDS = {"rl_low": 3.0, "hardness": 3.25}

    @pytest.mark.parametrize("call", sorted(BOUNDS))
    def test_peak_is_bounded(self, call):
        v = load_instance(next(path for path in COMMITTED if path.stem.startswith("S4-A100")))
        data = sample_dataset(v, 20 * v.num_actions**2, seed=1)
        run = {"rl_low": lambda: rl_low(data, v.features, v.reward_bound),
               "hardness": lambda: hardness(v, PRIVACY)}[call]
        run()  # the instance caches its gaps
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        units = peak / (len(v.observed_pairs()) * v.dim * 8)
        assert units <= self.BOUNDS[call], units


def test_inconsistent_instance_refused_alike():
    # State 0 spans the plane z = 0; action 2 of state 1 leaves it.
    features = np.zeros((2, 3, 3))
    features[0, :, :2] = [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]
    features[1] = [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    schedule = np.zeros((2, 3, 3))
    schedule[0, 0, 1] = schedule[0, 0, 2] = 0.3
    schedule[0, 1, 2] = schedule[1, 0, 1] = 0.2
    v = make_instance(features, [1.0, -0.5, 0.2], [0.5, 0.5], schedule, 1.0)
    kernel = validate_kernel(np.full((2, 3, 2), 0.5), (2, 3))
    for call in (
        lambda: hardness(v),
        lambda: lower_bound_adversary(v),
        lambda: mdp_hardness(v, kernel),
    ):
        with pytest.raises(InconsistencyError) as exc:
            call()
        assert str(exc.value) == "instance is inconsistent; witness pair (1, 0, 2)"
        assert exc.value.witness == (1, 0, 2)


def _relabelled(v, data, order):
    """``v`` and ``data`` with state ``order[s]`` renamed s and action a renamed
    ``sigma[a]``, sigma = order[S:]; a pair whose actions swap order maps its
    wins W to c − W."""
    S = v.num_states
    states, sigma = order[:S], order[S:]
    features = np.empty_like(v.features)
    features[:, sigma] = v.features[states]
    schedule = np.zeros_like(v.schedule)
    ks, iz, js = np.nonzero(v.schedule)
    rename = np.argsort(states)
    lo, hi = np.minimum(sigma[iz], sigma[js]), np.maximum(sigma[iz], sigma[js])
    schedule[rename[ks], lo, hi] = v.schedule[ks, iz, js]
    k, i, j = data.pairs.T
    pairs = np.column_stack([rename[k], np.minimum(sigma[i], sigma[j]),
                             np.maximum(sigma[i], sigma[j])])
    wins = np.where(sigma[i] > sigma[j], data.counts - data.wins, data.wins)
    rows = np.lexsort(pairs.T[::-1])
    alt = make_instance(features, v.theta, v.rho[states], schedule, v.reward_bound)
    return alt, PreferenceDataset(pairs[rows], data.counts[rows], wins[rows], data.n)


class TestInvariance:
    """rl_low's estimates and H do not depend on the coordinates of the
    features or on the names of the states and actions."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(23)
        instances = [load_instance(path) for path in COMMITTED]
        instances += [random_consistent_instance(rng) for _ in range(20)]
        return rng, [(v, sample_dataset(v, 400, seed=int(rng.integers(1e6)))) for v in instances]

    @staticmethod
    def _assert_relabelled(v, data, states, sigma):
        alt, alt_data = _relabelled(v, data, np.concatenate([states, sigma]))
        want = rl_low(data, v.features, v.reward_bound).rhat[states]
        got = rl_low(alt_data, alt.features, v.reward_bound).rhat[:, sigma]
        got -= got[:, :1]  # estimates are against action 0, which sigma renames
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))
        assert hardness(alt).H == pytest.approx(hardness(v).H, rel=1e-12, abs=0)

    def test_invertible_feature_map(self):
        rng, cases = self._cases()
        for v, data in cases:
            M = rng.normal(size=(v.dim, v.dim)) + v.dim * np.eye(v.dim)
            mapped = make_instance(v.features @ M, np.linalg.solve(M, v.theta), v.rho,
                                   v.schedule, v.reward_bound)
            got = rl_low(data, mapped.features, v.reward_bound).rhat
            want = rl_low(data, v.features, v.reward_bound).rhat
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))
            assert hardness(mapped).H == pytest.approx(hardness(v).H, rel=1e-12, abs=0)

    def test_permuted_states(self):
        rng, cases = self._cases()
        for v, data in cases:
            self._assert_relabelled(v, data, rng.permutation(v.num_states),
                                    np.arange(v.num_actions))

    def test_relabelled_actions(self):
        # Relabelling flips some pairs, so a rate b becomes 1 - b.  The log-odds
        # are clipped to exactly +-2L, so a pair at the clip flips sign exactly.
        rng, cases = self._cases()
        for v, data in cases:
            S, A = v.num_states, v.num_actions
            self._assert_relabelled(v, data, np.arange(S), rng.permutation(A))
            self._assert_relabelled(v, data, rng.permutation(S), rng.permutation(A))
