"""Experiment harness: seeding, determinism, summaries, artifact output."""

import dataclasses
import hashlib
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from lowpref import (
    ExperimentConfig,
    GeneratorConfig,
    PrivacyParams,
    ResultRow,
    ResultTable,
    ValidationError,
    dp_rl_low,
    emit_outputs,
    make_instance,
    mle_fit,
    mle_select,
    rl_low,
    run_experiment,
    sample_dataset,
    save_instance,
    simple_regret,
    stationary_distribution,
    summarize,
    validate_kernel,
)
import lowpref.bench as bench
from lowpref.bench import config_from_dict
from conftest import oracle_integer, oracle_key


@pytest.fixture()
def t1_path(tmp_path, t1):
    path = tmp_path / "t1.json"
    save_instance(t1, path)
    return str(path)


def small_config(**overrides):
    fields = dict(
        generator=GeneratorConfig(num_states=2, num_actions=4, dim=3, seed=3),
        n_grid=(20, 40),
        repetitions=4,
        algorithms=("rl_low",),
        master_seed=99,
    )
    fields.update(overrides)
    return ExperimentConfig(**fields)


class TestSimpleRegret:
    def test_true_optima_give_zero(self, paper_instance):
        assert simple_regret(paper_instance, paper_instance.best_actions()) == 0.0

    def test_t1_wrong_action(self, t1):
        assert simple_regret(t1, [1]) == 1.0

    def test_weighted_by_state_law(self, paper_instance):
        # Action 2 in both states: gaps are 0.1, weighted by (0.4, 0.6).
        assert simple_regret(paper_instance, [2, 2]) == pytest.approx(0.1, abs=1e-12)

    @pytest.mark.parametrize("S", [1, 2, 9, 130])
    def test_stacked_selections_match_rows(self, S):
        # Plain, 8-way unrolled and blocked pairwise sums over the states:
        # each row of a stack keeps the bits of its own (S,) call.
        rng = np.random.default_rng(S)
        A, d = 4, 3
        features = rng.normal(size=(S, A, d))
        v = make_instance(features, rng.normal(size=d), rng.dirichlet(np.ones(S)),
                          np.zeros((S, A, A)), 10.0)
        selections = rng.integers(A, size=(3, 50, S))
        stacked = simple_regret(v, selections)
        assert stacked.shape == (3, 50)
        for index in np.ndindex(3, 50):
            row = simple_regret(v, selections[index])
            assert isinstance(row, float)
            want = float(np.sum(v.rho * v.gaps[np.arange(S), selections[index]]))
            assert row.hex() == want.hex() == float(stacked[index]).hex()

    def test_action_outside_the_range_is_refused_by_state(self, paper_instance):
        v = paper_instance  # S = 2, A = 10
        for selections, at, state in (([-1, 0], r"\(0,\)", 0), ([10, 0], r"\(0,\)", 0),
                                      ([0, 10], r"\(1,\)", 1)):
            with pytest.raises(ValidationError,
                               match=rf"index {at} is outside the actions \[0, 10\) of state {state}$"):
                simple_regret(v, selections)
        stack = np.zeros((3, 4, 2), dtype=np.int64)
        stack[2, 1, 1] = -3
        with pytest.raises(ValidationError, match=r"^selection -3 at index \(2, 1, 1\) .* state 1$"):
            simple_regret(v, stack)

    def test_selections_of_the_wrong_length_are_refused(self, paper_instance):
        for selections in ([0], [0, 0, 0], np.zeros((5, 1), dtype=np.int64), 0):
            with pytest.raises(ValidationError, match="do not fit S = 2$"):
                simple_regret(paper_instance, selections)

    def test_non_integer_selections_are_refused_by_dtype(self, paper_instance):
        # [0.9, 1.5] would truncate to [0, 1] and True/False to 1/0.
        for selections, dtype in (([0.9, 1.5], "float64"), ([True, False], "bool"),
                                  (np.zeros((3, 2), dtype=np.float32), "float32")):
            with pytest.raises(ValidationError, match=rf"dtype {dtype} do not fit S = 2$"):
                simple_regret(paper_instance, selections)


class TestConfig:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(n_grid=(10,), algorithms=("rl_low",))

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValidationError):
            small_config(n_grid=(40, 20))

    def test_dp_needs_privacy(self):
        with pytest.raises(ValidationError):
            small_config(algorithms=("dp_rl_low",))

    def test_mdp_needs_kernel(self):
        with pytest.raises(ValidationError):
            small_config(algorithms=("rl_low_mdp",))

    def test_unknown_algorithm(self):
        with pytest.raises(ValidationError):
            small_config(algorithms=("gradient_boosting",))

    def test_json_round_trip(self):
        payload = {
            "instance": {"generator": {"S": 2, "A": 4, "d": 3, "seed": 3}},
            "n_grid": [20, 40],
            "repetitions": 4,
            "algorithms": ["rl_low", "mle"],
            "privacy": {"epsilon": 0.9, "delta": 0.2},
            "master_seed": 99,
            "out_dir": "out",
        }
        cfg = config_from_dict(payload)
        assert cfg.n_grid == (20, 40)
        assert cfg.privacy == PrivacyParams(0.9, 0.2)
        assert cfg.algorithms == ("rl_low", "mle")

    @pytest.mark.parametrize("where, edit", [
        ("config", lambda p: p.update(repetition=5)),
        ("instance", lambda p: p["instance"].update(seed=1)),
        ("generator", lambda p: p["instance"]["generator"].update(gapstep=0.1)),
        ("privacy", lambda p: p["privacy"].update(eps=0.5)),
    ])
    def test_unknown_key_rejected(self, where, edit):
        payload = {
            "instance": {"generator": {"S": 2, "A": 4, "d": 3, "seed": 3}},
            "repetitions": 4,
            "privacy": {"epsilon": 0.9, "delta": 0.2},
        }
        edit(payload)
        with pytest.raises(ValidationError, match=f"unknown {where} key"):
            config_from_dict(payload)


class TestRunExperiment:
    def test_row_cardinality_and_nonnegative_regret(self):
        cfg = small_config(algorithms=("rl_low", "mle"))
        table = run_experiment(cfg)
        assert len(table.rows) == 2 * 2 * 4
        assert all(row.regret >= 0 for row in table.rows)

    def test_deterministic_rows(self):
        cfg = small_config()
        rows_a = run_experiment(cfg).rows
        rows_b = run_experiment(cfg).rows
        for a, b in zip(rows_a, rows_b):
            assert (a.algo, a.n, a.rep, a.seed, a.regret) == (
                b.algo,
                b.n,
                b.rep,
                b.seed,
                b.regret,
            )

    def test_datasets_paired_across_algorithms(self):
        cfg = small_config(algorithms=("rl_low", "mle"))
        table = run_experiment(cfg)
        seeds = {}
        for row in table.rows:
            seeds.setdefault((row.n, row.rep), set()).add(row.seed)
        assert all(len(s) == 1 for s in seeds.values())

    def test_cells_match_public_pipeline(self, t1_path, t1, paper_instance, tmp_path):
        """Every cell's regret equals, bit for bit, the public call on
        ``sample_dataset`` with the cell's data, noise and tie seeds."""
        privacy = PrivacyParams(epsilon=0.9, delta=0.2)
        paper_cfg = GeneratorConfig(num_states=2, num_actions=10, dim=5, seed=7)
        P = np.random.default_rng(2024).dirichlet(np.ones(2), size=(2, 10))
        kernel = validate_kernel(P, (2, 10))
        kernel_path = tmp_path / "kernel.json"
        kernel_path.write_text(json.dumps({"P": P.tolist()}))
        cases = (
            (t1, dict(instance_path=t1_path), (10, 30), 5, ("rl_low",), 7),
            (paper_instance, dict(generator=paper_cfg), (50, 100, 400), 30,
             ("rl_low", "dp_rl_low", "mle"), 5),
            (paper_instance, dict(generator=paper_cfg, kernel_path=str(kernel_path)),
             (50, 100, 400), 10, ("rl_low_mdp",), 5),
        )
        for v, source, grid, reps, algorithms, master in cases:
            cfg = ExperimentConfig(n_grid=grid, repetitions=reps, algorithms=algorithms,
                                   privacy=privacy, master_seed=master, **source)
            table = run_experiment(cfg)
            assert len(table.rows) == len(grid) * reps * len(algorithms)
            for row in table.rows:
                data = sample_dataset(v, row.n, seed=row.seed)
                tie = oracle_key(master, row.algo, row.n, row.rep, "tie")
                L = v.reward_bound
                if row.algo == "rl_low":
                    selections = rl_low(data, v.features, L, tie_seed=tie).selections
                elif row.algo == "dp_rl_low":
                    noise = oracle_key(master, row.algo, row.n, row.rep, "noise")
                    selections = dp_rl_low(data, v.features, L, privacy, seed=noise,
                                           tie_seed=tie).selections
                elif row.algo == "mle":
                    selections = mle_select(mle_fit(data, v.features, L), v.features, tie)
                else:
                    rhat = rl_low(data, v.features, L, tie_seed=tie).rhat
                    regret = _mdp_regret_oracle(v, kernel, rhat, tie)
                    assert regret == row.regret, (row.algo, row.n, row.rep)
                    continue
                assert simple_regret(v, selections) == row.regret, (row.algo, row.n, row.rep)

    def test_one_batch_per_algorithm(self, tmp_path, monkeypatch):
        """Every algorithm draws, selects and scores its whole grid in one call
        each: one count-CDF table and one win draw over every n's pairs, one
        ``select_best_actions`` and one ``simple_regret``, or for rl_low_mdp one
        ``mdp_policy_search`` and one ``mdp_regret``.  Only what reads an n's
        masses runs per n: the rates algorithms build one weight table and make
        one estimate per n, and mle builds no weight table."""
        P = np.random.default_rng(2024).dirichlet(np.ones(2), size=(2, 4))
        kernel_path = tmp_path / "kernel.json"
        kernel_path.write_text(json.dumps({"P": P.tolist()}))
        names = ("count_cdf", "sample_wins", "_weight_table", "estimate_relative_rewards",
                 "select_best_actions", "simple_regret", "mdp_policy_search", "mdp_regret")
        calls = {}
        for name in names:
            def counted(*args, _real=getattr(bench, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(bench, name, counted)
        for algo, want in (
            ("rl_low", (1, 1, 3, 3, 1, 1, 0, 0)),
            ("dp_rl_low", (1, 1, 3, 3, 1, 1, 0, 0)),
            ("rl_low_mdp", (1, 1, 3, 3, 0, 0, 1, 1)),
            ("mle", (1, 1, 0, 0, 1, 1, 0, 0)),
        ):
            calls.clear()
            run_experiment(small_config(algorithms=(algo,), n_grid=(20, 40, 80),
                                        kernel_path=str(kernel_path),
                                        privacy=PrivacyParams(0.9, 0.2)))
            assert tuple(calls.get(name, 0) for name in names) == want, algo

    def test_grid_equals_single_n_runs(self, tmp_path):
        """A G-point grid gives, row for row apart from wall_ms, its G single-n
        runs one after another, for every algorithm, also where the n's plans
        cover different pairs: the pair of mass 1e-11 gets a record at n = 400
        but none at n = 50."""
        features = [[[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]], [[0.2, 1.0], [1.0, 0.3], [0.0, 0.0]]]
        schedule = np.zeros((2, 3, 3))
        schedule[0, 0, 1], schedule[0, 1, 2], schedule[0, 0, 2] = 0.25, 0.25 - 1e-11, 1e-11
        schedule[1, 0, 1], schedule[1, 1, 2] = 0.25, 0.25
        v = make_instance(features, [0.1, 0.05], [0.5, 0.5], schedule, 1.0)
        assert [len(bench.sampling_plan(v, n)[0]) for n in (50, 400)] == [4, 5]
        instance_path, kernel_path = tmp_path / "v.json", tmp_path / "kernel.json"
        save_instance(v, instance_path)
        P = np.random.default_rng(3).dirichlet(np.ones(2), size=(2, 3))
        kernel_path.write_text(json.dumps({"P": P.tolist()}))
        grid = (50, 120, 400)

        def rows(n_grid):
            table = run_experiment(ExperimentConfig(
                instance_path=str(instance_path), n_grid=n_grid, repetitions=6,
                algorithms=bench.ALGORITHMS, privacy=PrivacyParams(0.9, 0.2),
                kernel_path=str(kernel_path), master_seed=13))
            return {algo: [dataclasses.replace(r, wall_ms=0.0) for r in table.rows
                           if r.algo == algo] for algo in bench.ALGORITHMS}

        singles = [rows((n,)) for n in grid]
        for algo, got in rows(grid).items():
            assert got == [row for single in singles for row in single[algo]], algo
            assert [r.regret.hex() for r in got] == [
                r.regret.hex() for single in singles for r in single[algo]], algo

    def test_exact_binomial_oracle_at_small_scale(self, t1_path):
        # 2000 repetitions at n=4; the exact value is 0.1780837.
        cfg = ExperimentConfig(
            instance_path=t1_path,
            n_grid=(4,),
            repetitions=2000,
            algorithms=("rl_low",),
            master_seed=1,
        )
        table = run_experiment(cfg)
        mean = np.mean([row.regret for row in table.rows])
        p = 0.17808367369704667
        assert abs(mean - p) <= 4 * math.sqrt(p * (1 - p) / 2000)


def _mdp_regret_oracle(v, kernel, rhat, tie_seed):
    """Regret of the policy ``rl_low_mdp`` picks from ``rhat``, by one
    ``stationary_distribution`` call per enumerated policy."""
    S, A = rhat.shape
    policies = list(itertools.product(range(A), repeat=S))
    occupancy = [stationary_distribution(kernel, p, v.rho) for p in policies]

    def values(rewards):
        return [float(mu @ rewards[np.arange(S), p]) for mu, p in zip(occupancy, policies)]

    estimated = values(rhat)
    best = max(estimated)
    tied = [p for p, value in zip(policies, estimated) if value == best]
    policy = tied[oracle_integer(oracle_key(tie_seed, "tie", 0), len(tied))] if len(tied) > 1 \
        else tied[0]
    true = values(v.rewards())
    return max(max(true) - true[policies.index(policy)], 0.0)


class TestSummaries:
    def test_constant_values(self):
        rows = [ResultRow("rl_low", 10, r, 0, 0.5, 1.0) for r in range(4)]
        summary = summarize(ResultTable(rows=rows))
        assert summary[0]["mean"] == 0.5 and summary[0]["std"] == 0.0

    def test_two_point_sample_std(self):
        rows = [
            ResultRow("rl_low", 10, 0, 0, 0.0, 1.0),
            ResultRow("rl_low", 10, 1, 0, 1.0, 1.0),
        ]
        summary = summarize(ResultTable(rows=rows))
        assert summary[0]["mean"] == 0.5
        assert summary[0]["std"] == pytest.approx(math.sqrt(0.5), rel=1e-12)

    def test_one_entry_per_algo_n(self):
        cfg = small_config(algorithms=("rl_low", "mle"))
        summary = summarize(run_experiment(cfg))
        assert len(summary) == 4
        assert {(s["algo"], s["n"]) for s in summary} == {
            ("rl_low", 20),
            ("rl_low", 40),
            ("mle", 20),
            ("mle", 40),
        }


class TestOutputs:
    def test_csv_round_trip(self, tmp_path):
        cfg = small_config(out_dir=str(tmp_path / "out"))
        table = run_experiment(cfg)
        paths = emit_outputs(summarize(table), table, cfg)
        loaded = ResultTable.from_csv(paths["results"])
        assert loaded.rows == table.rows

    def test_malformed_results_are_refused_by_file_and_line(self, tmp_path):
        path = tmp_path / "results.csv"
        header, good = "algo,n,rep,seed,regret,wall_ms\n", "rl_low,20,0,5,0.25,1.5\n"
        for body, line in (("rl_low,20,0,5,0.25\n", 2), (good + "rl_low,20,1,5,abc,1.5\n", 3)):
            path.write_text(header + body)
            with pytest.raises(ValidationError,
                               match=rf"^{re.escape(str(path))} line {line} is not a results row"):
                ResultTable.from_csv(path)
        missing = tmp_path / "missing.csv"
        with pytest.raises(ValidationError,
                           match=rf"^cannot read {re.escape(str(missing))}: No such file"):
            ResultTable.from_csv(missing)

    @pytest.mark.parametrize("row, reason", [
        ("rl_low,20,0,5,nan,1.5", "regret nan is not finite"),
        ("rl_low,20,0,5,-inf,1.5", "regret -inf is not finite"),
        ("bogus,20,0,5,0.25,1.5", "algorithm 'bogus' is unknown"),
        ("mle,0,0,5,0.25,1.5", "n = 0 is below 1"),
        ("mle,20,-1,5,0.25,1.5", "rep = -1 is negative"),
        ("rl_low,20,0,-1,0.25,1.5", "seed -1 is outside [0, 2**64)"),
        (f"rl_low,20,0,{2**64},0.25,1.5", f"seed {2**64} is outside [0, 2**64)"),
        ("rl_low,20,0,5,0.25,-0.5", "wall_ms -0.5 is not finite and non-negative"),
        ("rl_low,20,0,5,0.25,inf", "wall_ms inf is not finite and non-negative"),
        ("rl_low,20,0,5,0.25,nan", "wall_ms nan is not finite and non-negative"),
    ])
    def test_out_of_range_results_are_refused_by_file_and_line(self, tmp_path, row, reason):
        path = tmp_path / "results.csv"
        path.write_text("algo,n,rep,seed,regret,wall_ms\nrl_low,20,0,5,0.25,1.5\n" + row + "\n")
        with pytest.raises(ValidationError, match=rf"^{re.escape(f'{path} line 3: {reason}')}$"):
            ResultTable.from_csv(path)

    def test_largest_seed_is_accepted(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text(f"algo,n,rep,seed,regret,wall_ms\nrl_low,20,0,{2**64 - 1},0.25,1.5\n")
        assert ResultTable.from_csv(path).rows[0].seed == 2**64 - 1

    def test_csv_header(self, tmp_path):
        cfg = small_config(out_dir=str(tmp_path / "out"))
        table = run_experiment(cfg)
        paths = emit_outputs(summarize(table), table, cfg)
        first = open(paths["results"]).readline().strip()
        assert first == "algo,n,rep,seed,regret,wall_ms"

    def test_svg_has_one_polyline_per_algorithm(self, tmp_path):
        cfg = small_config(algorithms=("rl_low", "mle"), out_dir=str(tmp_path / "out"))
        table = run_experiment(cfg)
        paths = emit_outputs(summarize(table), table, cfg)
        svg = open(paths["plot"]).read()
        assert svg.count("<polyline") == 2
        assert svg.count("<polygon") == 2  # one +-1 std band per series

    def test_summary_json_is_loadable(self, tmp_path):
        cfg = small_config(out_dir=str(tmp_path / "out"))
        table = run_experiment(cfg)
        paths = emit_outputs(summarize(table), table, cfg)
        payload = json.loads(open(paths["summary"]).read())
        assert {entry["n"] for entry in payload} == {20, 40}

    def test_rerun_identical_apart_from_wall_clock(self, tmp_path):
        # Wall-clock is measurement, not output: every other CSV byte must
        # reproduce, and the summary (which carries no timing) must match
        # byte for byte.
        cfg_a = small_config(out_dir=str(tmp_path / "a"))
        cfg_b = small_config(out_dir=str(tmp_path / "b"))
        paths_a = emit_outputs(*(lambda t: (summarize(t), t))(run_experiment(cfg_a)), cfg_a)
        paths_b = emit_outputs(*(lambda t: (summarize(t), t))(run_experiment(cfg_b)), cfg_b)

        def strip_wall(path):
            lines = open(path).read().splitlines()
            return [line.rsplit(",", 1)[0] for line in lines]

        assert strip_wall(paths_a["results"]) == strip_wall(paths_b["results"])
        assert open(paths_a["summary"]).read() == open(paths_b["summary"]).read()
        assert open(paths_a["plot"]).read() == open(paths_b["plot"]).read()


def _reference_csv(rows) -> str:
    """results.csv as one f-string per row, every field formatted anew."""
    lines = ["algo,n,rep,seed,regret,wall_ms"]
    lines += [f"{r.algo},{r.n},{r.rep},{r.seed},{r.regret!r},{r.wall_ms!r}" for r in rows]
    return "\n".join(lines) + "\n"


class TestCsvBytes:
    """``to_csv`` formats ``wall_ms`` once per run of rows sharing one float
    object; the bytes equal a per-row reference f-string for any rows."""

    def assert_reference_bytes(self, rows, tmp_path):
        path = tmp_path / "results.csv"
        ResultTable(rows=rows).to_csv(path)
        assert path.read_text() == _reference_csv(rows)

    def test_run_experiment_table(self, tmp_path):
        rows = run_experiment(small_config(algorithms=("rl_low", "mle"))).rows
        batches = {r.algo: r.wall_ms for r in rows}
        assert all(r.wall_ms is batches[r.algo] for r in rows)  # one float per algorithm
        self.assert_reference_bytes(rows, tmp_path)

    def test_loaded_table(self, tmp_path):
        cfg = small_config(out_dir=str(tmp_path / "out"))
        table = run_experiment(cfg)
        written = emit_outputs(summarize(table), table, cfg)["results"]
        loaded = ResultTable.from_csv(written)
        self.assert_reference_bytes(loaded.rows, tmp_path)
        assert (tmp_path / "results.csv").read_bytes() == open(written, "rb").read()

    def test_equal_but_distinct_wall_objects(self, tmp_path):
        first, second = float("1.25"), float("1.25")
        assert first == second and first is not second
        self.assert_reference_bytes(
            [ResultRow("rl_low", 20, 0, 5, 0.5, first), ResultRow("rl_low", 20, 1, 6, 0.25, second),
             ResultRow("rl_low", 20, 2, 7, 0.0, first)], tmp_path)

    def test_one_float_shared_across_batches(self, tmp_path):
        shared, other = 1 / 3, 2 / 3
        rows = [ResultRow(algo, n, rep, 10 * n + rep, rep / 7, shared)
                for algo, n in (("rl_low", 20), ("mle", 20), ("rl_low", 40))
                for rep in range(3)]
        rows.insert(4, ResultRow("mle", 20, 9, 1, 0.5, other))
        self.assert_reference_bytes(rows, tmp_path)

    def test_negative_zero_wall(self, tmp_path):
        rows = [ResultRow("rl_low", 20, 0, 5, 0.5, 0.0), ResultRow("rl_low", 20, 1, 5, 0.5, -0.0),
                ResultRow("rl_low", 20, 2, 5, -0.0, 0.0)]
        self.assert_reference_bytes(rows, tmp_path)
        assert (tmp_path / "results.csv").read_text().splitlines()[2].endswith(",-0.0")

    def test_rows_are_dataclasses_that_replace_accepts(self):
        rows = run_experiment(small_config()).rows
        assert all(type(r) is ResultRow and dataclasses.is_dataclass(r) for r in rows)
        row = rows[0]
        assert dataclasses.replace(row, regret=0.5) == ResultRow(
            row.algo, row.n, row.rep, row.seed, 0.5, row.wall_ms)


DATA = Path(__file__).resolve().parent / "data"
README_SWEEP = {
    "instance": {"generator": {"S": 2, "A": 10, "d": 5, "seed": 7}},
    "n_grid": [50, 100, 150, 200, 250, 300, 350, 400],
    "repetitions": 200,
    "algorithms": ["rl_low", "dp_rl_low", "mle", "rl_low_mdp"],
    "privacy": {"epsilon": 0.9, "delta": 0.2},
    "master_seed": 42,
    "kernel": str(DATA / "kernel_dirichlet2024.json"),
}


def readme_sweep_digest(out_dir) -> dict:
    """The README config plus ``rl_low_mdp`` on the Dirichlet-2024 kernel, run
    into ``out_dir``: sha256 of ``results.csv`` without its ``wall_ms`` column,
    of ``summary.json`` and of ``regret.svg``, and every (algorithm, n) mean as
    a ``repr``.  ``tests/data/readme_sweep_digest.json`` holds its value."""
    cfg = config_from_dict({**README_SWEEP, "out_dir": str(out_dir)})
    table = run_experiment(cfg)
    summary = summarize(table)
    paths = emit_outputs(summary, table, cfg)
    csv = b"".join(line.rsplit(b",", 1)[0] + b"\n"
                   for line in Path(paths["results"]).read_bytes().splitlines())
    return {
        "results_without_wall_ms": hashlib.sha256(csv).hexdigest(),
        "summary": hashlib.sha256(Path(paths["summary"]).read_bytes()).hexdigest(),
        "plot": hashlib.sha256(Path(paths["plot"]).read_bytes()).hexdigest(),
        "means": {f"{e['algo']},{e['n']}": repr(e["mean"]) for e in summary},
    }


def test_readme_sweep_matches_committed_digest(tmp_path):
    """The README sweep's outputs are pinned: a change that moves a regret
    row must update the digest and say which rows moved and why."""
    want = json.loads((DATA / "readme_sweep_digest.json").read_text())
    got = readme_sweep_digest(tmp_path)
    moved = {cell: (got["means"].get(cell), mean) for cell, mean in want["means"].items()
             if got["means"].get(cell) != mean}
    assert not moved, moved
    assert got == want
