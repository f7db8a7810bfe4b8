"""Command-line interface: subcommands and exit-code contract."""

import json

import numpy as np
import pytest

from lowpref import load_instance, make_instance, save_instance
from lowpref.cli import main


@pytest.fixture()
def instance_path(tmp_path):
    path = tmp_path / "instance.json"
    assert main(["gen-instance", "--S", "2", "--A", "4", "--d", "3",
                 "--seed", "7", "--out", str(path)]) == 0
    return path


def test_gen_instance_and_sample(tmp_path, instance_path, capsys):
    v = load_instance(instance_path)
    assert (v.num_states, v.num_actions, v.dim) == (2, 4, 3)
    data_path = tmp_path / "data.csv"
    assert main(["sample", "--instance", str(instance_path), "--n", "50",
                 "--seed", "3", "--out", str(data_path)]) == 0
    header = data_path.read_text().splitlines()[0]
    assert header == "state,first,second,winner_is_first"


def test_run_subcommand(tmp_path, instance_path, capsys):
    config = {
        "instance": {"path": str(instance_path)},
        "n_grid": [20, 40],
        "repetitions": 3,
        "algorithms": ["rl_low", "mle"],
        "master_seed": 5,
        "out_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg_path)]) == 0
    paths = json.loads(capsys.readouterr().out)
    assert (tmp_path / "out" / "results.csv").exists()
    assert set(paths) == {"results", "summary", "plot"}


def test_analyze_subcommand(tmp_path, instance_path, capsys):
    assert main(["analyze", "--instance", str(instance_path),
                 "--epsilon", "0.9", "--delta", "0.2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["H"] > 0
    assert report["H_dp"] > 0


def test_analyze_rejects_privacy_outside_unit_interval(instance_path, capsys):
    assert main(["analyze", "--instance", str(instance_path),
                 "--epsilon", "1.5", "--delta", "0.2"]) == 2


def test_analyze_refuses_delta_whose_inverse_overflows(instance_path, capsys):
    # Computed on, it would print "H_dp": Infinity, which is not JSON.
    assert main(["analyze", "--instance", str(instance_path),
                 "--epsilon", "0.9", "--delta", "1e-320"]) == 2
    captured = capsys.readouterr()
    assert "delta is too small" in captured.err and captured.out == ""


def test_adversary_subcommand(tmp_path, capsys):
    # T1: the alternative instance has the negated parameter.
    t1_path = tmp_path / "t1.json"
    features = np.array([[[1.0], [0.0]]])
    schedule = np.zeros((1, 2, 2))
    schedule[0, 0, 1] = 1.0
    save_instance(make_instance(features, [1.0], [1.0], schedule, 1.0), t1_path)
    out = tmp_path / "alt.json"
    assert main(["adversary", "--instance", str(t1_path), "--out", str(out)]) == 0
    alt = load_instance(out)
    assert np.allclose(alt.theta, [-1.0])


def test_mdp_subcommand(tmp_path, instance_path, capsys):
    v = load_instance(instance_path)
    kernel_path = tmp_path / "kernel.json"
    kernel_path.write_text(json.dumps(
        {"P": np.tile(v.rho, (2, 4, 1)).tolist()}
    ))
    data_path = tmp_path / "data.csv"
    main(["sample", "--instance", str(instance_path), "--n", "200",
          "--seed", "1", "--out", str(data_path)])
    capsys.readouterr()
    assert main(["mdp", "--instance", str(instance_path), "--kernel", str(kernel_path),
                 "--dataset", str(data_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["policy"]) == 2
    assert payload["regret"] >= 0


@pytest.fixture()
def mdp_args(tmp_path, instance_path):
    """mdp arguments on a valid kernel and a 200-record dataset."""
    v = load_instance(instance_path)
    kernel_path = tmp_path / "kernel.json"
    kernel_path.write_text(json.dumps({"P": np.tile(v.rho, (2, 4, 1)).tolist()}))
    data_path = tmp_path / "data.csv"
    assert main(["sample", "--instance", str(instance_path), "--n", "200",
                 "--seed", "1", "--out", str(data_path)]) == 0
    return ["mdp", "--instance", str(instance_path), "--kernel", str(kernel_path),
            "--dataset", str(data_path)]


def test_mdp_config_refused(tmp_path, mdp_args, capsys):
    # `run --config` runs configs; `mdp` estimates once from a dataset.
    args = mdp_args[:-2] + ["--config", str(tmp_path / "config.json")]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(mdp_args + ["--config", str(tmp_path / "config.json")])
    assert exc.value.code == 2


def test_winner_bit_outside_zero_one_exits_2(mdp_args, capsys):
    data_path = mdp_args[-1]
    lines = open(data_path).read().splitlines()
    lines[1] = lines[1][:-1] + "2"
    open(data_path, "w").write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(mdp_args) == 2
    assert "winner_is_first is 2" in capsys.readouterr().err


def test_out_of_range_dataset_index_exits_2(mdp_args, capsys):
    data_path = mdp_args[-1]
    open(data_path, "a").write("5,0,1,0\n")
    capsys.readouterr()
    assert main(mdp_args) == 2
    assert "(5, 0, 1): state index 5 is outside S = 2" in capsys.readouterr().err


def test_sample_with_gap_past_exp_range(tmp_path, wide_gap, capsys):
    path = tmp_path / "wide_gap.json"
    save_instance(wide_gap, path)
    assert main(["sample", "--instance", str(path), "--n", "10", "--seed", "1",
                 "--out", str(tmp_path / "data.csv")]) == 0
    assert (tmp_path / "data.csv").read_text().splitlines()[1:] == ["0,0,1,0"] * 10


@pytest.mark.parametrize("theta, best", [(20.0, 1), (-20.0, 0)])
def test_mdp_at_reward_bound_20_exits_0(tmp_path, theta, best, capsys):
    # One pair with rewards -theta and theta and L = 20: one action wins all
    # 10 records, so the pair's log-odds clip to exactly +-40 in both
    # orientations.
    schedule = np.zeros((1, 2, 2))
    schedule[0, 0, 1] = 1.0
    path = tmp_path / "one_pair.json"
    save_instance(make_instance(np.array([[[-1.0], [1.0]]]), [theta], [1.0], schedule, 20.0),
                  path)
    (tmp_path / "kernel.json").write_text(json.dumps({"P": [[[1.0], [1.0]]]}))
    assert main(["sample", "--instance", str(path), "--n", "10", "--seed", "1",
                 "--out", str(tmp_path / "data.csv")]) == 0
    capsys.readouterr()
    assert main(["mdp", "--instance", str(path), "--kernel", str(tmp_path / "kernel.json"),
                 "--dataset", str(tmp_path / "data.csv")]) == 0
    assert json.loads(capsys.readouterr().out) == {"policy": [best], "regret": 0.0}


def test_non_finite_kernel_exits_2(mdp_args, capsys):
    kernel_path = mdp_args[4]
    payload = json.loads(open(kernel_path).read())
    payload["P"][1][2][0] = float("nan")
    open(kernel_path, "w").write(json.dumps(payload))
    capsys.readouterr()
    assert main(mdp_args) == 2
    assert "P[1, 2, 0] = nan is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["rho", "theta"])
def test_nan_instance_field_exits_2(tmp_path, instance_path, field, capsys):
    payload = json.loads(instance_path.read_text())
    payload[field][0] = float("nan")
    instance_path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["analyze", "--instance", str(instance_path)]) == 2
    assert f"{field} has a non-finite entry at index (0,)" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, instance_path, capsys):
    config = {"instance": {"path": str(instance_path)}, "repetition": 5,
              "out_dir": str(tmp_path / "out")}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    capsys.readouterr()
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert "unknown config key 'repetition'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_validation_exit_code(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({"S": 1, "A": 2}))
    assert main(["analyze", "--instance", str(broken)]) == 2


def test_inconsistency_exit_code(tmp_path, capsys):
    # Valid instance whose schedule misses one feature direction entirely.
    features = np.array([[[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]])
    schedule = np.zeros((1, 3, 3))
    schedule[0, 0, 1] = 1.0
    v = make_instance(features, [1.0, -0.5], [1.0], schedule, 1.0)
    path = tmp_path / "inconsistent.json"
    save_instance(v, path)
    assert main(["analyze", "--instance", str(path)]) == 3


def test_numerical_exit_code(tmp_path, capsys):
    # Shared feature geometry across states: the adversary's shift flips an
    # untouched state, so the construction's assertions fail.
    features = np.array([[[1.0], [0.0]], [[1.0], [0.0]]])
    schedule = np.zeros((2, 2, 2))
    schedule[0, 0, 1] = 0.5
    schedule[1, 0, 1] = 0.5
    v = make_instance(features, [1.0], [0.5, 0.5], schedule, 1.0)
    path = tmp_path / "shared.json"
    save_instance(v, path)
    assert main(["adversary", "--instance", str(path), "--out",
                 str(tmp_path / "alt.json")]) == 4


def test_kernel_without_p_exits_2_in_mdp(mdp_args, capsys):
    kernel_path = mdp_args[4]
    open(kernel_path, "w").write(json.dumps({"Q": []}))
    capsys.readouterr()
    assert main(mdp_args) == 2
    assert f"kernel file {kernel_path} has no key 'P'" in capsys.readouterr().err


def test_kernel_without_p_exits_2_in_run(tmp_path, instance_path, capsys):
    kernel_path = tmp_path / "kernel.json"
    kernel_path.write_text(json.dumps({"Q": []}))
    config = {"instance": {"path": str(instance_path)}, "algorithms": ["rl_low_mdp"],
              "kernel": str(kernel_path), "out_dir": str(tmp_path / "out")}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    capsys.readouterr()
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert f"kernel file {kernel_path} has no key 'P'" in capsys.readouterr().err


def test_generator_without_a_exits_2(tmp_path, capsys):
    config = {"instance": {"generator": {"S": 2, "d": 3, "seed": 7}},
              "out_dir": str(tmp_path / "out")}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    capsys.readouterr()
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert "generator key 'A' is missing" in capsys.readouterr().err


def test_non_integer_dataset_cell_exits_2(mdp_args, capsys):
    data_path = mdp_args[-1]
    lines = open(data_path).read().splitlines()
    lines[3] = "0,0,x,1"
    open(data_path, "w").write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(mdp_args) == 2
    assert f"{data_path} line 4 is not four integers" in capsys.readouterr().err


@pytest.mark.parametrize("which", ["instance", "kernel"])
def test_unparseable_json_exits_2(mdp_args, which, capsys):
    path = mdp_args[2] if which == "instance" else mdp_args[4]
    open(path, "w").write('{"S": 2,')
    capsys.readouterr()
    assert main(mdp_args) == 2
    assert f"{path} is not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("S", "two"), ("features", [[[1.0, 2.0], [1.0]]])])
def test_malformed_instance_field_exits_2(instance_path, field, value, capsys):
    payload = json.loads(instance_path.read_text())
    payload[field] = value
    instance_path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["analyze", "--instance", str(instance_path)]) == 2
    assert "malformed instance payload" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen-instance", "sample", "analyze", "adversary", "run"])
def test_unwritable_output_exits_2(tmp_path, instance_path, command, capsys):
    """An output under a regular file, or (but for ``run``, which makes its
    output directory) under a directory that does not exist, is refused by
    name, as an unreadable input is."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    targets = [blocker / "out"] + ([] if command == "run" else [tmp_path / "missing" / "out"])
    for target in targets:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"instance": {"path": str(instance_path)}, "n_grid": [20],
                                      "repetitions": 2, "out_dir": str(target)}))
        args = {
            "gen-instance": ["gen-instance", "--S", "2", "--A", "3", "--d", "2", "--seed", "1",
                             "--out", str(target)],
            "sample": ["sample", "--instance", str(instance_path), "--n", "20", "--seed", "1",
                       "--out", str(target)],
            "analyze": ["analyze", "--instance", str(instance_path), "--out", str(target)],
            "adversary": ["adversary", "--instance", str(instance_path), "--out", str(target)],
            "run": ["run", "--config", str(config)],
        }[command]
        capsys.readouterr()
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"validation error: cannot write {target}: "), captured.err
        assert captured.out == ""


@pytest.mark.parametrize("flag", ["--instance", "--config", "--kernel", "--dataset"])
def test_missing_input_file_exits_2(tmp_path, mdp_args, flag, capsys):
    missing = str(tmp_path / "nonexistent")
    if flag == "--config":
        args = ["run", "--config", missing]
    else:
        args = list(mdp_args)
        args[args.index(flag) + 1] = missing
    capsys.readouterr()
    assert main(args) == 2
    assert f"cannot read {missing}: No such file or directory" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda c: c.update(privacy={"epsilon": "high", "delta": 0.2}),
     "privacy key 'epsilon' must be a number, got 'high'"),
    (lambda c: c.update(privacy={"epsilon": 0.9, "delta": None}),
     "privacy key 'delta' must be a number, got None"),
    (lambda c: c["instance"]["generator"].update(S="2"),
     "generator key 'S' must be an integer, got '2'"),
    (lambda c: c["instance"]["generator"].update(gap_step=[0.1]),
     "generator key 'gap_step' must be a number, got [0.1]"),
    (lambda c: c.update(repetitions=2.5), "config key 'repetitions' must be an integer, got 2.5"),
    (lambda c: c.update(repetitions=True), "config key 'repetitions' must be an integer, got True"),
    (lambda c: c.update(n_grid=[50, "100"]), "config key 'n_grid' must be an integer, got '100'"),
    (lambda c: c.update(n_grid=50), "config key 'n_grid' must be a list, got 50"),
    (lambda c: c.update(out_dir=5), "config key 'out_dir' must be a string, got 5"),
    (lambda c: c.update(kernel=3), "config key 'kernel' must be a string, got 3"),
    (lambda c: c.update(instance={"path": 7}), "instance key 'path' must be a string, got 7"),
    (lambda c: c.update(algorithms="rl_low"),
     "config key 'algorithms' must be a list, got 'rl_low'"),
    (lambda c: c.update(algorithms=[["rl_low"]]),
     "config key 'algorithms' must be a string, got ['rl_low']"),
    (lambda c: c.update(instance=7), "config key 'instance' must be an object, got 7"),
    (lambda c: c["instance"].update(generator=5),
     "instance key 'generator' must be an object, got 5"),
    (lambda c: c.update(privacy=5), "config key 'privacy' must be an object, got 5"),
])
def test_wrong_typed_config_value_exits_2(tmp_path, edit, message, capsys):
    config = {"instance": {"generator": {"S": 2, "A": 4, "d": 3, "seed": 7}},
              "algorithms": ["rl_low", "dp_rl_low"],
              "privacy": {"epsilon": 0.9, "delta": 0.2},
              "n_grid": [50], "repetitions": 2, "out_dir": str(tmp_path / "out")}
    edit(config)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    capsys.readouterr()
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
