"""Tests of the benchmark itself, at small sizes and short runs.

  python3 -m pytest perfbench -q

A smoke run of every workload in both modes must print every metric that
BENCHMARK.json names, with its unit; planted wrong answers must count in
``failed``; and without the program's sources the benchmark must refuse to run.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import lowpref as lp  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_LARGE = (2, 12, 3)  # its H is recorded in reference.json as well


@pytest.fixture(autouse=True)
def small_runs(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(wl, "LARGE_SIZE", SMOKE_LARGE)


def bench(capsys, workload: str, trace: int, seconds: float = 0.2, seed: int = 3):
    assert run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(capsys, workload, trace):
    result, report = bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)
        assert any(line.strip().startswith(f"{metric['name']} = ")
                   and line.strip().endswith(f" {metric['unit']}") for line in report)
    for metric in SPEC["end_to_end"] if not trace else []:
        assert result["metrics"][metric["name"]]["value"] > 0
    assert any(line.strip().startswith("failed_ops = 0 share") for line in report)


def test_flipped_selection_in_a_sweep_counts_as_failed(capsys, monkeypatch):
    """On the tiny instance regret is 0 or 1, so a flipped selection reads 1 - r."""
    real = lp.run_experiment

    def flipped(cfg):
        table = real(cfg)
        rows = [dataclasses.replace(r, regret=1.0 - r.regret) for r in table.rows]
        return lp.ResultTable(rows=rows)

    monkeypatch.setattr(lp, "run_experiment", flipped)
    result, report = bench(capsys, "sweep-tiny", 0)
    assert not result["correct"]
    assert 1 <= result["failed"] <= result["attempted"]
    assert any("mean regret" in line for line in report)


def test_flipped_selection_in_a_single_call_counts_as_failed(capsys, monkeypatch):
    real = lp.rl_low

    def flipped(*args, **kwargs):
        report = real(*args, **kwargs)
        worst = np.argmin(report.rhat, axis=1)
        return dataclasses.replace(report, selections=worst)

    monkeypatch.setattr(lp, "rl_low", flipped)
    result, _ = bench(capsys, "large-instance", 0)
    assert not result["correct"] and result["failed"] >= 1


def test_traced_replay_fails_when_a_stage_drifts(capsys, monkeypatch):
    real = lp.estimate_relative_rewards
    monkeypatch.setattr(lp, "estimate_relative_rewards",
                        lambda *args, **kwargs: real(*args, **kwargs) + 1e-3)
    result, _ = bench(capsys, "sweep-tiny", 1)
    assert not result["correct"] and result["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "sweep-tiny", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
