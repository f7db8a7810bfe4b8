"""Regenerate reference.json: the expected values the benchmark checks against.

  python3 perfbench/make_reference.py

The instances it reads are the committed files under ``instances/``; a file
that is missing is first written from ``make_paper_instance``.  Existing
files are never rewritten, so the references stay tied to the same inputs
when the package changes how it draws random numbers.

* ``sweep-paper.regret``: mean and standard deviation of the per-cell regret
  for each (algorithm, n) of the Figure-1 protocol, from REFERENCE_REPS
  repetitions at a master seed that no benchmark round derives.  The MDP
  algorithm is absent because its kernel is drawn from the workload seed.
* ``hardness``: ``H`` and ``H_dp`` of the committed instances, keyed by
  "S,A,d,generator seed".
* ``seeds``: the seeds the benchmark was checked with while it was written,
  and one held out for checking later claims on a seed that was not used.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import lowpref as lp  # noqa: E402
import workloads as wl  # noqa: E402

REFERENCE_MASTER_SEED = 20_240_617
REFERENCE_REPS = 1000
SMOKE_SIZE = (2, 12, 3)
SIZES = (wl.PAPER_SIZE, wl.LARGE_SIZE, SMOKE_SIZE)


def main() -> int:
    start = perf_counter()
    wl.INSTANCE_DIR.mkdir(exist_ok=True)
    for size in SIZES:
        if not wl.instance_file(size).exists():
            lp.save_instance(lp.make_paper_instance(wl.generator_config(size)),
                             wl.instance_file(size))
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        cfg = lp.ExperimentConfig(
            instance_path=str(wl.instance_file(wl.PAPER_SIZE)),
            n_grid=wl.PAPER_GRID,
            repetitions=REFERENCE_REPS,
            algorithms=("rl_low", "dp_rl_low", "mle"),
            privacy=wl.privacy_params(),
            master_seed=REFERENCE_MASTER_SEED,
            out_dir=tmp,
        )
        table = lp.run_experiment(cfg)
    regret = {}
    for entry in lp.summarize(table):
        regret.setdefault(entry["algo"], {})[str(entry["n"])] = {
            "mean": entry["mean"], "std": entry["std"],
        }
    hardness = {}
    for size in SIZES:
        report = lp.hardness(lp.load_instance(wl.instance_file(size)), wl.privacy_params())
        hardness[wl.hardness_key(size)] = {"H": report.H, "H_dp": report.H_dp}
    payload = {
        "sweep-paper": {"reps": REFERENCE_REPS, "master_seed": REFERENCE_MASTER_SEED,
                        "regret": regret},
        "hardness": hardness,
        "seeds": {"checked": list(range(1, 11)) + [20261017], "held_out": 424242},
    }
    wl.REFERENCE_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {wl.REFERENCE_PATH} in {perf_counter() - start:.0f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
