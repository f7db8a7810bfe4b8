"""lowpref benchmark: end-to-end timings per workload, or per-layer timings from a trace.

  python3 perfbench/run.py --workload sweep-paper --seed 1 --seconds 20 --trace 0

Workloads are defined in ``workloads.py``; ``BENCHMARK.json`` at the repository
root lists them with the metrics and their bounds.  The program is imported
from the checkout's ``src/`` (nothing needs installing) and runs in this one
process with one caller, except that ``setup_s`` starts a fresh interpreter
several times to time import and set-up.

With ``--trace 0`` the run times whole rounds of the workload's protocol with
tracing off.  With ``--trace 1`` it runs the traced replay of ``tracing.py``
instead.  Either way it checks the program's outputs, prints a report with
every metric by name and unit, writes the full result (provenance included)
to ``.perfbench_out/``, and prints as its last line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("sweep-paper", "sweep-tiny", "large-instance")
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60
# Round index of the warm-up round; no timed run gets this far.
WARM_ROUND = 0x5755


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: time one import-plus-set-up in a fresh interpreter.
    parser.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Put the checkout's src/ first on the path; refuse to run without it."""
    if not (SRC / "lowpref" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no lowpref package under {SRC}; nothing to benchmark")
    sys.path.insert(0, str(SRC))
    import lowpref

    if Path(lowpref.__file__).resolve().parent != (SRC / "lowpref").resolve():
        raise SystemExit(f"run.py: imported lowpref from {lowpref.__file__}, not {SRC}")


def setup_and_warm(name: str, seed: int, workdir: Path):
    """Build the workload's inputs and run one untimed round so lazy set-up is done.

    A sweep warms up on a one-repetition round at the smallest n; the large
    instance on one whole chain, as its first calls otherwise run up to 8x
    slower than later ones.
    """
    import lowpref as lp
    import workloads as wl

    w = wl.setup(name, seed, workdir)
    if w.algorithms:
        cfg = w.config(w.algorithms, wl.child_seed(seed, WARM_ROUND), 1, grid=(min(w.grid),))
        table = lp.run_experiment(cfg)
        lp.emit_outputs(lp.summarize(table), table, cfg)
    else:
        wl.large_round(w, WARM_ROUND, {}, wl.Ledger())
    return w


def time_setup(args, workdir: Path) -> list[float]:
    """Wall time of a fresh interpreter that imports lowpref and sets up, K times."""
    times = []
    for probe in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0",
               "--setup-probe", str(workdir / f"probe{probe}")]
        start = perf_counter()
        subprocess.run(cmd, check=True, timeout=PROBE_TIMEOUT_S, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return times


# ---------------------------------------------------------------------------
# Provenance


def blas_info() -> dict:
    import numpy as np

    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"blas": blas.get("name"), "blas_version": blas.get("version")}
    except (KeyError, TypeError):
        pass
    info["blas_threads"] = blas_threads()
    return info


def blas_threads():
    """OpenBLAS's own thread count, read through ctypes from the loaded library."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_commit():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def src_digest() -> str:
    """SHA-256 over src/'s Python files, for checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_info(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


# ---------------------------------------------------------------------------
# Runs


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(w, seconds: float, ledger):
    """Timed rounds until the deadline; returns (metrics, report-only metrics).

    round_s and rl_low_ms are means over the run, not medians over rounds:
    this machine's speed shifts in phases of seconds to minutes, and the mean
    over the whole run varies less from run to run than any one round does.
    """
    import workloads as wl

    index = 0
    if w.name == "large-instance":
        mle = wl.large_mle(w, ledger)
        deadline = perf_counter() + seconds
        op_ms: dict[str, list[float]] = {}
        chains = []
        while index == 0 or perf_counter() < deadline:
            elapsed = wl.large_round(w, index, op_ms, ledger)
            if elapsed is not None:
                chains.append(elapsed)
            index += 1
        metrics = {
            "round_s": (mean(chains), "s"),
            "rl_low_ms": (mean(op_ms.get("rl_low", [])), "ms"),
        }
        extra = {f"op_ms.{op}": (median(op_ms.get(op, [])), "ms") for op in wl.LARGE_OPS}
        extra["op_ms.mle"] = (mle[0] if mle else math.nan, "ms")
        note = (f"{len(chains)} chains of {len(wl.LARGE_OPS)} calls (round_s and rl_low_ms "
                f"are means, op_ms medians); one mle_fit before the chains"
                + (f": {mle[1].iterations} iterations, converged {mle[1].converged}"
                   if mle else ""))
        samples = {"round_s": chains, **{f"op_ms.{op}": t for op, t in op_ms.items()}}
        return metrics, extra, note, samples

    deadline = perf_counter() + seconds
    stats = wl.SweepStats()
    while index == 0 or perf_counter() < deadline:
        wl.sweep_round(w, index, stats, ledger)
        index += 1
    wl.check_means(w, stats, ledger)
    if "rl_low_mdp" in w.algorithms:
        wl.replay_mdp_cells(w, ledger)
    cell_ms = {algo: mean(samples) for algo, samples in stats.cell_ms.items()}
    metrics = {
        "round_s": (mean(stats.round_s), "s"),
        "rl_low_ms": (cell_ms.get("rl_low", math.nan), "ms"),
    }
    extra = {"sweep_s": (median(stats.round_s), "s")}
    extra.update({f"cells_per_s.{a}": (1000.0 / ms, "cells/s") for a, ms in cell_ms.items()})
    reps = ", ".join(f"{algo} {r}" for algo, r in w.reps.items())
    note = (f"{len(stats.round_s)} rounds, {stats.cells} cells; reps per n per round: {reps}; "
            "sweep_s is the median round, round_s the mean; rl_low_ms and cells_per_s "
            "come from the mean cell wall_ms")
    samples = {"round_s": stats.round_s, **{f"cell_ms.{a}": t for a, t in stats.cell_ms.items()}}
    return metrics, extra, note, samples


def median(values) -> float:
    return statistics.median(values) if values else math.nan


def mean(values) -> float:
    return statistics.fmean(values) if values else math.nan


def as_json(metrics: dict) -> dict:
    """name -> {"value", "unit"}; a value that could not be measured becomes null."""
    return {
        name: {"value": float(value) if math.isfinite(value) else None, "unit": unit}
        for name, (value, unit) in metrics.items()
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads as wl

    if args.setup_probe is not None:
        setup_and_warm(args.workload, args.seed, args.setup_probe)
        return 0

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{stem}-{os.getpid()}"
    ledger = wl.Ledger()
    try:
        if args.trace:
            import tracing

            w = setup_and_warm(args.workload, args.seed, workdir)
            metrics, tracer, lines = tracing.run_traced(w, args.seconds, ledger)
            spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
            spans_path.write_text(json.dumps(tracer.to_json()))
            lines.append(f"spans written to {OUT.name}/{spans_path.name}")
            extra, samples = {}, {}
        else:
            setup_times = time_setup(args, workdir)
            w = setup_and_warm(args.workload, args.seed, workdir)
            metrics, extra, note, samples = run_untraced(w, args.seconds, ledger)
            metrics = {"setup_s": (statistics.median(setup_times), "s"), **metrics,
                       "peak_rss_mb": (peak_rss_mb(), "MB")}
            lines = [note, "setup_s probes: " + ", ".join(f"{t:.3f}" for t in setup_times)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_share = ledger.failed / max(ledger.attempted, 1)
    report = {**metrics, **extra, "failed_ops": (failed_share, "share")}
    prov = provenance(args)
    print(f"lowpref benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {args.seconds:g}s")
    print("provenance: " + json.dumps(prov))
    for line in lines:
        print("  " + line)
    for name, (value, unit) in report.items():
        print(f"  {name} = {value:.6g} {unit}")
    for reason in ledger.reasons:
        print("FAILED: " + reason)

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": as_json(metrics),
    }
    record = {**result, "provenance": prov, "report": as_json(report),
              "failures": ledger.reasons, "samples": samples}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
