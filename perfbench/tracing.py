"""The traced run: spans around public calls, a seeded replay, per-layer metrics.

Spans are recorded from the benchmark's side of each public call: name,
start, end, parent span and the id of the cell (or pass) they belong to.
They stay in memory until the run ends and are written to their own file.
A span's self time is its duration minus the time its children cover.

The replay walks every layer on the workload's own instance and sizes.
For each replayed cell it calls the estimator's stage functions in the
order ``rl_low`` calls them and asserts that the composition equals
``rl_low``'s report (likewise for ``dp_rl_low``), so a replay that drifts
from the pipeline fails loudly instead of timing something else.
"""

from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext
from time import perf_counter, perf_counter_ns

import numpy as np

import lowpref as lp
from lowpref.baseline import MAX_ITERATIONS
from lowpref.rng import derive_seed, substream

import workloads as wl


class Tracer:
    """Spans kept in memory as [name, start_ns, end_ns, parent_index, cell]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, cell):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = [name, perf_counter_ns(), None, parent, cell]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter_ns()
            self._open.pop()

    def call(self, name: str, cell, fn, *args, **kwargs):
        with self.span(name, cell):
            return fn(*args, **kwargs)

    def self_times_ms(self) -> dict[str, list[float]]:
        """Span name -> self times in ms, one per span."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, list[float]] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child_ns):
            out.setdefault(name, []).append((end - start - covered) / 1e6)
        return out

    def to_json(self) -> list[dict]:
        return [
            {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "cell": cell}
            for name, start, end, parent, cell in self.spans
        ]


class NullTracer:
    """The same interface with nothing recorded: the untraced replay."""

    def span(self, name, cell):
        return nullcontext()

    def call(self, name, cell, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Diagnostics:
    """Exact counts from public inputs and outputs of the replay."""

    def __init__(self):
        self.clip = {}  # n -> [pairs clipped, pairs]
        self.states = self.tied_states = 0
        self.fits = self.iterations = self.cap_hits = self.converged = 0
        self.records = []
        self.H = self.H_dp = math.nan

    def add_clip(self, data, L: float) -> None:
        """Pairs whose raw win rate lies outside the clip band of bound L."""
        rec = np.asarray(data.records)
        _, inverse, counts = np.unique(rec[:, :3], axis=0, return_inverse=True,
                                       return_counts=True)
        wins = np.bincount(inverse.ravel(), weights=rec[:, 3], minlength=len(counts))
        rate = wins / counts
        lo, hi = 1.0 / (1.0 + math.exp(2 * L)), 1.0 / (1.0 + math.exp(-2 * L))
        acc = self.clip.setdefault(data.n, [0, 0])
        acc[0] += int(np.count_nonzero((rate < lo) | (rate > hi)))
        acc[1] += len(counts)

    def add_cell(self, data, report, fit, L: float) -> None:
        self.add_clip(data, L)
        self.states += len(report.tie_sets)
        self.tied_states += sum(len(t) > 1 for t in report.tie_sets)
        self.add_fit(fit)
        self.records.append(len(data.records))

    def add_fit(self, fit) -> None:
        self.fits += 1
        self.iterations += fit.iterations
        self.converged += int(fit.converged)
        self.cap_hits += int(not fit.converged and fit.iterations >= MAX_ITERATIONS)

    def clip_ratio(self, n: int) -> float:
        hit, total = self.clip.get(n, (0, 0))
        return hit / total if total else math.nan


def replay_cells(w: wl.Workload, pass_index: int) -> list[tuple[int, int, int]]:
    """(cell id, n, seed): one cell per n of the grid, seeded by workload and pass."""
    return [
        (pass_index * len(w.grid) + j, n, wl.child_seed(w.seed, 0x5452, pass_index, j))
        for j, n in enumerate(w.grid)
    ]


def replay_pass(w, tracer, pass_index: int, ledger: wl.Ledger):
    """One pass: every replayed cell through every layer but the MLE baseline,
    then instance-level calls.

    Returns (cell, n, data, rl_low report, tie seed) per cell and the
    hardness report, for ``fit_baseline`` and the diagnostics, which the
    caller runs outside its timed region.
    """
    v, L, features = w.instance, w.instance.reward_bound, w.instance.features
    dims = (v.num_states, v.num_actions)
    call = tracer.call
    outputs = []
    for cell, n, seed in replay_cells(w, pass_index):
        tie_seed, noise_seed = seed + 1, seed + 2
        try:
            with tracer.span("cell", cell):
                data = call("instances.sample_dataset", cell, lp.sample_dataset, v, n, seed)
                schedule = call("instances.empirical_proportions", cell,
                                lp.empirical_proportions, data, dims)
                witness = call("instances.consistency_witness", cell,
                               lp.instances.consistency_witness, features, schedule)
                rates = call("estimator.success_rates", cell, lp.success_rates,
                             data, schedule, L)
                table = call("estimator.build_weight_table", cell, lp.build_weight_table,
                             schedule, features)
                rhat = call("estimator.estimate_relative_rewards", cell,
                            lp.estimate_relative_rewards, rates, table, features)
                selections, ties = call("estimator.select_best_actions", cell,
                                        lp.select_best_actions, rhat, tie_seed)
                report = call("estimator.rl_low", cell, lp.rl_low, data, features, L,
                              tie_seed=tie_seed)

                perturbed = call("privacy.gaussian_mechanism", cell, lp.gaussian_mechanism,
                                 rates, schedule, data.n, w.privacy, noise_seed)
                dp_rhat = call("estimator.estimate_relative_rewards", cell,
                               lp.estimate_relative_rewards, perturbed, table, features)
                dp_sel, dp_ties = call("estimator.select_best_actions", cell,
                                       lp.select_best_actions, dp_rhat, tie_seed)
                dp_report = call("privacy.dp_rl_low", cell, lp.dp_rl_low, data, features,
                                 L, w.privacy, noise_seed, tie_seed=tie_seed)

                m = w.mdp_instance
                mdp_rhat = np.ascontiguousarray(report.rhat[:, : m.num_actions])
                by_enum = call("mdp.policy_search", cell, lp.mdp_policy_search, mdp_rhat,
                               w.kernel, m.rho, "enumerate", tie_seed)
                by_iter = call("mdp.policy_search_iterate", cell, lp.mdp_policy_search,
                               mdp_rhat, w.kernel, m.rho, "iterate")
                call("mdp.mdp_regret", cell, lp.mdp_regret, m, w.kernel, by_enum)
        except Exception:
            ledger.crash(f"replay cell {cell} (n={n})")
            continue
        problems = []
        if witness is not None:
            problems.append(f"cell {cell}: consistency witness {witness} on a consistent schedule")
        problems += composition_problems(report, rhat, selections, ties, f"rl_low cell {cell}")
        problems += composition_problems(dp_report, dp_rhat, dp_sel, dp_ties,
                                         f"dp_rl_low cell {cell}")
        problems += wl.policy_disagreement(w, mdp_rhat, by_enum, by_iter, f"mdp cell {cell}")
        ledger.record(problems, 4)
        outputs.append((cell, n, data, report, tie_seed))

    try:
        with tracer.span("instance", f"pass{pass_index}"):
            cell = f"pass{pass_index}"
            call("instances.make_instance", cell, wl.generate_instance, w.name)
            report = call("analysis.hardness", cell, lp.hardness, v, w.privacy)
            call("analysis.lower_bound_adversary", cell, lp.lower_bound_adversary, v)
    except Exception:
        ledger.crash(f"instance-level calls, pass {pass_index}")
        return outputs, None
    ledger.attempted += 1
    return outputs, report


def fit_baseline(w, tracer: Tracer, outputs, ledger: wl.Ledger, diag: Diagnostics) -> None:
    """Traced MLE fits of a pass's datasets, then the pass's diagnostics.

    The fits run after the pass rather than inside its cells, so the traced
    and untraced passes time the same calls.  Only the traced pass fits: on
    the large instance about one fit in eight runs to its iteration cap for
    36-60 s, and fitting each dataset twice would double that.
    """
    features, L = w.instance.features, w.instance.reward_bound
    for cell, n, data, report, tie_seed in outputs:
        try:
            fit = tracer.call("baseline.mle_fit", cell, lp.mle_fit, data, features, L)
            tracer.call("baseline.mle_select", cell, lp.mle_select, fit, features, tie_seed)
        except Exception:
            ledger.crash(f"baseline fit, cell {cell} (n={n})")
            continue
        ledger.attempted += 1
        diag.add_cell(data, report, fit, L)


def composition_problems(report, rhat, selections, ties, label: str) -> list[str]:
    same = (
        np.allclose(report.rhat, rhat, rtol=1e-12, atol=1e-12)
        and [int(a) for a in report.selections] == [int(a) for a in selections]
        and report.tie_sets == ties
    )
    return [] if same else [f"{label}: composed stages differ from the public call"]


def bench_round(w, tracer: Tracer, index: int, ledger: wl.Ledger) -> dict:
    """A traced run_experiment per algorithm, then summarize and emit_outputs.

    The large workload has no sweep; its bench round is one rl_low cell at
    the large n.
    """
    master = wl.child_seed(w.seed, 0x4243, index)
    algorithms = w.algorithms or ("rl_low",)
    cell = f"bench{index}"
    rows, run_ms = [], 0.0
    try:
        with tracer.span("bench.round", cell):
            for algo in algorithms:
                cfg = w.config((algo,), master, w.reps.get(algo, 1))
                start = perf_counter()
                table = tracer.call("bench.run_experiment", cell, lp.run_experiment, cfg)
                run_ms += (perf_counter() - start) * 1000.0
                rows.extend(table.rows)
            table = lp.ResultTable(rows=rows)
            summary = tracer.call("bench.summarize", cell, lp.summarize, table)
            paths = tracer.call("bench.emit_outputs", cell, lp.emit_outputs, summary, table,
                                w.config(algorithms, master, 1))
        written = lp.ResultTable.from_csv(paths["results"])
    except Exception:
        ledger.crash(f"bench round {index}")
        return {"rl_low_ms": [], "outside_ms": math.nan}
    ledger.attempted += 1
    wall = [r.wall_ms for r in written.rows]
    return {
        "rl_low_ms": [r.wall_ms for r in written.rows if r.algo == "rl_low"],
        "outside_ms": run_ms - sum(wall),
    }


def rng_microtimings(seed: int, calls: int = 2000, batches: int = 5) -> tuple[float, float]:
    """Median microseconds per derive_seed and per substream call."""

    def per_call(fn) -> float:
        times = []
        for batch in range(batches):
            start = perf_counter()
            for i in range(calls):
                fn(seed, "sample", batch, i, i + 1)
            times.append((perf_counter() - start) / calls * 1e6)
        return float(np.median(times))

    return per_call(derive_seed), per_call(substream)


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else math.nan


def mean(values) -> float:
    return float(np.mean(values)) if len(values) else math.nan


def run_traced(w: wl.Workload, seconds: float, ledger: wl.Ledger):
    """The traced run; returns (per-layer metrics, tracer, report lines)."""
    tracer = Tracer()
    diag = Diagnostics()
    deadline = perf_counter() + seconds
    bench = {"rl_low_ms": [], "outside_ms": []}
    index = 0
    while index == 0 or perf_counter() < deadline - 0.7 * seconds:
        result = bench_round(w, tracer, index, ledger)
        bench["rl_low_ms"] += result["rl_low_ms"]
        bench["outside_ms"].append(result["outside_ms"])
        index += 1

    untraced_s = traced_s = 0.0
    passes = 0
    null = NullTracer()
    while passes == 0 or perf_counter() < deadline:
        # Alternate which side goes first, so first-call costs fall on both.
        for traced in (passes % 2 == 1, passes % 2 == 0):
            start = perf_counter()
            outputs, hardness = replay_pass(w, tracer if traced else null, passes, ledger)
            if not traced:
                untraced_s += perf_counter() - start
                continue
            traced_s += perf_counter() - start
            fit_baseline(w, tracer, outputs, ledger, diag)
            if hardness is not None:
                diag.H, diag.H_dp = hardness.H, hardness.H_dp
        passes += 1
    derive_us, substream_us = rng_microtimings(w.seed)

    self_ms = tracer.self_times_ms()
    cells = passes * len(w.grid)

    def layer(name):
        return mean(self_ms.get(name, []))

    n_min, n_max = min(w.grid), max(w.grid)
    fits = self_ms.get("baseline.mle_fit", [])
    metrics = {
        "rng.substream_us": (substream_us, "us"),
        "rng.derive_seed_us": (derive_us, "us"),
        "instances.sample_ms": (layer("instances.sample_dataset"), "ms"),
        "instances.records": (mean(diag.records), "count"),
        "instances.proportions_ms": (layer("instances.empirical_proportions"), "ms"),
        "instances.consistency_ms": (layer("instances.consistency_witness"), "ms"),
        "instances.make_instance_ms": (layer("instances.make_instance"), "ms"),
        "estimator.rates_ms": (layer("estimator.success_rates"), "ms"),
        "estimator.geometry_ms": (layer("estimator.build_weight_table"), "ms"),
        "estimator.solve_ms": (layer("estimator.estimate_relative_rewards"), "ms"),
        "estimator.select_ms": (layer("estimator.select_best_actions"), "ms"),
        "estimator.rl_low_ms": (layer("estimator.rl_low"), "ms"),
        "estimator.clip_hit_ratio.n_min": (diag.clip_ratio(n_min), "ratio"),
        "estimator.clip_hit_ratio.n_max": (diag.clip_ratio(n_max), "ratio"),
        "estimator.tie_ratio": (diag.tied_states / max(diag.states, 1), "ratio"),
        "privacy.mechanism_ms": (layer("privacy.gaussian_mechanism"), "ms"),
        "privacy.dp_rl_low_ms": (layer("privacy.dp_rl_low"), "ms"),
        "baseline.fit_ms.p50": (percentile(fits, 50), "ms"),
        "baseline.fit_ms.p99": (percentile(fits, 99), "ms"),
        "baseline.iterations": (diag.iterations / max(diag.fits, 1), "count"),
        "baseline.cap_hits": (diag.cap_hits, "count"),
        "baseline.converged_ratio": (diag.converged / max(diag.fits, 1), "ratio"),
        "mdp.search_ms": (layer("mdp.policy_search"), "ms"),
        "mdp.regret_ms": (layer("mdp.mdp_regret"), "ms"),
        "analysis.hardness_ms": (layer("analysis.hardness"), "ms"),
        "analysis.adversary_ms": (layer("analysis.lower_bound_adversary"), "ms"),
        "analysis.H": (diag.H, "1"),
        "analysis.H_dp": (diag.H_dp, "1"),
        "bench.cell_ms.rl_low.p50": (percentile(bench["rl_low_ms"], 50), "ms"),
        "bench.cell_ms.rl_low.p99": (percentile(bench["rl_low_ms"], 99), "ms"),
        "bench.outside_cells_ms": (mean(bench["outside_ms"]), "ms"),
        "bench.summarize_ms": (layer("bench.summarize"), "ms"),
        "bench.emit_ms": (layer("bench.emit_outputs"), "ms"),
        "trace.overhead_ms": ((traced_s - untraced_s) * 1000.0 / cells, "ms"),
        "trace.overhead_pct": ((traced_s - untraced_s) / untraced_s * 100.0, "%"),
    }
    lines = [
        f"traced replay: {passes} passes, {cells} cells, {len(tracer.spans)} spans; "
        f"untraced {untraced_s:.3f}s, traced {traced_s:.3f}s",
        f"baseline fits: {len(fits)}; bench rl_low cells: {len(bench['rl_low_ms'])}",
        "clip-hit ratio per n: " + ", ".join(
            f"n={n}: {diag.clip_ratio(n):.4f}" for n in sorted(diag.clip)
        ),
    ]
    return metrics, tracer, lines
