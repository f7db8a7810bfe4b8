"""Monte Carlo benchmark harness: seeded experiment loops and artifact output.

A run sweeps (algorithm x sample size x repetition).  Every cell derives
its randomness from the master seed with splittable labels; the dataset
stream depends only on (n, repetition) so that different algorithms face
identical data and paired comparisons are meaningful, while tie-breaking
and noise streams are additionally keyed by the algorithm name.

Identical configurations reproduce identical tables, except for the
recorded wall-clock column, which is measurement, not output.  An
algorithm runs its G sizes × R repetitions as one batch, and every cell's
``wall_ms`` is 1/(G·R) of it: seeds, win counts, noise, estimates or fits,
selections or policy searches, and regrets.  The rows share that one float,
which ``to_csv`` formats once.  Sampling plans, count CDFs and weight
tables are built before the clock starts.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from .baseline import mle_fit
from .errors import ValidationError, refusing
from .estimator import (
    SuccessRates,
    _weight_table,
    estimate_relative_rewards,
    select_best_actions,
)
from .instances import (
    GeneratorConfig,
    Instance,
    PreferenceDataset,
    count_cdf,
    load_instance,
    make_paper_instance,
    read_json,
    sample_wins,
    sampling_plan,
)
from .mdp import load_kernel, mdp_policy_search, mdp_regret
from .privacy import PrivacyParams, _mechanism
from .rng import stream_keys

ALGORITHMS = ("rl_low", "dp_rl_low", "mle", "rl_low_mdp")
_CONFIG_KEYS = ("instance", "n_grid", "repetitions", "algorithms", "privacy", "kernel",
                "master_seed", "out_dir")


@dataclass(frozen=True)
class ExperimentConfig:
    instance_path: str | None = None
    generator: GeneratorConfig | None = None
    n_grid: tuple[int, ...] = (50, 100, 150, 200, 250, 300, 350, 400)
    repetitions: int = 200
    algorithms: tuple[str, ...] = ("rl_low",)
    privacy: PrivacyParams | None = None
    kernel_path: str | None = None
    master_seed: int = 0
    out_dir: str = "results"

    def __post_init__(self):
        if (self.instance_path is None) == (self.generator is None):
            raise ValidationError(
                "config needs exactly one instance source (path or generator)"
            )
        grid = tuple(int(n) for n in self.n_grid)
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])) or grid[0] < 1:
            raise ValidationError("n_grid must be strictly increasing positive ints")
        object.__setattr__(self, "n_grid", grid)
        if self.repetitions < 1:
            raise ValidationError("repetitions must be >= 1")
        algos = tuple(self.algorithms)
        unknown = set(algos) - set(ALGORITHMS)
        if unknown or not algos:
            raise ValidationError(f"unknown algorithms: {sorted(unknown)}")
        object.__setattr__(self, "algorithms", algos)
        if "dp_rl_low" in algos and self.privacy is None:
            raise ValidationError("dp_rl_low requires privacy parameters")
        if "rl_low_mdp" in algos and self.kernel_path is None:
            raise ValidationError("rl_low_mdp requires a kernel path")


@dataclass(slots=True)
class ResultRow:
    algo: str
    n: int
    rep: int
    seed: int
    regret: float
    wall_ms: float


@dataclass
class ResultTable:
    rows: list[ResultRow] = field(default_factory=list)

    def to_csv(self, path: str | Path) -> None:
        lines, last, wall = ["algo,n,rep,seed,regret,wall_ms"], object(), ""
        for r in self.rows:
            if r.wall_ms is not last:  # a batch's rows share one float: one repr
                last, wall = r.wall_ms, repr(r.wall_ms)
            lines.append(f"{r.algo},{r.n},{r.rep},{r.seed},{r.regret!r},{wall}")
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path: str | Path) -> "ResultTable":
        with refusing("read", path):
            lines = Path(path).read_text().splitlines()
        if not lines or lines[0] != "algo,n,rep,seed,regret,wall_ms":
            raise ValidationError(f"unexpected results header in {path}")
        rows = []
        for at, line in enumerate(lines[1:], 2):
            try:
                algo, n, rep, seed, regret, wall = line.split(",")
                row = ResultRow(algo, int(n), int(rep), int(seed), float(regret), float(wall))
            except ValueError:
                raise ValidationError(f"{path} line {at} is not a results row: {line!r}") from None
            for bad, reason in (
                (algo not in ALGORITHMS, f"algorithm {algo!r} is unknown"),
                (row.n < 1, f"n = {row.n} is below 1"),
                (row.rep < 0, f"rep = {row.rep} is negative"),
                (not 0 <= row.seed < 2**64, f"seed {row.seed} is outside [0, 2**64)"),
                (not math.isfinite(row.regret), f"regret {row.regret} is not finite"),
                (not 0 <= row.wall_ms < math.inf, f"wall_ms {wall} is not finite and non-negative"),
            ):
                if bad:
                    raise ValidationError(f"{path} line {at}: {reason}")
            rows.append(row)
        return cls(rows=rows)


def simple_regret(v: Instance, selections):
    """State-law-weighted reward shortfall of the selected actions: a float
    for (S,) selections, an array over the leading axes for a stack (..., S).
    Refuses a non-integer dtype, a trailing length other than S and an action
    outside [0, A)."""
    idx, S, A = np.asarray(selections), v.num_states, v.num_actions
    if idx.dtype.kind not in "iu" or idx.shape[-1:] != (S,):
        raise ValidationError(f"selections of shape {idx.shape} and dtype {idx.dtype} "
                              f"do not fit S = {S}")
    if idx.size and not 0 <= idx.min() <= idx.max() < A:
        at = tuple(int(x) for x in np.argwhere((idx < 0) | (idx >= A))[0])
        raise ValidationError(f"selection {idx[at]} at index {at} is outside the "
                              f"actions [0, {A}) of state {at[-1]}")
    regret = np.sum(v.rho * v.gaps[np.arange(S), idx], axis=-1)
    return float(regret) if regret.ndim == 0 else regret


def _check_keys(mapping: dict, known: tuple[str, ...], where: str, required=()) -> None:
    """Refuse a key outside ``known`` and a missing ``required`` one, naming it."""
    unknown = sorted(set(mapping) - set(known))
    if unknown:
        raise ValidationError(
            f"unknown {where} key {unknown[0]!r}; expected one of {', '.join(known)}"
        )
    missing = [key for key in required if key not in mapping]
    if missing:
        raise ValidationError(f"{where} key {missing[0]!r} is missing")


_KINDS = {int: "an integer", float: "a number", str: "a string", list: "a list",
          dict: "an object"}


def _value(value, key: str, where: str, kind: type = float):
    """A config value of the JSON type ``kind``; a float accepts any JSON number."""
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValidationError(f"{where} key {key!r} must be {_KINDS[kind]}, got {value!r}")
    return float(value) if kind is float else value


def config_from_dict(payload: dict) -> ExperimentConfig:
    _check_keys(payload, _CONFIG_KEYS, "config")
    source = _value(payload.get("instance", {}), "instance", "config", dict)
    _check_keys(source, ("generator", "path"), "instance")
    generator = None
    if "generator" in source:
        g = _value(source["generator"], "generator", "instance", dict)
        _check_keys(g, ("S", "A", "d", "seed", "gap_step"), "generator",
                    required=("S", "A", "d", "seed"))
        generator = GeneratorConfig(
            num_states=_value(g["S"], "S", "generator", int),
            num_actions=_value(g["A"], "A", "generator", int),
            dim=_value(g["d"], "d", "generator", int),
            seed=_value(g["seed"], "seed", "generator", int),
            gap_step=_value(g.get("gap_step", 0.05), "gap_step", "generator"),
        )
    privacy = payload.get("privacy")
    if privacy is not None:
        _check_keys(_value(privacy, "privacy", "config", dict), ("epsilon", "delta"), "privacy",
                    required=("epsilon", "delta"))
        privacy = PrivacyParams(
            epsilon=_value(privacy["epsilon"], "epsilon", "privacy"),
            delta=_value(privacy["delta"], "delta", "privacy"),
        )
    grid = _value(payload.get("n_grid", list(ExperimentConfig.n_grid)), "n_grid", "config", list)
    algorithms = _value(payload.get("algorithms", ["rl_low"]), "algorithms", "config", list)
    path, kernel = source.get("path"), payload.get("kernel")
    return ExperimentConfig(
        instance_path=None if path is None else _value(path, "path", "instance", str),
        generator=generator,
        n_grid=tuple(_value(n, "n_grid", "config", int) for n in grid),
        repetitions=_value(payload.get("repetitions", 200), "repetitions", "config", int),
        algorithms=tuple(_value(a, "algorithms", "config", str) for a in algorithms),
        privacy=privacy,
        kernel_path=None if kernel is None else _value(kernel, "kernel", "config", str),
        master_seed=_value(payload.get("master_seed", 0), "master_seed", "config", int),
        out_dir=_value(payload.get("out_dir", "results"), "out_dir", "config", str),
    )


def load_config(path: str | Path) -> ExperimentConfig:
    return config_from_dict(read_json(path))


def _resolve_instance(cfg: ExperimentConfig) -> Instance:
    if cfg.instance_path is not None:
        return load_instance(cfg.instance_path)
    return make_paper_instance(cfg.generator)


def _run_cells(v, kernel, cfg, algo) -> list[ResultRow]:
    """Every cell of one algorithm as (G, R) rows of (n, repetition); each step
    that the sizes can share runs once on the whole stack.

    Per-pair record counts are deterministic ceilings, so only the win counts
    vary: one inverse-CDF draw per repetition and pair of each n's plan, all
    in one call, each lane keyed by its n's data seed.  What reads an n's
    masses goes per n: the weight table, the rates, the noise and the
    estimate.  The ``mle`` fits go row by row, each its own Newton loop.
    """
    grid, reps = np.array(cfg.n_grid), np.arange(cfg.repetitions)
    plans = [sampling_plan(v, n) for n in cfg.n_grid]
    pairs, counts, p_first = map(np.concatenate, zip(*plans))
    cdf, sizes = count_cdf(counts, p_first), [len(c) for _, c, _ in plans]
    if algo != "mle":
        tables = [_weight_table(p, c / n, v.features) for (p, c, _), n in zip(plans, cfg.n_grid)]
    start = time.perf_counter()
    data_seeds = stream_keys(cfg.master_seed, "data", grid[:, None], reps)
    tie_seeds = stream_keys(cfg.master_seed, algo, grid[:, None], reps, "tie")
    lanes = np.repeat(data_seeds, sizes, axis=0).T  # (R, every plan's pairs): their n's seeds
    won = np.split(sample_wins(pairs, counts, cdf, lanes), np.cumsum(sizes)[:-1], axis=1)
    scores = np.empty(tie_seeds.shape + v.features.shape[:2])
    for g, ((p, c, _), n, wins) in enumerate(zip(plans, cfg.n_grid, won)):
        if algo == "mle":
            scores[g] = [v.features @ mle_fit(PreferenceDataset(p, c, row, n), v.features,
                                              v.reward_bound).theta_hat for row in wins]
            continue
        rates = SuccessRates(p, wins / c, v.reward_bound)
        if algo == "dp_rl_low":
            seeds = stream_keys(cfg.master_seed, algo, n, reps, "noise")[:, None]
            rates = _mechanism(rates, tables[g].masses, n, cfg.privacy, seeds)
        scores[g] = estimate_relative_rewards(rates, tables[g], v.features)
    if algo == "rl_low_mdp":
        policies = mdp_policy_search(scores, kernel, v.rho, tie_seed=tie_seeds)
        regrets = mdp_regret(v, kernel, policies)
    else:
        regrets = simple_regret(v, select_best_actions(scores, tie_seeds)[0])
    data_seeds, regrets = data_seeds.ravel().tolist(), regrets.ravel().tolist()
    wall_ms = (time.perf_counter() - start) * 1000.0 / len(regrets)
    return list(map(ResultRow, repeat(algo), np.repeat(grid, len(reps)).tolist(),
                    reps.tolist() * len(grid), data_seeds, regrets, repeat(wall_ms)))


def run_experiment(cfg: ExperimentConfig) -> ResultTable:
    """Execute the full sweep; the row order is (algorithm, n, repetition)."""
    v = _resolve_instance(cfg)
    kernel = None
    if cfg.kernel_path is not None:
        kernel = load_kernel(cfg.kernel_path, (v.num_states, v.num_actions))
    rows = []
    for algo in cfg.algorithms:
        rows += _run_cells(v, kernel, cfg, algo)
    return ResultTable(rows=rows)


def summarize(table: ResultTable) -> list[dict]:
    """Sample mean / std (n-1 divisor) / standard error per (algo, n)."""
    if not table.rows:
        raise ValidationError("cannot summarize an empty table")
    groups: dict[tuple[str, int], list[float]] = {}  # in first-row order
    for row in table.rows:
        groups.setdefault((row.algo, row.n), []).append(row.regret)
    summary = []
    for (algo, n), regrets in groups.items():
        values = np.asarray(regrets)
        std = float(values.std(ddof=1)) if values.size > 1 else 0.0
        summary.append(
            {
                "algo": algo,
                "n": n,
                "mean": float(values.mean()),
                "std": std,
                "stderr": std / math.sqrt(values.size),
                "reps": int(values.size),
            }
        )
    return summary


def _svg_plot(summary: list[dict]) -> str:
    """Static log-scale regret curves, one polyline per algorithm with a
    +-1 std band."""
    width, height = 640, 420
    left, right, top, bottom = 70, 20, 20, 50
    algos = list(dict.fromkeys(entry["algo"] for entry in summary))
    ns = sorted({entry["n"] for entry in summary})
    positive = [max(e["mean"] - e["std"], 0.0) for e in summary] + [e["mean"] for e in summary]
    positive = [p for p in positive if p > 0]
    floor = min(positive) / 10 if positive else 1e-12
    top_val = max([entry["mean"] + entry["std"] for entry in summary] + [floor * 10])
    lo_log, hi_log = math.floor(math.log10(floor)), math.ceil(math.log10(top_val))
    if hi_log == lo_log:
        hi_log += 1

    def sx(n):
        span = (ns[-1] - ns[0]) or 1
        return left + (n - ns[0]) / span * (width - left - right)

    def sy(value):
        logv = math.log10(max(value, floor))
        return top + (hi_log - logv) / (hi_log - lo_log) * (height - top - bottom)

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for exp in range(lo_log, hi_log + 1):
        y = sy(10.0**exp)
        parts += [f'<line x1="{left}" y1="{y:.2f}" x2="{width - right}" y2="{y:.2f}" '
                  f'stroke="#dddddd"/>',
                  f'<text x="{left - 8}" y="{y + 4:.2f}" text-anchor="end" '
                  f'font-size="11">1e{exp}</text>']
    for n in ns:
        x = sx(n)
        parts += [f'<line x1="{x:.2f}" y1="{top}" x2="{x:.2f}" y2="{height - bottom}" '
                  f'stroke="#eeeeee"/>',
                  f'<text x="{x:.2f}" y="{height - bottom + 16}" text-anchor="middle" '
                  f'font-size="11">{n}</text>']
    parts.append(f'<text x="{(left + width - right) / 2:.2f}" y="{height - 12}" '
                 f'text-anchor="middle" font-size="12">sample size n</text>')
    for idx, algo in enumerate(algos):
        color = palette[idx % len(palette)]
        entries = sorted((e for e in summary if e["algo"] == algo), key=lambda e: e["n"])
        upper = [(sx(e["n"]), sy(e["mean"] + e["std"])) for e in entries]
        lower = [(sx(e["n"]), sy(max(e["mean"] - e["std"], floor))) for e in entries]
        band = " ".join(f"{x:.2f},{y:.2f}" for x, y in upper + lower[::-1])
        line = " ".join(f'{sx(e["n"]):.2f},{sy(e["mean"]):.2f}' for e in entries)
        parts += [f'<polygon points="{band}" fill="{color}" fill-opacity="0.15" stroke="none"/>',
                  f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="1.8"/>',
                  f'<text x="{width - right - 4}" y="{top + 16 + 14 * idx}" '
                  f'text-anchor="end" font-size="12" fill="{color}">{algo}</text>']
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_outputs(summary: list[dict], table: ResultTable, cfg: ExperimentConfig) -> dict:
    """Write results.csv, summary.json and regret.svg under the output dir; a
    directory or file that cannot be written is refused by name."""
    out = Path(cfg.out_dir)
    with refusing("write", out):
        out.mkdir(parents=True, exist_ok=True)
        table.to_csv(out / "results.csv")
        (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
        (out / "regret.svg").write_text(_svg_plot(summary))
    return {
        "results": str(out / "results.csv"),
        "summary": str(out / "summary.json"),
        "plot": str(out / "regret.svg"),
    }
