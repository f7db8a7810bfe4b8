"""Problem instances and preference datasets for linear pairwise-comparison models.

An instance bundles per-(state, action) feature vectors, a latent parameter
vector, a state distribution, and a comparison schedule.  The reward of
action ``i`` in state ``k`` is the inner product of its feature vector with
the parameter vector.  Preference labels follow the Bradley-Terry-Luce
model: when actions ``i < j`` are compared, the lower-indexed action wins
with probability ``sigmoid(r_i - r_j)``.

A comparison record is canonicalised as (state, first, second,
``winner_is_first``) with ``first < second``.  A ``PreferenceDataset`` keeps
only each observed pair's record count and first-action wins, the statistics
the estimators read: tallied once from the records when a CSV is loaded, and
drawn as one binomial count per pair when sampled.  The schedule tensor is
nonzero only on ordered pairs ``i < j``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ValidationError, refusing
from .rng import stream_keys, substream, uniform

# Singular values below RANK_RTOL * sigma_max are treated as zero when
# computing the rank of the observed-difference matrix.
RANK_RTOL = 1e-9

# Residual threshold for "difference lies in the observed span" tests.
SPAN_RTOL = 1e-9

PROB_ATOL = 1e-12

# ``span_svd`` factors more entries than this QR-first.  For d from 2 to 32 that
# route, U formed by one product, took 1.05-1.43x the direct SVD's time at 2,048
# entries, 0.83-1.06x at 8,192, 0.65-0.92x at 16,384 (2 CPUs, OpenBLAS 0.3.31).
QR_SVD_ENTRIES = 8192


@dataclass(frozen=True)
class Instance:
    """A pairwise-comparison problem: features, parameter, state law, schedule."""

    num_states: int
    num_actions: int
    dim: int
    features: np.ndarray  # (S, A, d)
    theta: np.ndarray  # (d,)
    rho: np.ndarray  # (S,)
    schedule: np.ndarray  # (S, A, A), nonzero only where i < j
    reward_bound: float

    def rewards(self) -> np.ndarray:
        """True rewards ``<features[k, i], theta>`` as an (S, A) matrix."""
        return self.features @ self.theta

    def best_actions(self) -> np.ndarray:
        return np.argmax(self.rewards(), axis=1)

    @cached_property
    def gaps(self) -> np.ndarray:
        """Read-only per-(state, action) reward deficit against the state's
        best action, computed once."""
        rewards = self.rewards()
        gaps = rewards.max(axis=1, keepdims=True) - rewards
        gaps.flags.writeable = False
        return gaps

    def observed_pairs(self) -> np.ndarray:
        """Ordered (k, i, j) triples with positive schedule mass, i < j."""
        return np.argwhere(self.schedule > 0)


@dataclass(frozen=True)
class PreferenceDataset:
    """Each observed (state, first < second) once, in ``np.argwhere`` order, with
    its record count and first-action wins.  ``n`` is the nominal size drawn
    for; the record total may exceed it, as per-pair counts are rounded up.
    """

    pairs: np.ndarray  # (m, 3) int64
    counts: np.ndarray  # (m,) int64
    wins: np.ndarray  # (m,) int64
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("dataset size n must be >= 1")
        for name in ("pairs", "counts", "wins"):
            values = np.asarray(getattr(self, name))
            if values.size and not np.issubdtype(values.dtype, np.integer):
                raise ValidationError(f"dataset {name} must be integers, not {values.dtype}")
            object.__setattr__(self, name, np.array(values, dtype=np.int64))
            getattr(self, name).flags.writeable = False
        pairs, counts, wins = self.pairs, self.counts, self.wins
        if counts.ndim != 1 or pairs.shape != (len(counts), 3) or wins.shape != counts.shape:
            raise ValidationError(f"dataset pairs {pairs.shape}, counts {counts.shape} and "
                                  f"wins {wins.shape} are not shaped (m, 3), (m,), (m,)")
        step = np.diff(pairs, axis=0)  # the first nonzero step of sorted pairs is positive
        lead = step[np.arange(len(step)), np.argmax(step != 0, axis=1)]
        for bad, reason in ((pairs[:, 0] < 0, "state index {0} is negative"),
                            (pairs[:, 1] < 0, "action index {1} is negative"),
                            (pairs[:, 1] >= pairs[:, 2], "first {1} is not below second {2}"),
                            (np.insert(lead <= 0, 0, False), "pairs are not sorted and distinct"),
                            (counts < 1, "count {3} is below 1"),
                            ((wins < 0) | (wins > counts), "wins {4} lie outside [0, {3}]")):
            if bad.any():
                p = int(np.argmax(bad))
                row = [*pairs[p].tolist(), int(counts[p]), int(wins[p])]
                raise ValidationError(f"dataset pair {p} {tuple(row[:3])}: " + reason.format(*row))

    @classmethod
    def from_records(cls, records, n: int, where="record {}".format) -> "PreferenceDataset":
        """Tally (state, first, second, winner_is_first) rows, in any order.  A row
        with a negative index, first >= second or a winner bit other than 0/1 is
        refused, named by ``where(index)``."""
        rec = np.asarray(records, dtype=np.int64).reshape(-1, 4)
        bits = rec[:, 3]
        for bad, reason in ((rec[:, 0] < 0, "state index {0} is negative"),
                            (rec[:, 1] < 0, "action index {1} is negative"),
                            (rec[:, 1] >= rec[:, 2], "first {1} is not below second {2}"),
                            ((bits < 0) | (bits > 1), "winner_is_first is {3}, must be 0 or 1")):
            if bad.any():
                row = int(np.argmax(bad))
                raise ValidationError(f"{where(row)}: " + reason.format(*rec[row].tolist()))
        # The flat key (k·T + i)·T + j, T past the largest action index, sorts as
        # the rows do; np.unique on it is ~25x faster than on rows.
        T, K = int(rec[:, 2].max(initial=0)) + 1, int(rec[:, 0].max(initial=0)) + 1
        if K * T * T > np.iinfo(np.int64).max:
            row = int(np.argmax(rec[:, 2] if T * T > np.iinfo(np.int64).max else rec[:, 0]))
            raise ValidationError(f"{where(row)}: indices {tuple(rec[row, :3].tolist())} "
                                  "overflow the pair key")
        keys, inverse, counts = np.unique((rec[:, 0] * T + rec[:, 1]) * T + rec[:, 2],
                                          return_inverse=True, return_counts=True)
        ki, j = np.divmod(keys, T)
        wins = np.bincount(inverse.reshape(-1)[bits == 1], minlength=len(counts))
        return cls(np.column_stack([*np.divmod(ki, T), j]), counts, wins, n)

    @cached_property
    def records(self) -> np.ndarray:
        """Read-only rows (state, first, second, winner_is_first), one per record,
        pair by pair in pair order, each pair's wins first."""
        rows = np.repeat(np.column_stack([self.pairs, self.counts]), self.counts, axis=0)
        rank = np.arange(len(rows)) - np.repeat(np.cumsum(self.counts) - self.counts, self.counts)
        rows[:, 3] = rank < np.repeat(self.wins, self.counts)
        rows.flags.writeable = False
        return rows

    def check_dims(self, dims: tuple[int, int]) -> None:
        """Refuse a state or action index outside (S, A) = ``dims``, naming its pair."""
        bad = self.pairs[:, [0, 2]] >= np.asarray(dims)
        if bad.any():
            p, c = divmod(int(np.argmax(bad)), 2)  # the first pair, its state checked first
            row = self.pairs[p].tolist()
            raise ValidationError(f"dataset pair {p} {tuple(row)}: {('state', 'action')[c]} "
                                  f"index {row[2 * c]} is outside {'SA'[c]} = {dims[c]}")


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the synthetic-instance generator."""

    num_states: int
    num_actions: int
    dim: int
    seed: int
    gap_step: float = 0.05

    def __post_init__(self):
        if self.num_states < 1 or self.num_actions < 2 or self.dim < 1:
            raise ValidationError("generator requires S >= 1, A >= 2, d >= 1")
        if not self.gap_step > 0:
            raise ValidationError("gap_step must be positive")


def make_instance(features, theta, rho, schedule, reward_bound) -> Instance:
    """Assemble an Instance from array-likes without validating invariants."""
    features = np.array(features, dtype=np.float64, order="C", copy=True)
    if features.ndim != 3:
        raise ValidationError("features must have shape (S, A, d)")
    S, A, d = features.shape
    theta = np.array(theta, dtype=np.float64, copy=True)
    rho = np.array(rho, dtype=np.float64, copy=True)
    schedule = np.array(schedule, dtype=np.float64, order="C", copy=True)
    for arr in (features, theta, rho, schedule):
        arr.flags.writeable = False
    return Instance(S, A, d, features, theta, rho, schedule, float(reward_bound))


def check_finite(values: np.ndarray, name: str) -> None:
    """Refuse an array with a NaN or infinite entry, naming the first one's index."""
    if not np.isfinite(values).all():
        at = tuple(int(x) for x in np.argwhere(~np.isfinite(values))[0])
        raise ValidationError(f"{name} has a non-finite entry at index {at}")


def validate_instance(candidate: Instance) -> Instance:
    """Check every structural invariant; return the instance unchanged if sound."""
    v = candidate
    S, A, d = v.num_states, v.num_actions, v.dim
    if v.features.shape != (S, A, d):
        raise ValidationError(f"features shape {v.features.shape} != {(S, A, d)}")
    if v.theta.shape != (d,):
        raise ValidationError(f"theta shape {v.theta.shape} != {(d,)}")
    if v.rho.shape != (S,):
        raise ValidationError(f"rho shape {v.rho.shape} != {(S,)}")
    if v.schedule.shape != (S, A, A):
        raise ValidationError(f"schedule shape {v.schedule.shape} != {(S, A, A)}")

    for name in ("features", "theta", "rho", "schedule"):
        check_finite(getattr(v, name), name)
    if not math.isfinite(v.reward_bound):
        raise ValidationError(f"reward bound {v.reward_bound} is not finite")

    if np.any(v.rho <= 0):
        raise ValidationError("rho entries must be strictly positive")
    if abs(float(v.rho.sum()) - 1.0) > PROB_ATOL:
        raise ValidationError("rho must sum to 1")

    if np.any(v.schedule < 0) or np.any(v.schedule > 1):
        raise ValidationError("schedule entries must lie in [0, 1]")
    lower = ~np.triu(np.ones((A, A), dtype=bool), k=1)
    if np.any(v.schedule[:, lower] != 0):
        raise ValidationError("schedule must be zero on pairs with i >= j")
    if abs(float(v.schedule.sum()) - 1.0) > PROB_ATOL:
        raise ValidationError("schedule must sum to 1")

    duplicate = _first_duplicate_features(v.features)
    if duplicate is not None:
        k, i, j = duplicate
        raise ValidationError(f"duplicate features for actions {i} and {j} in state {k}")

    rewards = v.rewards()
    if np.max(np.abs(rewards)) > v.reward_bound * (1 + 1e-12) + 1e-12:
        raise ValidationError(
            f"reward bound violated: max |reward| = {np.max(np.abs(rewards))} "
            f"> {v.reward_bound}"
        )

    for k in range(S):
        row = rewards[k]
        if int(np.sum(row == row.max())) != 1:
            raise ValidationError(f"best action in state {k} is not unique")
    return v


def _first_duplicate_features(features: np.ndarray) -> tuple[int, int, int] | None:
    """First (k, i, j), i < j, in (k, i, j) order with equal feature rows, else None.

    Sorting the rows by (state, features) puts equal rows of a state next to
    each other; each run of equal rows is one group, and the answer is the
    lowest (k, i) in a group of two or more with the next member of its group.
    """
    S, A, d = features.shape
    rows = features.reshape(S * A, d)
    states = np.repeat(np.arange(S), A)
    order = np.lexsort((*rows.T[::-1], states))
    ranked, ranked_states = rows[order], states[order]
    same = (ranked_states[1:] == ranked_states[:-1]) & np.all(
        ranked[1:] == ranked[:-1], axis=1
    )
    if not same.any():
        return None
    group = np.empty(S * A, dtype=np.int64)
    group[order] = np.concatenate([[0], np.cumsum(~same)])
    shared = np.flatnonzero(np.bincount(group)[group] > 1)
    first = shared[0]
    second = shared[group[shared] == group[first]][1]
    k, i = divmod(int(first), A)
    return k, i, int(second) % A


def suboptimality_gaps(v: Instance) -> np.ndarray:
    """Per-(state, action) reward deficit against the state's best action."""
    return v.gaps


def pair_differences(features: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Fresh (m, d) differences ``f[k, i] − f[k, j]`` of (m, 3) pairs, by flat index."""
    S, A, d = features.shape
    flat, base = features.reshape(S * A, d), pairs[:, 0] * A
    return flat.take(base + pairs[:, 1], axis=0) - flat.take(base + pairs[:, 2], axis=0)


def observed_differences(
    features: np.ndarray, schedule: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Triples, feature differences and masses of the observed (N > 0) pairs."""
    pairs = np.argwhere(schedule > 0)
    return pairs, pair_differences(features, pairs), schedule[pairs[:, 0], pairs[:, 1], pairs[:, 2]]


def span_svd(rows: np.ndarray) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """One SVD of ``rows`` cut to its rank r: (m, r) left vectors, the (r,) singular
    values and (r, d) orthonormal rows spanning ``rows``.  Past ``QR_SVD_ENTRIES``
    entries it is the SVD of the R of ``rows = QR`` (Chan's R-SVD, LAPACK's own
    QR-first path) and the left vectors are None.  The rank counts singular values
    above ``RANK_RTOL`` times the largest; no rows (or only zero rows) give r = 0.
    """
    if rows.shape[0] == 0:
        return np.zeros((0, 0)), np.zeros(0), np.zeros((0, rows.shape[1]))
    if rows.size > QR_SVD_ENTRIES:
        u, (_, sing, vh) = None, np.linalg.svd(np.linalg.qr(rows, mode="r"), full_matrices=False)
    else:
        u, sing, vh = np.linalg.svd(rows, full_matrices=False)
    r = int(np.sum(sing > RANK_RTOL * sing[0]))
    return None if u is None else u[:, :r], sing[:r], vh[:r]


def outside_span(vectors: np.ndarray, rows: np.ndarray, coords=None) -> np.ndarray:
    """Whether each vector (last axis) leaves the span of orthonormal ``rows``:
    its residual exceeds ``SPAN_RTOL * (1 + |vector|)``.  ``coords`` are the
    vectors' coordinates ``vectors @ rows.T``, if the caller has them."""
    if coords is None:
        coords = vectors @ rows.T
    residual = vectors - coords @ rows
    limit = SPAN_RTOL * (1 + np.linalg.norm(vectors, axis=-1))
    return np.linalg.norm(residual, axis=-1) > limit


def span_witness(
    telescoped: np.ndarray, rows: np.ndarray, coords=None
) -> tuple[int, int, int] | None:
    """First (k, 0, i) whose difference leaves the span of ``rows``, else None.

    ``telescoped`` holds ``f[k, i] − f[k, 0]`` as (S, A, d), S·(A−1) of them
    besides the zeros at i = 0; ``coords`` are their coordinates, if known.  Since
    ``f[k, i] − f[k, j]`` is the difference of two of them, every pair lies in
    the span iff these do, and (k, 0, ·) precedes every other triple of state
    k: in exact arithmetic this is the first triple a scan of all pairs
    (k, i < j) finds.  The ``SPAN_RTOL`` test applies to the telescoped
    vectors, so a pair with i, j > 0 may carry about twice that residual.
    """
    bad = np.argwhere(outside_span(telescoped, rows, coords))
    return (int(bad[0, 0]), 0, int(bad[0, 1])) if bad.size else None


def consistency_witness(
    features: np.ndarray, schedule: np.ndarray
) -> tuple[int, int, int] | None:
    """First (k, i < j) whose difference leaves the observed span, else None;
    by telescoping (``span_witness``) it is always a (k, 0, i)."""
    _, observed, _ = observed_differences(features, schedule)
    return span_witness(features - features[:, :1], span_svd(observed)[2])


def make_paper_instance(cfg: GeneratorConfig) -> Instance:
    """Synthetic benchmark instance: simplex features with a fixed reward ladder.

    Per (state, action) a base vector is drawn uniformly from the probability
    simplex, then shifted along the all-ones parameter so that action ``i``
    has reward exactly ``1 - gap_step * i`` (0-based).  The comparison
    schedule is uniform over all (state, i < j) cells.  With two states the
    state law is (0.4, 0.6), otherwise uniform.
    """
    S, A, d = cfg.num_states, cfg.num_actions, cfg.dim
    theta = np.ones(d)
    rho = np.array([0.4, 0.6]) if S == 2 else np.full(S, 1.0 / S)

    rng = substream(cfg.seed, "synthetic-instance")
    # Exponential draws normalised to unit 1-norm are exactly uniform on the
    # simplex.
    base = rng.exponential(1.0, size=(S, A, d))
    base /= base.sum(axis=2, keepdims=True)
    shift = (cfg.gap_step / d) * np.arange(A)[None, :, None] * theta
    features = base - shift

    schedule = np.zeros((S, A, A))
    iu, ju = np.triu_indices(A, k=1)
    schedule[:, iu, ju] = 2.0 / (S * A * (A - 1))

    rewards = features @ theta
    # Round the realised bound up to one decimal; the tiny slack keeps
    # float-noise at the boundary from inflating it a notch.
    bound = math.ceil(np.max(np.abs(rewards)) * 10 - 1e-9) / 10
    return validate_instance(make_instance(features, theta, rho, schedule, bound))


def sampling_plan(v: Instance, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairs that get records at nominal size ``n``, their record counts and
    the lower-indexed action's win probability.

    Each observed pair (k, i < j) gets ``ceil(N * n)`` records, and its first
    action wins with probability ``sigmoid(r_i - r_j)``.  Returns
    (pairs (m, 3), counts (m,), p_first (m,)).
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    pairs = v.observed_pairs()
    masses = v.schedule[pairs[:, 0], pairs[:, 1], pairs[:, 2]]
    # Guard the ceiling against float overshoot in mass * n.
    counts = np.ceil(masses * n - 1e-9).astype(np.int64)
    pairs, counts = pairs[counts > 0], counts[counts > 0]
    rewards = v.rewards()
    gaps = rewards[pairs[:, 0], pairs[:, 2]] - rewards[pairs[:, 0], pairs[:, 1]]
    # A gap past exp's range overflows to inf, giving the exact limit 0.
    with np.errstate(over="ignore"):
        p_first = 1.0 / (1.0 + np.exp(gaps))
    return pairs, counts, p_first


def count_cdf(counts: np.ndarray, p_first: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each pair's Bin(count, p_first) CDF at w = 0..count, in one flat table that
    keeps the pairs of one count side by side: entry w of a pair is at
    first + w·stride.  The log-pmf, the log binomial coefficient plus
    ``w·(log p − log q) + count·log q`` with q = 1 − p, is built in place; both
    logs are floored at −1e4, below the log of any positive float, so p of 0 or
    1 gives pmfs of exactly 0 and 1, not 0·(−inf).  Each pair's cumulative sum
    is over its own total, so it ends at exactly 1 and a tail whose pmf
    underflows is exactly 0 or 1."""
    log_fact = np.fromiter(map(math.lgamma, range(1, int(counts.max(initial=0)) + 2)), float)
    with np.errstate(divide="ignore"):
        log_p, log_q = np.maximum(np.log(p_first), -1e4), np.maximum(np.log1p(-p_first), -1e4)
    table = np.empty(int(counts.sum()) + len(counts))
    first, stride, at = np.empty_like(counts), np.empty_like(counts), 0
    for c in np.flatnonzero(np.bincount(counts)).tolist():  # np.unique would import numpy.ma
        rows, w = np.flatnonzero(counts == c), np.arange(c + 1)[:, None]
        block = table[at : at + (c + 1) * len(rows)].reshape(c + 1, -1)  # long rows: fast passes
        np.multiply(w, log_p[rows] - log_q[rows], out=block)
        block += c * log_q[rows]
        block += log_fact[c] - log_fact[w] - log_fact[c - w]
        np.cumsum(np.exp(block, out=block), axis=0, out=block)
        block /= block[-1].copy()  # dividing by a view of itself took 8x as long
        first[rows], stride[rows] = at + np.arange(len(rows)), len(rows)
        at += block.size
    return table, first, stride


def sample_wins(pairs: np.ndarray, counts: np.ndarray, cdf, seed) -> np.ndarray:
    """Each pair's first-action wins: the entries of its ``count_cdf`` CDF at or
    below u, word 0 of its (seed, "sample", k, i, j) stream, found by a binary
    search of bit_length(max count) steps; the CDF ends at 1 > u.  ``seed`` is
    one data seed, giving (m,) wins, or an array that broadcasts against (m,),
    such as an (R, 1) column or (R, m) lane seeds, giving wins of its shape."""
    table, lead = cdf[0], (1,) * (np.ndim(seed) - 1)
    # Pairs first, lanes last: a pair's operands broadcast along one inner loop of lanes.
    k, i, j, first, stride, counts = (a.reshape(-1, *lead) for a in (*pairs.T, *cdf[1:], counts))
    u = uniform(stream_keys(np.transpose(seed) if lead else seed, "sample", k, i, j))
    wins = np.zeros(u.shape, dtype=np.int64)  # wins entries of each CDF are known to be <= u
    step = 1 << int(counts.max(initial=0)).bit_length()
    while step > 1:
        step >>= 1
        wins = wins + (table[first + stride * np.minimum(wins + (step - 1), counts)] <= u) * step
    return np.ascontiguousarray(wins.T)


def sample_dataset(v: Instance, n: int, seed: int) -> PreferenceDataset:
    """Draw a dataset of nominal size ``n`` from the comparison model.

    Record counts and win probabilities come from ``sampling_plan``; each pair's
    wins are one Bin(count, p_first) draw from its own (seed, k, i, j) stream.
    """
    pairs, counts, p_first = sampling_plan(v, n)
    wins = sample_wins(pairs, counts, count_cdf(counts, p_first), seed)
    return PreferenceDataset(pairs, counts, wins, n)


def empirical_proportions(data: PreferenceDataset, dims: tuple[int, int]) -> np.ndarray:
    """Per-(k, i < j) share of records as (S, A, A), measured against the
    nominal size; refuses a state or action index outside ``dims``."""
    data.check_dims(dims)
    schedule = np.zeros((dims[0], dims[1], dims[1]))
    schedule[tuple(data.pairs.T)] = data.counts / data.n
    return schedule


# ---------------------------------------------------------------------------
# File formats.  Floats go through json/repr, which round-trips binary64.


def instance_to_dict(v: Instance) -> dict:
    entries = [
        [int(k), int(i), int(j), float(v.schedule[k, i, j])]
        for k, i, j in v.observed_pairs()
    ]
    return {
        "S": v.num_states,
        "A": v.num_actions,
        "d": v.dim,
        "features": v.features.tolist(),
        "theta": v.theta.tolist(),
        "rho": v.rho.tolist(),
        "schedule": entries,
        "L": v.reward_bound,
    }


def instance_from_dict(payload: dict) -> Instance:
    try:
        S, A, d = int(payload["S"]), int(payload["A"]), int(payload["d"])
        schedule = np.zeros((S, A, A))
        for k, i, j, mass in payload["schedule"]:
            schedule[int(k), int(i), int(j)] = mass
        v = make_instance(
            payload["features"], payload["theta"], payload["rho"], schedule, payload["L"]
        )
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ValidationError(f"malformed instance payload: {exc}") from exc
    return validate_instance(v)


def save_instance(v: Instance, path: str | Path) -> None:
    with refusing("write", path):
        Path(path).write_text(json.dumps(instance_to_dict(v)) + "\n")


def read_json(path: str | Path):
    """Parsed contents of a JSON file; one that cannot be read or parsed is refused."""
    with refusing("read", path):
        text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from None


def load_instance(path: str | Path) -> Instance:
    return instance_from_dict(read_json(path))


def save_dataset(data: PreferenceDataset, path: str | Path) -> None:
    with refusing("write", path), open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["state", "first", "second", "winner_is_first"])
        writer.writerows(data.records.tolist())


def _record(path, line: int, row: list[str]) -> list[int]:
    try:
        if len(row) == 4:
            return [int(cell) for cell in row]
    except ValueError:
        pass
    raise ValidationError(f"{path} line {line} is not four integers: {row}")


def load_dataset(path: str | Path) -> PreferenceDataset:
    with refusing("read", path), open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["state", "first", "second", "winner_is_first"]:
            raise ValidationError(f"unexpected dataset header: {header}")
        numbered = [(line, row) for line, row in enumerate(reader, 2) if row]
        rows = [_record(path, line, row) for line, row in numbered]
    if not rows:
        raise ValidationError(f"{path} has no records")
    return PreferenceDataset.from_records(rows, n=len(rows),
                                          where=lambda index: f"{path} line {numbered[index][0]}")
