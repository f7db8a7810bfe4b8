"""Core estimation pipeline: pooled pairwise log-odds with locally optimal weights.

Given a dataset of pairwise comparisons, the pipeline is

  1. empirical success rates per observed pair;
  2. one SVD (of a QR's R on tall designs) of the pair list's differences with
     rows scaled by ``sqrt(N)``, N = counts / n, no dense schedule made; its
     whitened coordinates make the mass-weighted Gram matrix ``V`` the identity;
  3. per-target weights that express a target feature difference as a
     combination of observed differences with minimal variance proxy
     ``sum(w^2 / N)``, in closed form ``w = N * diff' V^{-1} diff`` with no
     solve (``WeightTable.targets`` stacked, ``entry`` one at a time);
  4. relative-reward estimates ``rhat = sum(w * y)`` against action 0, where
     ``y`` is a pair's log-odds clipped to the band ``[-2L, 2L]`` that the
     reward bound L allows, and per-state argmax selection with uniform tie
     resolution.

``rl_low``, ``dp_rl_low`` and the cells of ``bench.run_experiment`` all run
the same path: per-pair ``SuccessRates`` -> (Gaussian mechanism) ->
``estimate_relative_rewards`` -> ``select_best_actions``.  Both steps take
stacks with leading repetition axes, and the sweep runs them once per
(algorithm, n) on all repetitions; each row keeps the bits of its own call.

Estimates targeted at different pairs are additive (``rhat[i,j] + rhat[j,l]
= rhat[i,l]``), so ranking against action 0 recovers the full order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconsistencyError, NumericalError, ValidationError
from .instances import (
    SPAN_RTOL,
    PreferenceDataset,
    check_finite,
    empirical_proportions,
    observed_differences,
    outside_span,
    pair_differences,
    span_svd,
    span_witness,
)
from .rng import integers, stream_keys

# Smallest admissible eigenvalue of V (a squared singular value) relative to its
# trace.  V is positive definite on the observed span by construction; anything
# smaller signals a rank bug rather than an edge case worth papering over.
V_DEGENERACY_RTOL = 1e-12


@dataclass(frozen=True)
class SuccessRates:
    """Win rates of the lower-indexed action, one per observed pair.

    The arrays are aligned with ``pairs``, the observed (k, i < j) triples
    in ``np.argwhere`` order, which is also the order of
    ``WeightTable.pairs``.  After the Gaussian mechanism ``raw`` may leave
    [0, 1].  The reward bound ``clip_bound`` = L clips each pair's log-odds
    to ``[-2L, 2L]`` when the rates are estimated.  ``run_experiment`` stacks
    the rates of all repetitions as (R, m) rows on the same pairs and
    estimates them at once.
    """

    pairs: np.ndarray  # (m, 3)
    raw: np.ndarray  # (m,)
    clip_bound: float


@dataclass(frozen=True)
class WeightEntry:
    """Locally optimal weights for one target (k, i, j)."""

    target: tuple[int, int, int]
    weights: np.ndarray  # aligned with WeightTable.pairs
    gamma: float  # sum(w^2 / N) = |coords / s|^2, the V^{-1} norm of the target


@dataclass(frozen=True)
class WeightTable:
    """Shared geometry of one consistent observed schedule, in whitened coordinates:
    in ``basis`` and divided by ``scale``, where ``V`` is the identity."""

    pairs: np.ndarray  # (m, 3) observed (k, i < j)
    masses: np.ndarray  # (m,) pair masses N, a dataset's counts / n
    diff_coords: np.ndarray  # (m, r) whitened differences diffs @ basis.T / scale = U / sqrt(N)
    basis: np.ndarray  # (r, d) orthonormal rows spanning the observed differences
    scale: np.ndarray  # (r,) singular values of the sqrt(N)-weighted differences
    target_coords: np.ndarray  # (S, A, r) whitened features[k, i] - features[k, 0]

    def entry(self, target: tuple[int, int, int], features: np.ndarray) -> WeightEntry:
        """Weights and gamma of one target: the per-target reference for ``targets``."""
        k, i, j = target
        S, A = features.shape[:2]
        if not (0 <= k < S and 0 <= i < A and 0 <= j < A):
            raise ValidationError(f"weight target {target} outside (S, A) {S, A}")
        if i == j:
            raise ValidationError("weight target requires two distinct actions")
        tdiff = features[k, i] - features[k, j]
        coords = tdiff @ self.basis.T
        if outside_span(tdiff, self.basis, coords):
            raise InconsistencyError(
                f"target difference {target} lies outside the observed span",
                witness=(int(k), int(i), int(j)),
            )
        whitened = coords / self.scale
        weights = self.masses * (self.diff_coords @ whitened)
        return WeightEntry(target=(int(k), int(i), int(j)), weights=weights,
                           gamma=float(whitened @ whitened))

    def targets(self, features: np.ndarray, ks, iz, js) -> tuple[np.ndarray, np.ndarray]:
        """Whitened coordinates (t, r) and gammas (t,) of the targets f[k, i] − f[k, j]: one
        stacked pass of ``entry``'s products and span refusal; gammas keep their bits."""
        S, A = features.shape[:2]
        index = np.stack([ks, iz, js], axis=-1)
        bad = np.flatnonzero(((index < 0) | (index >= (S, A, A))).any(axis=-1))
        if bad.size:
            target = tuple(index[bad[0]].tolist())
            raise ValidationError(f"weight target {target} outside (S, A) {S, A}")
        tdiff = features[ks, iz] - features[ks, js]
        coords = tdiff[:, None, :] @ self.basis.T
        bad = np.flatnonzero(outside_span(tdiff, self.basis, coords[:, 0]))
        if bad.size:
            target = tuple(index[bad[0]].tolist())
            raise InconsistencyError(
                f"target difference {target} lies outside the observed span", witness=target
            )
        whitened = coords / self.scale
        return whitened[:, 0], (whitened @ whitened.transpose(0, 2, 1))[:, 0, 0]

    def entry_dict(self, entry: WeightEntry) -> dict[tuple[int, int, int], float]:
        return {
            (int(k), int(i), int(j)): float(w)
            for (k, i, j), w in zip(self.pairs, entry.weights)
        }


@dataclass(frozen=True)
class EstimateReport:
    """Relative-reward estimates against action 0 plus selections."""

    rhat: np.ndarray  # (S, A)
    selections: np.ndarray  # (S,)
    tie_sets: list[list[int]]


def success_rates(data: PreferenceDataset, schedule: np.ndarray, L: float) -> SuccessRates:
    """Per-pair win rates of the lower-indexed action.

    ``schedule`` must be the empirical proportions of ``data``; passing the
    design schedule of an instance is an error because the rates divide by
    realised counts.
    """
    if not np.array_equal(schedule, empirical_proportions(data, schedule.shape[:2])):
        raise ValidationError("schedule does not match the dataset's proportions")
    return SuccessRates(data.pairs, data.wins / data.counts, L)


def build_weight_table(schedule: np.ndarray, features: np.ndarray) -> WeightTable:
    """``_weight_table`` of a dense (S, A, A) schedule's observed (N > 0) pairs."""
    pairs = np.argwhere(schedule > 0)
    return _weight_table(pairs, schedule[pairs[:, 0], pairs[:, 1], pairs[:, 2]], features)


def _weight_table(pairs: np.ndarray, masses: np.ndarray, features: np.ndarray) -> WeightTable:
    """Whitened geometry of (m, 3) observed pairs with masses N from one factorisation
    ``diag(sqrt(N)) @ diffs = U diag(s) basis`` (``instances.span_svd``): observed
    coordinates ``U / sqrt(N)``, target coordinates divided by ``s``.  Refuses pairs whose
    span misses some pairwise difference, reporting the first offending triple, always
    (k, 0, i) (see ``instances.span_witness``), and a numerically singular ``V``."""
    weighted = pair_differences(features, pairs)
    root = np.sqrt(masses)
    weighted *= root[:, None]  # in place: pair_differences returns a fresh array
    u, s, basis = span_svd(weighted)
    basis.flags.writeable = False
    # One projection of the S·(A−1) differences against action 0 gives the
    # estimation targets and the witness test.
    telescoped = features - features[:, :1]
    target_coords = telescoped @ basis.T
    witness = span_witness(telescoped, basis, target_coords)
    if witness is not None:
        raise InconsistencyError(
            f"dataset schedule is inconsistent; witness pair {witness}", witness=witness
        )
    if pairs.shape[0] == 0:
        raise ValidationError("schedule observes no pairs; span is empty")
    if s.size == 0:
        raise ValidationError("observed differences are all zero")
    if s[-1] ** 2 <= V_DEGENERACY_RTOL * np.sum(s**2):  # V = diag(s^2) in the basis
        raise NumericalError(f"design matrix is numerically singular (lambda_min={s[-1] ** 2})")
    target_coords /= s
    if u is None:  # a QR-first span_svd forms no U; it is weighted · basisᵀ / s
        diff_coords = weighted @ (basis.T / s)
        diff_coords /= root[:, None]
    else:
        diff_coords = u / root[:, None]
    return WeightTable(pairs=pairs, masses=masses, diff_coords=diff_coords,
                       basis=basis, scale=s, target_coords=target_coords)


def local_weights_qp_oracle(
    target: tuple[int, int, int], schedule: np.ndarray, features: np.ndarray
) -> dict[tuple[int, int, int], float]:
    """Reference solver for the weight optimisation, via a direct KKT system.

    Solves min sum(u^2 / N) subject to the reconstruction constraint with a
    single least-squares solve of the stationarity/feasibility block system.
    Independent of the whitened-basis code path; intended for tests.
    """
    k, i, j = target
    pairs, diffs, masses = observed_differences(features, schedule)
    m = pairs.shape[0]
    d = features.shape[2]
    tdiff = features[k, i] - features[k, j]
    # Feasibility check: the constraint D u = tdiff must be solvable.
    solution, *_ = np.linalg.lstsq(diffs.T, tdiff, rcond=None)
    if np.linalg.norm(diffs.T @ solution - tdiff) > SPAN_RTOL * (
        1 + np.linalg.norm(tdiff)
    ):
        raise InconsistencyError(
            f"target difference {target} is infeasible for the observed pairs",
            witness=(int(k), int(i), int(j)),
        )
    kkt = np.zeros((m + d, m + d))
    kkt[:m, :m] = np.diag(2.0 / masses)
    kkt[:m, m:] = diffs
    kkt[m:, :m] = diffs.T
    rhs = np.concatenate([np.zeros(m), tdiff])
    solved, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    u = solved[:m]
    return {
        (int(pk), int(pi), int(pj)): float(w) for (pk, pi, pj), w in zip(pairs, u)
    }


def _pair_log_odds(rates: SuccessRates, table: WeightTable) -> np.ndarray:
    if rates.pairs is not table.pairs and not np.array_equal(rates.pairs, table.pairs):
        raise ValidationError("rates and weight table cover different pairs")
    # A rate at or below 0 has log-odds -inf and one at or above 1 +inf, so
    # clipping in log space gives exactly -2L and 2L at the ends for any L.
    # log(b) - log1p(-b) rather than log(b/(1-b)): no cancellation near 0 or
    # 1.  np.maximum/np.minimum with out= cost less than np.clip.
    rate = np.maximum(rates.raw, 0.0)
    np.minimum(rate, 1.0, out=rate)
    with np.errstate(divide="ignore"):
        log_odds = np.log(rate)
        log_odds -= np.log1p(np.negative(rate, out=rate), out=rate)
    bound = 2.0 * rates.clip_bound
    np.maximum(log_odds, -bound, out=log_odds)
    return np.minimum(log_odds, bound, out=log_odds)


def estimate_relative_rewards(
    rates: SuccessRates,
    table: WeightTable,
    features: np.ndarray,
    fast_path: bool = True,
) -> np.ndarray:
    """Relative-reward estimates of every action against action 0.

    ``rates`` holds one row of m rates, giving (S, A) estimates, or a stack
    (..., m) of rows on the same pairs, giving (..., S, A).  The fast path
    folds the weight computation into one global vector ``g = diff_coords' (N *
    log-odds)`` per row (``V`` is the identity in whitened coordinates) and
    evaluates each target as a dot product; its batched products make, row by
    row, the BLAS calls of a single row, so a row of a stack has the bits of
    its own call.  The slow path materialises per-target weights and serves as
    the reference.  Both agree to float precision.
    """
    log_odds = _pair_log_odds(rates, table)
    if fast_path:
        g = np.matmul(table.diff_coords.T, (table.masses * log_odds)[..., None])
        return (table.target_coords @ g[..., None, :, :])[..., 0]
    S, A, _ = features.shape
    rhat = np.zeros(log_odds.shape[:-1] + (S, A))
    for k in range(S):
        for i in range(1, A):
            rhat[..., k, i] = log_odds @ table.entry((k, i, 0), features).weights
    return rhat


def select_best_actions(
    rhat: np.ndarray, tie_seed=0
) -> tuple[np.ndarray, list[list[int]] | None]:
    """Per-state argmax of the estimates, ties resolved uniformly by seed.

    ``rhat`` is (S, A) or a stack (..., S, A); ``tie_seed`` is one seed or
    an array of them over the leading axes.  A tie in state k takes the
    ``rng.integers``-th tied action of its row, drawn from the (tie seed, "tie", k)
    stream, every tie of the stack at once.  Returns the (..., S) selections
    and, for an (S, A) input, the tied actions of each state; for a stack, None.
    A non-finite estimate, or a seed array that does not broadcast to the
    leading axes, is refused by name.
    """
    check_finite(rhat, "rhat")
    if np.ndim(tie_seed):  # a scalar goes to stream_keys, which masks any Python int
        tie_seed = _broadcast_seeds(tie_seed, rhat.shape[:-2])
    is_max = rhat == rhat.max(axis=-1, keepdims=True)
    selections, counts = np.argmax(is_max, axis=-1), is_max.sum(axis=-1)
    *rows, ks = tied = np.nonzero(counts > 1)
    if ks.size:  # drawing no tie still costs ~17 us, more than the selection itself
        if np.ndim(tie_seed):
            tie_seed = tie_seed[tuple(rows)]
        draws = integers(stream_keys(tie_seed, "tie", ks), counts[tied])
        selections[tied] = np.argmax(is_max[tied].cumsum(axis=-1) > draws[:, None], axis=-1)
    tie_sets = [np.flatnonzero(m).tolist() for m in is_max] if rhat.ndim == 2 else None
    return selections, tie_sets


def _broadcast_seeds(tie_seed, lead: tuple[int, ...]) -> np.ndarray:
    seeds = np.asarray(tie_seed)
    if seeds.shape == lead:  # the sweep's seeds fit; np.broadcast_to would cost ~4 us a call
        return seeds
    try:
        return np.broadcast_to(seeds, lead)
    except ValueError:
        raise ValidationError(f"tie_seed of shape {np.shape(tie_seed)} does not broadcast "
                              f"to the estimates' leading axes {lead}") from None


def dataset_inputs(
    data: PreferenceDataset, features: np.ndarray, L: float
) -> tuple[SuccessRates, WeightTable]:
    """Success rates and weight table of a dataset's pairs with masses ``counts / n``.

    Refuses a pair outside the features' (S, A), and pairs whose span misses
    some pairwise feature difference, reporting the offending triple.
    """
    data.check_dims(features.shape[:2])
    rates = SuccessRates(data.pairs, data.wins / data.counts, L)
    return rates, _weight_table(data.pairs, data.counts / data.n, features)


def report_from_rates(
    rates: SuccessRates, table: WeightTable, features: np.ndarray, tie_seed: int
) -> EstimateReport:
    """Estimate relative rewards from per-pair rates and select per state."""
    rhat = estimate_relative_rewards(rates, table, features)
    selections, tie_sets = select_best_actions(rhat, tie_seed)
    return EstimateReport(rhat=rhat, selections=selections, tie_sets=tie_sets)


def rl_low(
    data: PreferenceDataset, features: np.ndarray, L: float, tie_seed: int = 0
) -> EstimateReport:
    """End-to-end estimation: rates, weights, relative rewards, selection."""
    rates, table = dataset_inputs(data, features, L)
    return report_from_rates(rates, table, features, tie_seed)
