"""Label-private estimation via the Gaussian mechanism on success rates.

One preference label touches exactly one empirical success rate, by
``1 / (n * N)``, so adding zero-mean Gaussian noise with standard deviation
``sqrt(2 * ln(1.25 / delta)) / (epsilon * n * N)`` to each observed rate
yields (epsilon, delta) label differential privacy.  The rest of the
pipeline is unchanged: the weights depend only on features and comparison
proportions, which are public attributes.

Rates are kept once per observed pair (k, i < j), for the lower-indexed
action, so noise is drawn once per unordered pair and the reverse
orientation is only ever the implied complement.  Drawing independently for
both orientations would break the complement identity and double the
privacy cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .estimator import EstimateReport, SuccessRates, dataset_inputs, report_from_rates
from .instances import PreferenceDataset
from .rng import normals, stream_keys


@dataclass(frozen=True)
class PrivacyParams:
    """(epsilon, delta) privacy budget; both strictly inside (0, 1)."""

    epsilon: float
    delta: float

    def __post_init__(self):
        for name in ("epsilon", "delta"):
            value = getattr(self, name)
            if not 0 < value < 1:
                raise ValidationError(f"{name} must lie strictly in (0, 1), got {value}")
        if math.isinf(1.25 / self.delta):
            raise ValidationError(f"delta is too small: 1.25 / delta overflows, got {self.delta}")


def noise_scale(n: int, masses, privacy: PrivacyParams):
    """Gaussian std calibrated to a single label flip in an (n * N)-count cell.

    ``masses`` is one schedule value N or an array of them.  A scale that is not
    finite (epsilon * n * N near 0) is refused, with no RuntimeWarning.
    """
    root = math.sqrt(2 * math.log(1.25 / privacy.delta))
    with np.errstate(divide="ignore", over="ignore"):
        scale = root / np.multiply(privacy.epsilon * n, masses)
    if not np.all(np.isfinite(scale)):
        raise ValidationError(f"noise scale is not finite at epsilon={privacy.epsilon}, n={n}")
    return scale


def _draw_noise(seed, pairs: np.ndarray, stds: np.ndarray) -> np.ndarray:
    """One Gaussian draw per observed pair from its (seed, "noise", k, i, j)
    stream, all streams drawn in one batch.  ``seed`` is one seed, or an
    (R, 1) column of them for R rows of draws.

    Module-level so tests can stub it out (e.g. with zeros); the public
    pipeline never substitutes it.
    """
    streams = stream_keys(seed, "noise", pairs[:, 0], pairs[:, 1], pairs[:, 2])
    stds = np.broadcast_to(stds, streams.shape).ravel()
    return normals(streams.ravel(), stds).reshape(streams.shape)


def gaussian_mechanism(
    rates: SuccessRates,
    schedule: np.ndarray,
    n: int,
    privacy: PrivacyParams,
    seed,
) -> SuccessRates:
    """Perturb each observed success rate with noise calibrated to its schedule value.

    ``seed`` is one seed, or an (R, 1) column of seeds when ``rates`` stacks
    R rows of rates on the same pairs; row r then gets row r's noise.
    """
    pairs = rates.pairs
    return _mechanism(rates, schedule[pairs[:, 0], pairs[:, 1], pairs[:, 2]], n, privacy, seed)


def _mechanism(rates: SuccessRates, masses, n: int, privacy: PrivacyParams, seed) -> SuccessRates:
    """``gaussian_mechanism`` with the pairs' masses (m,) in place of the schedule."""
    noisy = rates.raw + _draw_noise(seed, rates.pairs, noise_scale(n, masses, privacy))
    return SuccessRates(rates.pairs, noisy, rates.clip_bound)


def dp_rl_low(
    data: PreferenceDataset,
    features: np.ndarray,
    L: float,
    privacy: PrivacyParams,
    seed: int,
    tie_seed: int = 0,
) -> EstimateReport:
    """Private variant of the estimation pipeline.

    Identical to the non-private run except that the rates pass through the
    Gaussian mechanism; the weights are untouched because they never read
    the labels.
    """
    rates, table = dataset_inputs(data, features, L)
    rates = _mechanism(rates, table.masses, data.n, privacy, seed)
    return report_from_rates(rates, table, features, tie_seed)
