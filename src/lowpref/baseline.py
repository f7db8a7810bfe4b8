"""Box-constrained maximum-likelihood baseline for head-to-head comparisons.

Fits the latent parameter by maximising the logistic log-likelihood of the
observed winners, constrained to the polytope where every (state, action)
reward stays within the known bound.  The fit runs on per-pair win counts:
pair p = (k, i, j) with difference ``x_p = f[k, i] - f[k, j]``, ``c_p``
records and ``W_p`` wins of action i adds
``W_p * softplus(-x_p . theta) + (c_p - W_p) * softplus(x_p . theta)`` to the
negative log-likelihood (NLL), the sum of its records' terms, so a fit costs
the m observed pairs, not the records.

The optimiser is active-set projected Newton from a zero start: damped
Newton steps restricted to the faces the iterate sits on, backtracking on
the objective and truncated at the next face.  It stops on a KKT test that
scales with the data: a face point is stationary once the Newton decrement
``d' H d`` of its step is below ``DECREMENT_RTOL * (1 + NLL)``.  A stationary
point releases its most negative face multiplier and re-solves, and with no
negative multiplier left the fit stops.  ``MleFit.status`` says how:

* ``interior``: stationary with no face held (the unconstrained optimum);
* ``boundary_kkt``: stationary on reward-bound faces whose multipliers are
  all non-negative (the constrained optimum);
* ``stalled``: a step left theta bit-identical, or no step was admissible;
* ``cap``: ``MAX_ITERATIONS`` steps were taken without meeting the test.

The problem is convex, so the fit is deterministic.  This is deliberately a
plain MLE: no pessimism, no confidence sets.  It serves as the comparison
baseline for regret curves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .estimator import select_best_actions
from .instances import PreferenceDataset

MAX_ITERATIONS = 500
DECREMENT_RTOL = 1e-15


@dataclass(frozen=True)
class MleFit:
    theta_hat: np.ndarray
    log_likelihood: float
    status: str  # "interior", "boundary_kkt", "stalled" or "cap"
    iterations: int

    @property
    def converged(self) -> bool:
        """Whether the fit stopped at a KKT point."""
        return self.status in ("interior", "boundary_kkt")


def _nll(x: np.ndarray, counts: np.ndarray, wins: np.ndarray, theta: np.ndarray) -> float:
    z = x @ theta
    return float(wins @ np.logaddexp(0.0, -z) + (counts - wins) @ np.logaddexp(0.0, z))


def _active_normals(constraints: np.ndarray, L: float, theta: np.ndarray) -> np.ndarray:
    """Outward normals of the reward-bound faces theta currently sits on."""
    values = constraints @ theta
    band = 1e-9 * max(L, 1.0)
    return np.concatenate([constraints[values >= L - band], -constraints[values <= -L + band]])


def _face_newton_step(
    hess: np.ndarray, grad: np.ndarray, normals: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Newton step restricted to the active face, with its multipliers."""
    d = hess.shape[0]
    m = normals.shape[0]
    kkt = np.zeros((d + m, d + m))
    kkt[:d, :d] = hess
    kkt[:d, d:] = normals.T
    kkt[d:, :d] = normals
    rhs = np.concatenate([-grad, np.zeros(m)])
    solved, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    return solved[:d], solved[d:]


def _max_feasible_step(
    constraints: np.ndarray, L: float, theta: np.ndarray, direction: np.ndarray
) -> float:
    """Largest step keeping all currently inactive faces satisfied.

    Faces the iterate already sits on are skipped: the search direction is
    tangent to them by construction, and their zero residual over a
    rounding-level slope would otherwise truncate the step to nothing.
    """
    values = constraints @ theta
    slopes = constraints @ direction
    band = 1e-9 * max(L, 1.0)
    t_max = np.inf
    up = (slopes > 1e-300) & (L - values > band)
    if np.any(up):
        t_max = min(t_max, float(np.min((L - values[up]) / slopes[up])))
    down = (slopes < -1e-300) & (values + L > band)
    if np.any(down):
        t_max = min(t_max, float(np.min((-L - values[down]) / slopes[down])))
    return max(t_max, 0.0)


def mle_fit(data: PreferenceDataset, features: np.ndarray, L: float) -> MleFit:
    """Constrained logistic MLE over the latent parameter, fitted on the
    dataset's per-pair counts and wins; see the module docstring for the stop
    rule and the statuses."""
    data.check_dims(features.shape[:2])
    pairs, counts, wins = data.pairs, data.counts, data.wins
    if len(pairs) == 0:
        raise ValidationError("cannot fit on an empty dataset")
    x = features[pairs[:, 0], pairs[:, 1]] - features[pairs[:, 0], pairs[:, 2]]
    d = features.shape[2]
    constraints = features.reshape(-1, d)
    theta = np.zeros(d)
    value = _nll(x, counts, wins, theta)
    status, iterations = "cap", 0
    while iterations < MAX_ITERATIONS:
        first = 1.0 / (1.0 + np.exp(-(x @ theta)))  # P(action i wins) per pair
        grad = x.T @ (counts * first - wins)  # gradient of the NLL
        hess = (x * (counts * first * (1.0 - first))[:, None]).T @ x
        hess += 1e-10 * max(float(np.trace(hess)) / d, 1.0) * np.eye(d)

        normals = _active_normals(constraints, L, theta)
        direction, multipliers = _face_newton_step(hess, grad, normals)
        # A stationary face point is optimal only if no multiplier is
        # negative; otherwise release the worst face and step off it.  The
        # decrement is d'Hd, not the equal -g'd: rounding leaves d a small
        # component along the held normals, which g magnifies there.
        floor = DECREMENT_RTOL * (1.0 + abs(value))
        while direction @ hess @ direction <= floor and multipliers.size and multipliers.min() < 0:
            normals = np.delete(normals, int(np.argmin(multipliers)), axis=0)
            direction, multipliers = _face_newton_step(hess, grad, normals)
        if direction @ hess @ direction <= floor:
            status = "boundary_kkt" if normals.size else "interior"
            break

        step = min(1.0, _max_feasible_step(constraints, L, theta, direction))
        slope = float(grad @ direction)
        while step > 1e-15:
            candidate = theta + step * direction
            cand_value = _nll(x, counts, wins, candidate)
            if cand_value <= value + 1e-4 * step * slope:
                break
            step *= 0.5
        if step <= 1e-15 or np.array_equal(candidate, theta):
            status = "stalled"
            break
        theta, value = candidate, cand_value
        iterations += 1
    if not np.isfinite(value):
        raise NumericalError("likelihood became non-finite during the fit")
    return MleFit(theta_hat=theta, log_likelihood=-value, status=status, iterations=iterations)


def mle_select(fit: MleFit, features: np.ndarray, tie_seed: int = 0) -> np.ndarray:
    """Greedy per-state action under the fitted parameter, ties uniform.

    Fits pinned to the reward bound can tie exactly; ``select_best_actions``
    draws them as it draws the estimators' ties.
    """
    return select_best_actions(features @ fit.theta_hat, tie_seed)[0]
