"""Box-constrained maximum-likelihood baseline for head-to-head comparisons.

Fits the latent parameter by maximising the logistic log-likelihood of the
observed winners, constrained to the polytope where every (state, action)
reward stays within the known bound.  The optimiser is damped Newton from a
zero start: backtracking on the objective, with steps truncated at the
feasible boundary.  The problem is convex, so the fit is deterministic.

This is deliberately a plain MLE: no pessimism, no confidence sets.  It
serves as the comparison baseline for regret curves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .estimator import select_best_actions
from .instances import Instance, make_instance, validate_instance

MAX_ITERATIONS = 500
GRAD_TOL = 1e-8


@dataclass(frozen=True)
class MleFit:
    theta_hat: np.ndarray
    log_likelihood: float
    converged: bool
    iterations: int


def _design(data, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rec = data.records
    if rec.shape[0] == 0:
        raise ValidationError("cannot fit on an empty dataset")
    x = features[rec[:, 0], rec[:, 1]] - features[rec[:, 0], rec[:, 2]]
    y = np.where(rec[:, 3] == 1, 1.0, -1.0)
    return x, y


def _nll(x: np.ndarray, y: np.ndarray, theta: np.ndarray) -> float:
    margins = y * (x @ theta)
    return float(np.logaddexp(0.0, -margins).sum())


def mle_log_likelihood(data, features: np.ndarray, theta: np.ndarray) -> float:
    x, y = _design(data, features)
    return -_nll(x, y, theta)


def mle_gradient(data, features: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Gradient of the log-likelihood (not the negative)."""
    x, y = _design(data, features)
    margins = y * (x @ theta)
    return (y / (1.0 + np.exp(margins))) @ x


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


def mle_fit(data, features: np.ndarray, L: float) -> MleFit:
    """Constrained logistic MLE over the latent parameter.

    Active-set projected Newton: damped steps inside the polytope, Newton
    steps restricted to active faces once the boundary is reached, faces
    released when their multipliers turn negative.  ``converged`` reports
    the interior criterion (gradient norm below tolerance); boundary-pinned
    fits terminate at their KKT point but keep a nonzero gradient.
    """
    x, y = _design(data, features)
    d = features.shape[2]
    constraints = features.reshape(-1, d)
    theta = np.zeros(d)
    value = _nll(x, y, theta)
    iterations = 0
    converged = False
    for outer in range(1, MAX_ITERATIONS + 1):
        iterations = outer
        margins = y * (x @ theta)
        sig = 1.0 / (1.0 + np.exp(margins))
        grad = -(y * sig) @ x  # gradient of the NLL
        if float(np.linalg.norm(grad)) <= GRAD_TOL:
            converged = True
            iterations = outer - 1
            break
        weights = sig * (1.0 - sig)
        hess = (x * weights[:, None]).T @ x
        hess += 1e-10 * max(float(np.trace(hess)) / d, 1.0) * np.eye(d)

        normals = _active_normals(constraints, L, theta)
        direction, multipliers = _face_newton_step(hess, grad, normals)
        # A stationary face point is optimal only if no multiplier is
        # negative; otherwise release the worst face and step off it.
        step_scale = 1e-12 * (1 + float(np.linalg.norm(theta)))
        while (
            float(np.linalg.norm(direction)) <= step_scale
            and normals.shape[0]
            and multipliers.min() < -1e-8
        ):
            normals = np.delete(normals, int(np.argmin(multipliers)), axis=0)
            direction, multipliers = _face_newton_step(hess, grad, normals)
        if float(np.linalg.norm(direction)) <= step_scale:
            break  # KKT point (interior handled by the gradient test above)

        t_max = _max_feasible_step(constraints, L, theta, direction)
        if t_max <= 1e-15:
            break
        step = min(1.0, t_max)
        slope = float(grad @ direction)
        moved = False
        while step > 1e-15:
            candidate = theta + step * direction
            cand_value = _nll(x, y, candidate)
            if cand_value <= value + 1e-4 * step * slope:
                moved = True
                break
            step *= 0.5
        if not moved:
            break
        theta = candidate
        value = cand_value
    if not np.isfinite(value):
        raise NumericalError("likelihood became non-finite during the fit")
    return MleFit(
        theta_hat=theta,
        log_likelihood=-value,
        converged=converged,
        iterations=iterations,
    )


def mle_select(fit: MleFit, features: np.ndarray, tie_seed: int = 0) -> np.ndarray:
    """Greedy per-state action under the fitted parameter, ties uniform.

    Fits pinned to the reward bound can tie exactly; the draws keep their
    own "mle-tie" streams, apart from the estimators' "tie" streams.
    """
    return select_best_actions(features @ fit.theta_hat, tie_seed, "mle-tie")[0]


def zero_sum_reparam(v: Instance) -> Instance:
    """Equivalent instance with one extra dimension making the parameter sum zero.

    The appended parameter coordinate is the negated sum of the original
    ones and every feature vector gets a zero in that slot, so all rewards
    (hence all relative rewards) are unchanged.
    """
    features = np.zeros((v.num_states, v.num_actions, v.dim + 1))
    features[:, :, : v.dim] = v.features
    theta = np.append(v.theta, -float(v.theta.sum()))
    return validate_instance(
        make_instance(features, theta, v.rho, v.schedule, v.reward_bound)
    )
