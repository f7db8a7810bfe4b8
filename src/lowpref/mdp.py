"""Known-transition MDP layer: occupancy measures, policy search, regret.

Policies are deterministic, encoded as a tuple of one action per state.
The long-run state distribution of a policy is its time-average (Cesaro)
occupancy from the initial distribution, which is well defined for
periodic and reducible chains alike.  It is rho times the limit of the
half-lazy kernel (I + P)/2, reached by repeated squaring: lazification
changes neither absorption probabilities nor per-class stationary laws,
so the plain limit of the lazy chain equals the time-average of the
original one, and k squarings take 2^k steps where direct averaging needs
O(1/tol).  The same limit gives policy iteration its gains and biases.

Policy search maximises the occupancy-weighted estimated reward by
``enumerate`` (the default: every policy, from one stacked occupancy build)
or ``iterate`` (gain/bias policy iteration, its check; ignores ``tie_seed``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import _consistent_table
from .errors import NumericalError, ValidationError
from .estimator import (_broadcast_seeds, dataset_inputs, estimate_relative_rewards,
                        select_best_actions)
from .instances import Instance, PreferenceDataset, check_finite, read_json

ENUMERATION_CAP = 1_000_000
OCCUPANCY_BLOCK = 4096  # policies per stacked squaring, two S×S float64 matrices each

Policy = tuple[int, ...]


@dataclass(frozen=True)
class TransitionKernel:
    """State transition probabilities P[k, i, k'] for each (state, action).

    Keeps the occupancies of all Π = A^S policies from one initial law once
    built: Π×S float64 and Π×S int64 policy rows, 16·S·A^S bytes."""

    P: np.ndarray  # (S, A, S)
    _occupancy: dict = field(default_factory=dict, init=False, compare=False, repr=False)


def validate_kernel(P: np.ndarray, dims: tuple[int, int]) -> TransitionKernel:
    S, A = dims
    try:
        P = np.array(P, dtype=np.float64, copy=True)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"kernel is not a numeric array: {exc}") from None
    if P.shape != (S, A, S):
        raise ValidationError(f"kernel shape {P.shape} != {(S, A, S)}")
    if not np.all(np.isfinite(P)):
        k, i, k2 = (int(x) for x in np.argwhere(~np.isfinite(P))[0])
        raise ValidationError(f"kernel entry P[{k}, {i}, {k2}] = {P[k, i, k2]} is not finite")
    if np.any(P < 0):
        raise ValidationError("kernel entries must be nonnegative")
    if np.max(np.abs(P.sum(axis=2) - 1.0)) > 1e-12:
        raise ValidationError("each kernel row must sum to 1")
    P.flags.writeable = False
    return TransitionKernel(P=P)


def load_kernel(path, dims: tuple[int, int]) -> TransitionKernel:
    """The kernel of a JSON file ``{"P": [[[...]]]}``, validated for (S, A)."""
    payload = read_json(path)
    if not isinstance(payload, dict) or "P" not in payload:
        raise ValidationError(f"kernel file {path} has no key 'P'")
    return validate_kernel(payload["P"], dims)


def _check_rho(rho, S: int) -> None:
    """Refuse an initial law of the wrong shape or with a non-finite or negative entry."""
    if np.shape(rho) != (S,):
        raise ValidationError(f"rho {np.shape(rho)} does not fit S = {S}")
    for at, x in enumerate(np.asarray(rho, dtype=np.float64).tolist()):
        if not 0.0 <= x < np.inf:
            what = "negative" if -np.inf < x < 0 else "non-finite"
            raise ValidationError(f"rho has a {what} entry at index {(at,)}")


def _policy_rows(kernel: TransitionKernel, policy, rho: np.ndarray) -> np.ndarray:
    """A policy (S,) or policy rows (..., S) as int64, refused unless they and rho fit
    the kernel; a bad row is named by its index over the leading axes."""
    rows, (S, A) = np.asarray(policy), kernel.P.shape[:2]
    _check_rho(rho, S)
    if rows.shape[-1:] != (S,) or rows.dtype.kind not in "iu":
        raise ValidationError(f"policy of shape {rows.shape} and dtype {rows.dtype} "
                              f"does not fit (S, A) {S, A}")
    bad = np.flatnonzero(np.any((rows < 0) | (rows >= A), axis=-1).ravel())
    if bad.size:
        row = tuple(int(a) for a in rows.reshape(-1, S)[bad[0]])
        at = tuple(int(i) for i in np.unravel_index(bad[0], rows.shape[:-1]))
        name = "policy" if rows.ndim == 1 else f"policy row {at[0] if rows.ndim == 2 else at}"
        raise ValidationError(f"{name} {row} does not fit (S, A) {S, A}")
    return rows.astype(np.int64, copy=False)


def stationary_distribution(kernel: TransitionKernel, policy, rho: np.ndarray) -> np.ndarray:
    """Time-average state occupancy of the policy chain started from rho: (S,) for one
    policy, (..., S) for policy rows, each row with the bits of its own call."""
    rows, S, rho = _policy_rows(kernel, policy, rho), len(rho), np.asarray(rho, dtype=np.float64)
    mu = np.empty(rows.shape)
    for lo in range(0, rows.size // S, OCCUPANCY_BLOCK):
        block, out = rows.reshape(-1, S)[lo:lo + OCCUPANCY_BLOCK], mu.reshape(-1, S)[lo:]
        np.matmul(rho, _cesaro_projector(kernel.P[np.arange(S), block]), out=out[:len(block)])
    return mu


def _cesaro_projector(P: np.ndarray) -> np.ndarray:
    """Limit matrices of the time averages of a stack (..., S, S) of chains, by lazy-kernel
    squaring.  A chain leaves the loop once it converges, so each keeps the bits of its
    own call; P is left as it is."""
    M = (P.reshape(-1, *P.shape[-2:]) + np.eye(P.shape[-1])) * 0.5
    out, at = np.empty_like(M), np.arange(len(M))
    for _ in range(64):
        nxt = M @ M
        # Rounding drifts the row sums and every squaring doubles the drift;
        # renormalising keeps M stochastic so a near miss of the stop test
        # cannot run away to inf.
        nxt /= nxt.sum(axis=2, keepdims=True)
        done = np.abs(np.subtract(nxt, M, out=M), out=M).max(axis=(1, 2)) <= 1e-13
        if done.any():
            out[at[done]] = nxt[done]
            nxt, at = nxt[~done], at[~done]
        if not at.size:
            return out.reshape(P.shape)
        M = nxt
    raise NumericalError("Cesaro projector did not converge in 64 squarings")


def _evaluate_policy(
    kernel: TransitionKernel, rewards: np.ndarray, policy: Policy
) -> tuple[np.ndarray, np.ndarray]:
    """Gain and bias of a policy under the average-reward criterion."""
    at = np.arange(len(policy)), np.asarray(policy, dtype=np.int64)
    P_pi, r_pi = kernel.P[at], rewards[at]
    proj, eye = _cesaro_projector(P_pi), np.eye(len(policy))
    # Gain proj r; bias through the deviation operator (I - P + proj)^{-1} (I - proj).
    return proj @ r_pi, np.linalg.solve(eye - P_pi + proj, (eye - proj) @ r_pi)


def policy_objective(
    kernel: TransitionKernel, rewards: np.ndarray, policy: Policy, rho: np.ndarray
) -> float:
    """Occupancy-weighted reward of the policy from the initial distribution."""
    occupancy = stationary_distribution(kernel, policy, rho)
    r_pi = rewards[np.arange(len(policy)), np.asarray(policy, dtype=np.int64)]
    return float(occupancy @ r_pi)


def _policy_values(kernel: TransitionKernel, rewards: np.ndarray, rho: np.ndarray):
    """Every policy as a row, in lexicographic order, and a float64 array of their
    ``policy_objective``s: (Π,) for rewards (S, A), (..., Π) for a stack (..., S, A).
    Occupancy, free of the rewards, is built once per (kernel, rho)."""
    if np.shape(rewards)[-2:] != kernel.P.shape[:2]:
        raise ValidationError(f"rewards shape {np.shape(rewards)} != (S, A) {kernel.P.shape[:2]}")
    cache, rho = kernel._occupancy, np.array(rho, dtype=np.float64)
    if not np.array_equal(cache.get("rho"), rho):
        S, A = kernel.P.shape[:2]
        if A**S > ENUMERATION_CAP:
            raise ValidationError(f"policy space A^S = {A}^{S} exceeds the enumeration cap")
        # C order: each gathered r_pi row is contiguous, summed as policy_objective's.
        policies = np.ascontiguousarray(np.indices((A,) * S).reshape(S, -1).T)
        cache.update(rho=rho, policies=policies, mu=stationary_distribution(kernel, policies, rho))
    r_pi = rewards[..., np.arange(rewards.shape[-2]), cache["policies"]]
    # One ddot per row, as ``policy_objective``'s ``float(occupancy @ r_pi)``.
    return cache["policies"], np.matmul(cache["mu"][:, None, :], r_pi[..., None])[..., 0, 0]


def _search_iterate(
    kernel: TransitionKernel, rewards: np.ndarray
) -> Policy:
    """Gain/bias policy iteration for the average-reward criterion.

    Two-stage improvement: first on expected next-state gain, then, among
    gain-optimal actions, on immediate reward plus expected bias.  Keeping
    the incumbent action whenever it attains the stage maximum (within
    tolerance) prevents cycling between equal-value actions.
    """
    S, A = rewards.shape
    policy = np.zeros(S, dtype=np.int64)
    tol = 1e-10 * max(1.0, float(np.max(np.abs(rewards))))
    for _ in range(1000):
        gain, bias = _evaluate_policy(kernel, rewards, tuple(policy))
        gain_values = kernel.P @ gain  # (S, A)
        bias_values = rewards + kernel.P @ bias  # (S, A)
        new_policy = policy.copy()
        for k in range(S):
            g_max = gain_values[k].max()
            if gain_values[k, policy[k]] < g_max - tol:
                new_policy[k] = int(np.argmax(gain_values[k]))
                continue
            candidates = np.flatnonzero(gain_values[k] >= g_max - tol)
            b_max = bias_values[k, candidates].max()
            if bias_values[k, policy[k]] < b_max - tol or policy[k] not in candidates:
                new_policy[k] = int(candidates[np.argmax(bias_values[k, candidates])])
        if np.array_equal(new_policy, policy):
            return tuple(int(a) for a in policy)
        policy = new_policy
    raise NumericalError("policy iteration did not converge")


def mdp_policy_search(rhat: np.ndarray, kernel: TransitionKernel, rho: np.ndarray,
                      mode: str = "enumerate", tie_seed=None) -> Policy | np.ndarray:
    """Policy maximising the occupancy-weighted estimated reward: a tuple for one
    estimate (S, A), policy rows (..., S) for a stack (..., S, A), each row with the bits
    of its own call.  ``enumerate`` (the default) is exhaustive, the reference oracle, and
    runs a stack in row blocks holding at most one capped search's values.  Ties break
    lexicographically unless a tie_seed (one, or an array over the leading axes) is given:
    ``select_best_actions`` then draws among the tied policies, one row of values per
    estimate.  ``iterate`` runs policy iteration on one estimate, must agree with it, and
    ignores tie_seed.  A non-finite estimate is refused."""
    (S, A), lead = kernel.P.shape[:2], np.shape(rhat)[:-2]
    if np.shape(rhat)[-2:] != (S, A):
        raise ValidationError(f"rewards shape {np.shape(rhat)} != (S, A) {S, A}")
    check_finite(rhat, "rhat")
    _check_rho(rho, S)
    if mode == "iterate":
        if lead:
            raise ValidationError(f"policy iteration takes one estimate, not {np.shape(rhat)}")
        return _search_iterate(kernel, rhat)
    if mode != "enumerate":
        raise ValidationError(f"unknown policy search mode: {mode}")
    stack, rows = np.reshape(rhat, (-1, S, A)), np.empty((*lead, S), dtype=np.int64)
    seeds = _broadcast_seeds(tie_seed, lead).reshape(-1) if np.ndim(tie_seed) else None
    step = max(1, ENUMERATION_CAP // A**S)
    for lo in range(0, len(stack), step):
        policies, values = _policy_values(kernel, stack[lo:lo + step], rho)
        # A scalar seed reaches select_best_actions as it is, which masks any Python int.
        best = np.argmax(values, axis=-1) if tie_seed is None else select_best_actions(
            values[:, None], tie_seed if seeds is None else seeds[lo:lo + step])[0][:, 0]
        rows.reshape(-1, S)[lo:lo + step] = policies[best]
    return rows if lead else tuple(rows.tolist())


def _optimal_policy(v: Instance, kernel: TransitionKernel) -> tuple[np.ndarray, np.ndarray, int]:
    """Policy rows, true values under ``v.rho`` and the index of the unique optimum."""
    rewards = v.rewards()
    # Occupancies carry rounding residue (at most 1.9e-16 against an extended-
    # precision limit on the test kernels), so uniqueness is judged at a tolerance.
    atol = 1e-9 * max(1.0, float(np.max(np.abs(rewards))))
    policies, values = _policy_values(kernel, rewards, v.rho)
    best = int(np.argmax(values))
    tied = np.count_nonzero(values >= values[best] - atol)
    if tied > 1:
        raise ValidationError(
            f"optimal policy is not unique: {tied} policies attain {float(values[best])}"
        )
    return policies, values, best


def mdp_regret(v: Instance, kernel: TransitionKernel, policy):
    """Occupancy-weighted reward shortfall against the optimum: a float for one
    policy (S,), an array over the leading axes for policy rows (..., S), which
    share one optimum."""
    _, values, best = _optimal_policy(v, kernel)
    rows = _policy_rows(kernel, policy, v.rho)
    index = np.ravel_multi_index(np.moveaxis(rows, -1, 0), (v.num_actions,) * v.num_states)
    regret = np.maximum(values[best] - values[index], 0.0)
    return float(regret) if regret.ndim == 0 else regret


def rl_low_mdp(
    data: PreferenceDataset,
    features: np.ndarray,
    L: float,
    kernel: TransitionKernel,
    rho: np.ndarray,
    tie_seed: int = 0,
) -> Policy:
    """Estimate relative rewards from comparisons, then search for a policy."""
    rates, table = dataset_inputs(data, features, L)
    rhat = estimate_relative_rewards(rates, table, features)
    return mdp_policy_search(rhat, kernel, rho, tie_seed=tie_seed)


def mdp_hardness(v: Instance, kernel: TransitionKernel) -> tuple[float, dict[Policy, float]]:
    """Hardness over alternative policies under the instance's law ``v.rho``:
    worst disagreement-pair variance proxy divided by the squared objective
    gap.  Refuses an inconsistent instance as ``hardness`` does, before the
    optimum's uniqueness check."""
    table = _consistent_table(v)
    policies, values, best = _optimal_policy(v, kernel)
    # Each policy's worst disagreeing gamma: one max over an (S, A) table, −inf at π*.
    pi_star, gamma = policies[best], np.full(kernel.P.shape[:2], -np.inf)
    ks, iz = np.nonzero(np.arange(v.num_actions) != pi_star[:, None])
    gamma[ks, iz] = table.targets(v.features, ks, iz, pi_star[ks])[1]
    others = np.delete(policies, best, axis=0)
    worst = gamma[np.arange(v.num_states), others].max(axis=1)
    gaps = (values[best] - np.delete(values, best)).tolist()
    # Python floats: their ``gap**2`` is libm's pow, which can round apart from gap * gap.
    H = max((g / gap**2 for g, gap in zip(worst.tolist(), gaps)), default=0.0)
    return H, dict(zip(map(tuple, others.tolist()), worst.tolist()))
