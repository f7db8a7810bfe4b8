"""Instance-hardness quantities and the lower-bound adversary construction.

For each suboptimal (state, action) the weights targeting it against the
state's best action induce four coefficients:

  gamma        = sum(w^2 / N)        variance proxy of the estimate
  gamma_tilde  = sum(|w| / sqrt(N))  bias envelope coefficient
  gamma_dp     = sum((w / N)^2)      extra variance under label privacy
  gamma_tilde_dp = sum(|w| / N)      extra bias under label privacy

The hardness of an instance is the largest gamma / gap^2 ratio; the pair
attaining it seeds the adversary: among all alternative parameters shifted
by ``eta`` along a direction ``z`` (in the observed span), the closest one
in the mass-weighted squared relative-reward discrepancy has closed form
``theta' = theta + (eta / |z|^2_{V^-1}) * V^{-1} z`` and discrepancy
``eta^2 / |z|^2_{V^-1}``.  That discrepancy brackets the KL divergence
between the label laws of the two instances up to factors exponential in
the maximum absolute reward.  The weight table's SVD (of a QR's R on tall
designs) gives ``V`` as ``diag(s^2)`` in its basis, so ``V^{-1} z`` is
``coords / s^2``, lifted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InconsistencyError, NumericalError, ValidationError
from .estimator import WeightTable, build_weight_table
from .instances import (
    Instance,
    make_instance,
    observed_differences,
    outside_span,
)
from .privacy import PrivacyParams

# Bytes of the one (pairs × targets) block that hardness's |w| sums reuse.  Walking
# pairs, each product packs only its own rows of diff_coords, where walking targets
# repacked all of it every few targets; on the S=4, A=100 instance 1 MiB blocks cross
# OpenBLAS's threading threshold and run twice as slow.  Past ~65k targets a block
# holds one pair, so tiling the targets too belongs with ROADMAP item 11.
PAIR_SUM_BLOCK_BYTES = 1 << 19


@dataclass(frozen=True)
class HardnessReport:
    """Per-target coefficients and the aggregated hardness values."""

    gamma: dict[tuple[int, int], float]
    gamma_tilde: dict[tuple[int, int], float]
    gamma_dp: dict[tuple[int, int], float]
    gamma_tilde_dp: dict[tuple[int, int], float]
    H: float
    H_dp: float | None
    q_member: bool
    argmax: tuple[int, int]

    def to_json_dict(self) -> dict:
        payload = {
            name: {f"{k},{i}": value for (k, i), value in getattr(self, name).items()}
            for name in ("gamma", "gamma_tilde", "gamma_dp", "gamma_tilde_dp")
        }
        return payload | {"H": self.H, "H_dp": self.H_dp, "q_member": self.q_member,
                          "argmax": list(self.argmax)}


@dataclass(frozen=True)
class AdversaryPair:
    """A base instance and its closest alternative under the shift constraint."""

    base: Instance
    alt: Instance
    dtilde_value: float
    eta: float
    z: np.ndarray


def _consistent_table(v: Instance) -> WeightTable:
    """The instance's weight table, from one SVD of its observed differences;
    refuses an inconsistent instance, naming the first witness pair."""
    try:
        return build_weight_table(v.schedule, v.features)
    except InconsistencyError as exc:
        raise InconsistencyError(
            f"instance is inconsistent; witness pair {exc.witness}", witness=exc.witness
        ) from None


def _gamma_hardness(v: Instance, table: WeightTable):
    """H, argmax and q_member from gamma alone; the targets (keys, solves, gammas, gaps)."""
    best = v.best_actions()
    ks, iz = np.nonzero(np.arange(v.num_actions) != best[:, None])
    if not ks.size:
        raise ValidationError("instance has no suboptimal actions")
    solved, gamma = table.targets(v.features, ks, iz, best[ks])
    keys, gaps = list(zip(ks.tolist(), iz.tolist())), v.gaps[ks, iz]
    ratios = gamma / gaps**2
    top = int(np.argmax(ratios))
    H = float(ratios[top])
    q_member = bool(np.all(H >= 4 * np.delete(ratios, top)))
    return H, keys[top], q_member, (keys, solved, gamma, gaps)


def hardness(v: Instance, privacy: PrivacyParams | None = None) -> HardnessReport:
    """Compute all per-target coefficients and the hardness maxima."""
    table = _consistent_table(v)
    H, argmax, q_member, (keys, solved, gamma, gaps) = _gamma_hardness(v, table)
    # Columns gamma, gamma_tilde, gamma_dp, gamma_tilde_dp, from blocks of pair rows
    # P = (w / N)ᵀ; gamma_dp = |P|^2 = |R_C solved|^2, R_C the r×r triangular factor
    # of diff_coords.
    sums = np.column_stack([gamma, np.empty((len(keys), 3))])
    sums[:, 2] = np.square(solved @ np.linalg.qr(table.diff_coords, mode="r").T).sum(axis=1)
    step = max(1, PAIR_SUM_BLOCK_BYTES // (8 * len(keys)))
    scale = np.stack([np.sqrt(table.masses), np.ones_like(table.masses)])
    targets, acc = np.ascontiguousarray(solved.T), np.zeros((2, len(keys)))
    block = np.empty((min(step, table.masses.size), len(keys)))
    for lo in range(0, table.masses.size, step):
        rows = table.diff_coords[lo : lo + step]
        P = np.matmul(rows, targets, out=block[: len(rows)])
        acc += scale[:, lo : lo + step] @ np.abs(P, out=P)
    sums[:, 1::2] = acc.T
    H_dp = None if privacy is None else float(np.max(
        np.sqrt(math.log(1.25 / privacy.delta) * sums[:, 2]) / (math.sqrt(privacy.epsilon) * gaps)
    ))
    return HardnessReport(
        *(dict(zip(keys, column)) for column in sums.T.tolist()),
        H=H, H_dp=H_dp, q_member=q_member, argmax=argmax,
    )


def _same_structure(v: Instance, other: Instance) -> bool:
    return (
        v.num_states == other.num_states
        and v.num_actions == other.num_actions
        and v.dim == other.dim
        and np.array_equal(v.features, other.features)
        and np.array_equal(v.rho, other.rho)
        and np.array_equal(v.schedule, other.schedule)
    )


def d_tilde(v: Instance, v_alt: Instance) -> float:
    """Mass-weighted squared relative-reward discrepancy between instances."""
    if not _same_structure(v, v_alt):
        raise ValidationError("instances differ in more than the parameter vector")
    _, diffs, masses = observed_differences(v.features, v.schedule)
    gap = diffs @ (v.theta - v_alt.theta)
    return float(np.sum(masses * gap**2))


def _bernoulli_kl(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return p * (np.log(p) - np.log(q)) + (1 - p) * (np.log1p(-p) - np.log1p(-q))


def kl_bracket(v: Instance, v_alt: Instance, n: int) -> tuple[float, float, float]:
    """Exact label-law KL divergence and its discrepancy-based bracket.

    Returns (exact, lower, upper) where exact expands the joint divergence
    into per-pair Bernoulli divergences and the bracket scales the
    discrepancy by ``2n exp(-4 R_max)`` and ``2n exp(2 R_max)``.
    """
    dt = d_tilde(v, v_alt)
    _, diffs, masses = observed_differences(v.features, v.schedule)
    p = 1.0 / (1.0 + np.exp(-(diffs @ v.theta)))
    q = 1.0 / (1.0 + np.exp(-(diffs @ v_alt.theta)))
    exact = float(n * np.sum(masses * _bernoulli_kl(p, q)))
    r_max = max(
        float(np.max(np.abs(v.rewards()))), float(np.max(np.abs(v_alt.rewards())))
    )
    lower = 2 * n * math.exp(-4 * r_max) * dt
    upper = 2 * n * math.exp(2 * r_max) * dt
    if not (lower * (1 - 1e-12) - 1e-15 <= exact <= upper * (1 + 1e-12) + 1e-15):
        raise NumericalError(
            f"KL bracket violated: {lower} <= {exact} <= {upper} fails"
        )
    return exact, lower, upper


def alt_minimizer(v: Instance, z: np.ndarray, eta: float) -> AdversaryPair:
    """Closest alternative parameter satisfying ``<z, theta' - theta> = eta``.

    The shift solves an equality-constrained quadratic: it moves along the
    lifted ``V^{-1}`` image of ``z`` just far enough to meet the constraint,
    which also minimises the discrepancy at value ``eta^2 / |z|^2_{V^-1}``.
    Components orthogonal to the observed span are free; this picks zero.
    """
    return _alt_pair(v, _consistent_table(v), z, eta)


def _alt_pair(v: Instance, table: WeightTable, z, eta: float) -> AdversaryPair:
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (v.dim,):
        raise ValidationError(f"z must be a length-{v.dim} vector")
    coords = z @ table.basis.T
    if outside_span(z, table.basis, coords):
        raise ValidationError("z lies outside the span of observed differences")
    if np.linalg.norm(coords) == 0:
        if eta != 0:
            raise ValidationError("constraint is infeasible for z = 0")
        return AdversaryPair(base=v, alt=v, dtilde_value=0.0, eta=0.0, z=z)
    whitened = coords / table.scale
    denom = float(whitened @ whitened)
    theta_alt = v.theta + (eta / denom) * ((whitened / table.scale) @ table.basis)
    alt_rewards = v.features @ theta_alt
    bound = max(v.reward_bound, float(np.max(np.abs(alt_rewards))))
    alt = make_instance(v.features, theta_alt, v.rho, v.schedule, bound)
    return AdversaryPair(
        base=v, alt=alt, dtilde_value=eta**2 / denom, eta=float(eta), z=z
    )


def lower_bound_adversary(v: Instance) -> AdversaryPair:
    """Adversary at the hardness argmax: shift by twice the gap along its pair.

    Checks the construction's promised geometry: best actions are untouched
    in every other state, the targeted suboptimal action becomes optimal in
    its state, and for instances whose top ratio 4-dominates the rest the
    alternative's hardness stays within [H, 8H].  Violations raise rather
    than pass silently.
    """
    table = _consistent_table(v)
    H, (k_bar, i_bar), q_member, _ = _gamma_hardness(v, table)
    best = v.best_actions()
    z = v.features[k_bar, i_bar] - v.features[k_bar, int(best[k_bar])]
    pair = _alt_pair(v, table, z, 2 * float(v.gaps[k_bar, i_bar]))

    alt_best = pair.alt.best_actions()
    problems = [
        f"best action changed in untouched state {k}"
        for k in range(v.num_states)
        if k != k_bar and alt_best[k] != best[k]
    ]
    if alt_best[k_bar] != i_bar:
        problems.append(
            f"target action {i_bar} is not optimal in state {k_bar} "
            f"under the alternative"
        )
    if q_member and not problems:
        # The alternative shares the features and schedule, hence the table.
        H_alt = _gamma_hardness(pair.alt, table)[0]
        if not (H * (1 - 1e-9) <= H_alt <= 8 * H * (1 + 1e-9)):
            problems.append(f"hardness bracket violated: {H} <= {H_alt} <= {8 * H}")
    if problems:
        raise NumericalError("adversary construction failed: " + "; ".join(problems))
    return pair

