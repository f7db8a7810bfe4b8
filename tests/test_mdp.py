"""Occupancy measures, policy search, MDP regret and hardness."""

import itertools
import re

import numpy as np
import pytest

from lowpref import (
    GeneratorConfig,
    NumericalError,
    ValidationError,
    build_weight_table,
    hardness,
    make_instance,
    make_paper_instance,
    mdp_hardness,
    mdp_policy_search,
    mdp_regret,
    rl_low,
    rl_low_mdp,
    sample_dataset,
    select_best_actions,
    stationary_distribution,
    suboptimality_gaps,
    validate_instance,
    validate_kernel,
)
from lowpref.mdp import (
    ENUMERATION_CAP,
    OCCUPANCY_BLOCK,
    _cesaro_projector,
    _optimal_policy,
    _policy_values,
    policy_objective,
)
from lowpref.rng import derive_seed
from conftest import oracle_integer, oracle_key, random_consistent_instance


def state_independent_kernel(rho, A):
    S = len(rho)
    return validate_kernel(np.tile(np.asarray(rho), (S, A, 1)), (S, A))


def self_loop_kernel(S, A):
    P = np.zeros((S, A, S))
    P[np.arange(S)[:, None], np.arange(A)[None, :], np.arange(S)[:, None]] = 1.0
    return validate_kernel(P, (S, A))


class TestKernelValidation:
    def test_rejects_bad_rows(self):
        with pytest.raises(ValidationError):
            validate_kernel(np.full((1, 2, 1), 0.5), (1, 2))

    def test_rejects_negative(self):
        P = np.array([[[1.5, -0.5], [1.0, 0.0]], [[0.0, 1.0], [0.0, 1.0]]])
        with pytest.raises(ValidationError):
            validate_kernel(P, (2, 2))

    def test_rejects_non_finite(self):
        # A NaN passes both the sign check and the row-sum check.
        P = np.array([[[1.0, 0.0], [np.nan, 1.0]], [[0.0, 1.0], [0.0, 1.0]]])
        with pytest.raises(ValidationError, match=r"P\[0, 1, 0\]"):
            validate_kernel(P, (2, 2))


class TestCesaroProjector:
    def test_near_miss_of_the_stop_test_does_not_overflow(self):
        # Without renormalisation this chain misses the 1e-13 stop test by a
        # hair at squaring 11, the row-sum drift doubles with each squaring,
        # and M overflows to inf.
        P = np.array([[0.9983713721937341, 0.0016286278062660165],
                      [0.04529044448516321, 0.9547095555148367]])
        proj = _cesaro_projector(P.copy())
        stationary = np.array([P[1, 0], P[0, 1]]) / (P[0, 1] + P[1, 0])
        assert np.allclose(stationary, [0.96529, 0.03471], atol=1e-5)
        assert np.max(np.abs(proj - stationary)) < 1e-12

    def test_no_convergence_raises(self):
        with pytest.raises(NumericalError, match="64 squarings"):
            _cesaro_projector(np.array([[np.nan, 1.0], [0.0, 1.0]]))

    def test_stacked_chains_keep_their_single_call_bits(self):
        # The near miss above needs 12 squarings; the fast chain converges
        # in a few and leaves the stack first.
        near = np.array([[0.9983713721937341, 0.0016286278062660165],
                         [0.04529044448516321, 0.9547095555148367]])
        fast = np.array([[0.5, 0.5], [0.25, 0.75]])
        stack = _cesaro_projector(np.stack([fast, near, fast]))
        assert stack.shape == (3, 2, 2)
        for proj, P in zip(stack, (fast, near, fast)):
            assert proj.tobytes() == _cesaro_projector(P.copy()).tobytes()

    def test_argument_is_left_unchanged(self):
        near = np.array([[0.9983713721937341, 0.0016286278062660165],
                         [0.04529044448516321, 0.9547095555148367]])
        stack = np.stack([np.array([[0.5, 0.5], [0.25, 0.75]]), near])
        before = stack.tobytes()
        _cesaro_projector(stack)
        _cesaro_projector(stack[1])
        assert stack.tobytes() == before

    def test_nan_chain_in_a_stack_raises(self):
        fast = np.array([[0.5, 0.5], [0.25, 0.75]])
        with pytest.raises(NumericalError, match="64 squarings"):
            _cesaro_projector(np.stack([fast, np.array([[np.nan, 1.0], [0.0, 1.0]]), fast]))


class TestStationaryDistribution:
    def test_state_independent_rows(self):
        rho = np.array([0.25, 0.75])
        kernel = state_independent_kernel(rho, A=2)
        for policy in ((0, 0), (0, 1), (1, 0), (1, 1)):
            d = stationary_distribution(kernel, policy, rho)
            assert np.max(np.abs(d - rho)) < 1e-10

    def test_self_loops_preserve_initial_law(self):
        kernel = self_loop_kernel(3, 2)
        rho = np.array([0.2, 0.3, 0.5])
        d = stationary_distribution(kernel, (0, 1, 0), rho)
        assert np.max(np.abs(d - rho)) < 1e-10

    def test_two_cycle_time_average(self):
        P = np.zeros((2, 1, 2))
        P[0, 0, 1] = 1.0
        P[1, 0, 0] = 1.0
        kernel = validate_kernel(P, (2, 1))
        for rho in ([1.0, 0.0], [0.3, 0.7]):
            d = stationary_distribution(kernel, (0, 0), np.asarray(rho))
            assert np.max(np.abs(d - 0.5)) < 1e-9

    def test_absorbing_chain(self):
        # Both actions in both states jump to state 0 and stay.
        P = np.zeros((2, 2, 2))
        P[:, :, 0] = 1.0
        kernel = validate_kernel(P, (2, 2))
        d = stationary_distribution(kernel, (1, 0), np.array([0.5, 0.5]))
        assert np.max(np.abs(d - [1.0, 0.0])) < 1e-9

    def test_is_probability_vector(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            S, A = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            kernel = validate_kernel(rng.dirichlet(np.ones(S), size=(S, A)), (S, A))
            policy = tuple(rng.integers(A, size=S))
            rho = rng.dirichlet(np.ones(S))
            d = stationary_distribution(kernel, policy, rho)
            assert np.all(d >= 0)
            assert abs(d.sum() - 1.0) < 1e-10


def _longdouble_occupancy(kernel, policies, rho):
    """Occupancy rows from extended-precision lazy-kernel squarings, renormalised,
    a fixed 64 of them with no stop test."""
    S = kernel.P.shape[0]
    M = 0.5 * (np.eye(S, dtype=np.longdouble)
               + kernel.P[np.arange(S), policies].astype(np.longdouble))
    for _ in range(64):
        M = M @ M
        M /= M.sum(axis=-1, keepdims=True)
    return np.asarray(rho, dtype=np.longdouble) @ M


def _kernel_of_kind(rng, kind, S, A):
    """Periodic (every action a rotation), absorbing (into state 0), sticky
    (slow mixing) or Dirichlet-row kernel."""
    stay = np.broadcast_to(np.eye(S)[:, None, :], (S, A, S))
    if kind == "periodic":
        P = np.zeros((S, A, S))
        P[np.arange(S)[:, None], np.arange(A)[None, :],
          (np.arange(S)[:, None] + 1 + np.arange(A)[None, :]) % S] = 1.0
    elif kind == "absorbing":
        q = rng.uniform(0.1, 0.5, size=(S, A, 1))
        P = (1 - q) * stay + q * np.eye(S)[0]
    elif kind == "sticky":
        P = 0.8 * stay + 0.2 * rng.dirichlet(np.ones(S), size=(S, A))
    else:
        P = rng.dirichlet(np.ones(S), size=(S, A))
    return validate_kernel(P, (S, A))


def _assert_rows_are_single_calls(kernel, policies, rho, stacked):
    for row, policy in enumerate(policies):
        one = stationary_distribution(kernel, tuple(policy.tolist()), rho)
        assert one.shape == (kernel.P.shape[0],)
        assert one.tobytes() == stacked[row].tobytes(), row


class TestStackedOccupancy:
    def test_rows_match_single_calls_and_an_extended_precision_limit(self):
        rng = np.random.default_rng(53)
        for S in range(1, 9):
            A = 3 if S <= 4 else 2
            policies = np.indices((A,) * S).reshape(S, -1).T
            for kind in ("periodic", "absorbing", "sticky", "dirichlet"):
                kernel = _kernel_of_kind(rng, kind, S, A)
                rho = rng.dirichlet(np.ones(S))
                stacked = stationary_distribution(kernel, policies, rho)
                assert stacked.shape == (A**S, S)
                _assert_rows_are_single_calls(kernel, policies, rho, stacked)
                reference = _longdouble_occupancy(kernel, policies, rho)
                assert float(np.max(np.abs(stacked - reference))) < 1e-14, (S, kind)

    def test_rows_match_single_calls_across_the_block_boundary(self):
        rng = np.random.default_rng(59)
        A = 65  # 65^2 = 4,225 policies: one full block and a partial one
        assert A**2 > OCCUPANCY_BLOCK
        kernel = _kernel_of_kind(rng, "dirichlet", 2, A)
        rho = rng.dirichlet(np.ones(2))
        policies = np.indices((A, A)).reshape(2, -1).T
        stacked = stationary_distribution(kernel, policies, rho)
        _assert_rows_are_single_calls(kernel, policies, rho, stacked)

    def test_slow_leak_converges_in_a_stack(self):
        # Action 0 in state 0 leaks 1e-9 of mass per step; action 1 moves
        # every state to state 1 at once.
        P = np.array([[[1 - 1e-9, 1e-9], [0.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]]])
        kernel = validate_kernel(P, (2, 2))
        rho = np.array([1.0, 0.0])
        policies = np.array([[1, 0], [0, 0], [1, 1]])
        stacked = stationary_distribution(kernel, policies, rho)
        assert float(np.max(np.abs(stacked - [0.0, 1.0]))) < 1e-15
        _assert_rows_are_single_calls(kernel, policies, rho, stacked)

    def test_values_are_per_policy_dot_products(self):
        rng = np.random.default_rng(61)
        for kind in ("periodic", "absorbing", "sticky", "dirichlet"):
            S, A = 3, 4
            kernel = _kernel_of_kind(rng, kind, S, A)
            rho, rewards = rng.dirichlet(np.ones(S)), rng.normal(size=(S, A))
            policies, values = _policy_values(kernel, rewards, rho)
            mu = stationary_distribution(kernel, policies, rho)
            r_pi = rewards[np.arange(S), policies]
            assert [v.hex() for v in values.tolist()] == \
                [float(m @ r).hex() for m, r in zip(mu, r_pi)]


class TestPolicySearch:
    def test_single_state_reduces_to_argmax(self):
        rhat = np.array([[0.3, 0.9, -0.2]])
        kernel = self_loop_kernel(1, 3)
        assert mdp_policy_search(rhat, kernel, np.array([1.0]), "enumerate") == (1,)

    def test_state_independent_kernel_is_per_state_argmax(self):
        rng = np.random.default_rng(3)
        rho = np.array([0.4, 0.6])
        kernel = state_independent_kernel(rho, A=4)
        for _ in range(20):
            rhat = rng.normal(size=(2, 4))
            policy = mdp_policy_search(rhat, kernel, rho, "enumerate")
            assert policy == tuple(np.argmax(rhat, axis=1))

    def test_crafted_two_state_objectives(self):
        # Action 0 hops to the other state, action 1 stays put.
        P = np.zeros((2, 2, 2))
        P[0, 0, 1] = 1.0
        P[0, 1, 0] = 1.0
        P[1, 0, 0] = 1.0
        P[1, 1, 1] = 1.0
        kernel = validate_kernel(P, (2, 2))
        rho = np.array([0.5, 0.5])
        rhat = np.array([[1.0, 0.2], [-0.4, 0.5]])
        # Hand-computed occupancy-weighted values per policy:
        #   (0,0): two-cycle, d=(1/2,1/2)   -> (1.0 - 0.4)/2 = 0.30
        #   (0,1): absorbed in state 1      -> 0.5
        #   (1,0): absorbed in state 0      -> 0.2
        #   (1,1): self-loops, d = rho      -> (0.2 + 0.5)/2 = 0.35
        values = {
            policy: policy_objective(kernel, rhat, policy, rho)
            for policy in [(0, 0), (0, 1), (1, 0), (1, 1)]
        }
        assert values[(0, 0)] == pytest.approx(0.30, abs=1e-9)
        assert values[(0, 1)] == pytest.approx(0.50, abs=1e-9)
        assert values[(1, 0)] == pytest.approx(0.20, abs=1e-9)
        assert values[(1, 1)] == pytest.approx(0.35, abs=1e-9)
        assert mdp_policy_search(rhat, kernel, rho, "enumerate") == (0, 1)

    def test_enumeration_cap(self):
        rhat = np.zeros((25, 4))
        kernel = self_loop_kernel(25, 4)
        with pytest.raises(ValidationError, match="cap"):
            mdp_policy_search(rhat, kernel, np.full(25, 1 / 25), "enumerate")

    def test_default_mode_enumerates_past_ten_thousand_policies(self):
        # 7^5 = 16,807 policies.  Self-loops keep the occupancy at rho, and two
        # equal best actions per state tie 2^5 policies exactly.
        S, A = 5, 7
        kernel = self_loop_kernel(S, A)
        rho = np.full(S, 1 / S)
        rhat = np.zeros((S, A))
        rhat[:, 3:5] = 1.0
        tied = list(itertools.product((3, 4), repeat=S))
        drawn = [mdp_policy_search(rhat, kernel, rho, tie_seed=seed) for seed in range(6)]
        assert drawn == [tied[oracle_integer(oracle_key(seed, "tie", 0), len(tied))]
                         for seed in range(6)]
        assert len(set(drawn)) > 1
        # Past the cap the default search is refused, not run by iteration.
        S = 25
        with pytest.raises(ValidationError, match="cap"):
            mdp_policy_search(np.zeros((S, 4)), self_loop_kernel(S, 4), np.full(S, 1 / S))
        assert 4**S > ENUMERATION_CAP

    def test_seeded_ties_draw_through_select_best_actions(self):
        """A seeded search picks the policy that ``select_best_actions`` picks
        from the policy values as one row: self-loop kernels keep the
        occupancy at rho, and planted equal best actions tie policies exactly."""
        rng = np.random.default_rng(59)
        drawn_later = 0
        for S, A in ((1, 4), (2, 3), (3, 4), (4, 5)):
            kernel, rho = self_loop_kernel(S, A), rng.dirichlet(np.ones(S))
            for _ in range(4):
                rhat = np.round(rng.normal(size=(S, A)), 1)
                for k in range(S):
                    rhat[k, rng.choice(A, size=int(rng.integers(1, A + 1)), replace=False)] = 1.0
                policies, values = _policy_values(kernel, rhat, rho)
                for seed in (0, 5, 2**64 - 1):
                    pick = select_best_actions(values[None], seed)[0][0]
                    drawn = mdp_policy_search(rhat, kernel, rho, tie_seed=seed)
                    assert drawn == tuple(policies[pick].tolist())
                    drawn_later += pick != np.argmax(values)
        assert drawn_later > 0

    def test_stack_rows_are_single_calls_with_ties(self):
        """Estimates rounded to one decimal, with constant rows among them, tie
        policies exactly; every stacked row is its own single call, seeded or
        lexicographic."""
        S, A = 2, 10
        kernel = validate_kernel(np.random.default_rng(2024).dirichlet(np.ones(S), size=(S, A)),
                                 (S, A))
        rng = np.random.default_rng(67)
        rho = rng.dirichlet(np.ones(S))
        rhat = np.round(rng.normal(size=(40, S, A)), 1)
        rhat[::4] = np.round(rng.normal(size=(10, 1, 1)), 1)
        seeds = np.arange(40, dtype=np.uint64) * 7919 + 3
        seeded = mdp_policy_search(rhat, kernel, rho, tie_seed=seeds)
        lexicographic = mdp_policy_search(rhat, kernel, rho)
        assert seeded.shape == lexicographic.shape == (40, S)
        for row, seed, drawn, first in zip(rhat, seeds.tolist(), seeded, lexicographic):
            assert tuple(drawn.tolist()) == mdp_policy_search(row, kernel, rho, tie_seed=seed)
            assert tuple(first.tolist()) == mdp_policy_search(row, kernel, rho)
        assert np.any(seeded != lexicographic)  # some seeded draws pick a later tie
        grid = mdp_policy_search(rhat[:12].reshape(3, 4, S, A), kernel, rho,
                                 tie_seed=seeds[:12].reshape(3, 4))
        assert grid.shape == (3, 4, S)
        assert np.array_equal(grid.reshape(12, S), seeded[:12])
        one = mdp_policy_search(rhat[:1], kernel, rho, tie_seed=seeds[:1])
        assert one.shape == (1, S) and np.array_equal(one, seeded[:1])

    def test_stack_rows_are_single_calls_across_row_blocks(self):
        # 7^5 = 16,807 policies: a row block holds 10^6 // 16,807 = 59 rows, so
        # 64 rows run as two blocks.  Self-loops keep the occupancy at rho, and
        # estimates rounded to whole numbers tie policies exactly.
        S, A = 5, 7
        assert ENUMERATION_CAP // A**S == 59
        kernel, rng = self_loop_kernel(S, A), np.random.default_rng(71)
        rho = rng.dirichlet(np.ones(S))
        rhat = np.round(rng.normal(size=(64, S, A)))
        seeds = rng.integers(0, 2**63, size=64)
        for tie_seed in (seeds, 11, None):
            stacked = mdp_policy_search(rhat, kernel, rho, tie_seed=tie_seed)
            per_row = [mdp_policy_search(row, kernel, rho, tie_seed=seed) for row, seed in
                       zip(rhat, seeds.tolist() if tie_seed is seeds else [tie_seed] * 64)]
            assert [tuple(row) for row in stacked.tolist()] == per_row

    def test_stack_refusals(self):
        kernel = validate_kernel(np.full((2, 3, 2), 0.5), (2, 3))
        rho, rhat = np.array([0.5, 0.5]), np.zeros((4, 2, 3))
        with pytest.raises(ValidationError, match=r"policy iteration takes one estimate"):
            mdp_policy_search(rhat, kernel, rho, "iterate")
        # A seed array that does not broadcast to the leading axes is named, as
        # select_best_actions names it: on a stack, and on one estimate.
        for estimates, seeds, lead in ((rhat, np.arange(3), (4,)), (rhat[0], np.arange(1), ())):
            message = (f"tie_seed of shape {seeds.shape} does not broadcast to the "
                       f"estimates' leading axes {lead}")
            for call in (lambda: mdp_policy_search(estimates, kernel, rho, tie_seed=seeds),
                         lambda: select_best_actions(estimates, seeds)):
                with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                    call()
        rhat[2, 1, 0] = np.nan
        for tie_seed in (None, 3, np.arange(4)):
            with pytest.raises(ValidationError,
                               match=r"^rhat has a non-finite entry at index \(2, 1, 0\)$"):
                mdp_policy_search(rhat, kernel, rho, tie_seed=tie_seed)

    def test_scalar_seed_past_64_bits_is_masked(self):
        # Self-loops and equal estimates tie all 3^3 = 27 policies.
        kernel, rho = self_loop_kernel(3, 3), np.full(3, 1 / 3)
        rhat = np.ones((3, 3))
        tied = list(itertools.product(range(3), repeat=3))
        drawn = mdp_policy_search(rhat, kernel, rho, tie_seed=2**64 + 5)
        assert drawn == mdp_policy_search(rhat, kernel, rho, tie_seed=5)
        assert drawn == tied[oracle_integer(oracle_key(5, "tie", 0), len(tied))]
        assert drawn != tied[0]

    def test_non_finite_estimate_is_refused_in_both_modes(self):
        kernel = validate_kernel(np.full((2, 3, 2), 0.5), (2, 3))
        rhat = np.array([[0.0, np.nan, 1.0], [2.0, 1.0, 0.0]])
        for mode in ("enumerate", "iterate"):
            for tie_seed in (None, 3):
                with pytest.raises(ValidationError,
                                   match=r"^rhat has a non-finite entry at index \(0, 1\)$"):
                    mdp_policy_search(rhat, kernel, np.array([0.5, 0.5]), mode, tie_seed)
        rhat[0, 1], rhat[1, 2] = 0.0, -np.inf
        with pytest.raises(ValidationError, match=r"index \(1, 2\)$"):
            mdp_policy_search(rhat, kernel, np.array([0.5, 0.5]))

    def test_enumerate_matches_policy_iteration(self):
        rng = np.random.default_rng(29)
        for trial in range(100):
            S, A = int(rng.integers(1, 5)), int(rng.integers(2, 5))
            style = trial % 3
            if style == 0:  # deterministic (periodic / reducible)
                P = np.zeros((S, A, S))
                P[
                    np.arange(S)[:, None],
                    np.arange(A)[None, :],
                    rng.integers(0, S, size=(S, A)),
                ] = 1.0
            elif style == 1:  # well mixed
                P = rng.dirichlet(np.ones(S), size=(S, A))
            else:  # deterministic skeleton plus uniform smoothing
                P = np.zeros((S, A, S))
                for k in range(S):
                    for a in range(A):
                        P[k, a, rng.integers(S)] = 0.7
                P += 0.3 / S
            kernel = validate_kernel(P, (S, A))
            rhat = rng.normal(size=(S, A))
            rho = rng.dirichlet(np.ones(S))
            by_enum = mdp_policy_search(rhat, kernel, rho, "enumerate")
            by_iter = mdp_policy_search(rhat, kernel, rho, "iterate")
            if by_enum != by_iter:
                # Deterministic kernels leave zero-occupancy states whose
                # action is irrelevant: the policies differ but the
                # objectives tie to occupancy-iteration accuracy.
                ve = policy_objective(kernel, rhat, by_enum, rho)
                vi = policy_objective(kernel, rhat, by_iter, rho)
                assert abs(ve - vi) < 1e-9


class TestEnumerationOracle:
    def test_matches_per_policy_objective_oracle(self):
        """Search, optimum and regret equal the per-policy ``policy_objective``
        enumeration bit for bit, with one kernel object serving two initial
        laws and several reward matrices in turn.  Deterministic and
        self-loop kernels with rewards rounded to one decimal make policies
        tie exactly: a seeded search draws from the lexicographic tie list,
        and an instance whose optimum ties is refused."""
        rng = np.random.default_rng(41)
        for _ in range(12):
            base = random_consistent_instance(rng)
            S, A = base.num_states, base.num_actions
            kernel = validate_kernel(rng.dirichlet(np.ones(S), size=(S, A)), (S, A))
            _check_enumeration(rng, base, kernel, decimals=None)
        rng = np.random.default_rng(43)
        drawn_later = 0
        for trial in range(24):
            base = random_consistent_instance(rng)
            S, A = base.num_states, base.num_actions
            if trial % 2:
                kernel = self_loop_kernel(S, A)
            else:
                P = np.zeros((S, A, S))
                P[np.arange(S)[:, None], np.arange(A)[None, :],
                  rng.integers(0, S, size=(S, A))] = 1.0
                kernel = validate_kernel(P, (S, A))
            drawn_later += _check_enumeration(rng, base, kernel, decimals=1)
        assert drawn_later > 0  # some seeded draws pick a tie after the first

    @pytest.mark.parametrize("S", [4, 5])
    def test_matches_the_oracle_past_three_states(self, S):
        """At S >= 4 a strided r_pi row would be summed in another order than
        ``policy_objective``'s contiguous one; every policy value, the search and
        the regrets keep its bits on the Dirichlet-2024 kernel."""
        A, d = 3, 3
        P = np.random.default_rng(2024).dirichlet(np.ones(S), size=(S, A))
        kernel = validate_kernel(P, (S, A))
        rng = np.random.default_rng(S)
        schedule, (iu, ju) = np.zeros((S, A, A)), np.triu_indices(A, k=1)
        schedule[:, iu, ju] = 1.0 / (S * iu.size)
        base = make_instance(rng.normal(size=(S, A, d)), np.zeros(d), np.full(S, 1 / S),
                             schedule, 1.0)
        rho, rewards = rng.dirichlet(np.ones(S)), rng.normal(size=(S, A))
        policies, values = _policy_values(kernel, rewards, rho)
        assert [value.hex() for value in values.tolist()] == \
            [value.hex() for value in _objective_oracle(kernel, rewards, rho).values()]
        assert policies.tolist() == [list(p) for p in itertools.product(range(A), repeat=S)]
        _check_enumeration(rng, base, kernel, decimals=None)


def _check_enumeration(rng, base, kernel, decimals):
    """Check search, seeded search, optimum and regret against
    ``_objective_oracle`` for six reward draws on one kernel; returns how
    many seeded searches drew a tied policy other than the first."""
    S, A = base.num_states, base.num_actions
    laws = (rng.dirichlet(np.ones(S)), rng.dirichlet(np.ones(S)))
    drawn_later = 0
    for turn in range(6):
        rho = laws[turn % 2]
        rhat = rng.normal(size=(S, A))
        if decimals is not None:
            rhat = np.round(rhat, decimals)
        values = _objective_oracle(kernel, rhat, rho)
        expected = max(values, key=values.get)
        found = mdp_policy_search(rhat, kernel, rho, "enumerate")
        assert found == expected
        assert policy_objective(kernel, rhat, found, rho).hex() == \
            values[expected].hex()
        tied = [p for p, value in values.items() if value == values[expected]]
        for seed in range(4):
            drawn = mdp_policy_search(rhat, kernel, rho, "enumerate", tie_seed=seed)
            if len(tied) > 1:
                assert drawn == tied[oracle_integer(oracle_key(seed, "tie", 0), len(tied))]
            else:
                assert drawn == expected
            drawn_later += drawn != expected

        theta = rng.normal(size=base.dim)
        bound = float(np.max(np.abs(base.features @ theta))) + 0.1
        v = validate_instance(make_instance(base.features, theta, rho,
                                            base.schedule, bound))
        true = _objective_oracle(kernel, v.rewards(), rho)
        pi_star = max(true, key=true.get)
        atol = 1e-9 * max(1.0, float(np.max(np.abs(v.rewards()))))
        if sum(value >= true[pi_star] - atol for value in true.values()) > 1:
            with pytest.raises(ValidationError, match="not unique"):
                _optimal_policy(v, kernel)
            with pytest.raises(ValidationError, match="not unique"):
                mdp_regret(v, kernel, pi_star)
            continue
        policies, values, best = _optimal_policy(v, kernel)
        best, best_value = tuple(policies[best].tolist()), float(values[best])
        assert (best, best_value.hex()) == (pi_star, true[pi_star].hex())
        assert {p: mdp_regret(v, kernel, p).hex() for p in true} == \
            {p: max(true[pi_star] - value, 0.0).hex() for p, value in true.items()}
    return drawn_later


def _objective_oracle(kernel, rewards, rho):
    """Every policy's objective, one ``policy_objective`` call each, in
    lexicographic order."""
    S, A = rewards.shape
    return {p: policy_objective(kernel, rewards, p, rho)
            for p in itertools.product(range(A), repeat=S)}


class TestMismatchedInputs:
    """A kernel validated for (S, A) = (2, 3) meets inputs of other shapes."""

    @pytest.fixture(scope="class")
    def kernel(self):
        P = np.random.default_rng(67).dirichlet(np.ones(2), size=(2, 3))
        return validate_kernel(P, (2, 3))

    def test_instance_with_more_actions_is_refused(self, kernel):
        v = make_paper_instance(GeneratorConfig(num_states=2, num_actions=4, dim=2, seed=3))
        with pytest.raises(ValidationError, match=r"rewards shape \(2, 4\)"):
            mdp_hardness(v, kernel)
        with pytest.raises(ValidationError, match=r"rewards shape \(2, 4\)"):
            mdp_regret(v, kernel, (0, 0))
        for mode in ("enumerate", "iterate"):
            with pytest.raises(ValidationError, match=r"rewards shape \(2, 4\)"):
                mdp_policy_search(v.rewards(), kernel, v.rho, mode)

    def test_policy_outside_the_action_range_is_refused(self, kernel):
        rho = np.array([0.5, 0.5])
        for policy in ((0, 3), (0, -1), (0, 1, 2), (0.0, 1.0), np.array([[0, 1], [2, 3]])):
            with pytest.raises(ValidationError, match="policy"):
                stationary_distribution(kernel, policy, rho)
        with pytest.raises(ValidationError, match="policy"):
            policy_objective(kernel, np.zeros((2, 3)), (0, 3), rho)
        v = make_paper_instance(GeneratorConfig(num_states=2, num_actions=3, dim=2, seed=3))
        assert mdp_regret(v, kernel, (0, 2)) >= 0.0
        with pytest.raises(ValidationError, match=r"policy \(0, 3\)"):
            mdp_regret(v, kernel, (0, 3))

    def test_refusal_names_the_bad_policy_row(self, kernel):
        """A stack with one bad row is refused by that row, not the whole array."""
        rows = np.array(list(itertools.product(range(3), repeat=2)))
        rows[3] = (0, 3)
        with pytest.raises(ValidationError,
                           match=r"^policy row 3 \(0, 3\) does not fit \(S, A\) \(2, 3\)$"):
            stationary_distribution(kernel, rows, np.array([0.5, 0.5]))

    def test_rho_of_the_wrong_length_is_refused(self, kernel):
        rho = np.full(3, 1 / 3)
        with pytest.raises(ValidationError, match=r"rho \(3,\)"):
            stationary_distribution(kernel, (0, 0), rho)
        with pytest.raises(ValidationError, match=r"rho \(3,\)"):
            mdp_policy_search(np.zeros((2, 3)), kernel, rho)

    def test_rho_refused_by_its_shape_alone(self, kernel):
        """The refusal names shapes, not the (Π, S) policy rows."""
        rows = np.array(list(itertools.product(range(3), repeat=2)))
        for policy in (rows, (0, 0), rows[:1]):
            with pytest.raises(ValidationError, match=r"^rho \(3,\) does not fit S = 2$"):
                stationary_distribution(kernel, policy, np.full(3, 1 / 3))
        with pytest.raises(ValidationError, match=r"^rho \(2, 1\) does not fit S = 2$"):
            stationary_distribution(kernel, rows, np.full((2, 1), 0.5))

    def test_rho_with_a_bad_entry_is_refused(self, kernel):
        rewards = np.zeros((2, 3))
        for rho, what, at in (([-0.5, 1.5], "negative", 0), ([0.5, np.nan], "non-finite", 1),
                              ([np.inf, 0.0], "non-finite", 0)):
            message = rf"^rho has a {what} entry at index \({at},\)$"
            with pytest.raises(ValidationError, match=message):
                stationary_distribution(kernel, (0, 1), np.array(rho))
            with pytest.raises(ValidationError, match=message):
                policy_objective(kernel, rewards, (0, 1), np.array(rho))
            for mode in ("enumerate", "iterate"):
                with pytest.raises(ValidationError, match=message):
                    mdp_policy_search(rewards, kernel, np.array(rho), mode)

    def test_rho_refused_by_name_in_both_modes(self, kernel):
        for mode in ("enumerate", "iterate"):
            with pytest.raises(ValidationError, match=r"^rho \(3,\) does not fit S = 2$"):
                mdp_policy_search(np.zeros((2, 3)), kernel, np.full(3, 1 / 3), mode)


class TestMdpRegret:
    def test_optimal_policy_has_zero_regret(self, t2):
        kernel = state_independent_kernel(t2.rho, A=2)
        assert mdp_regret(t2, kernel, (0, 0)) == 0.0

    def test_single_state_reduction(self, t1):
        kernel = self_loop_kernel(1, 2)
        assert mdp_regret(t1, kernel, (1,)) == pytest.approx(1.0)

    def test_state_independent_kernel_weights_by_rho(self, t2):
        kernel = state_independent_kernel(t2.rho, A=2)
        gaps = suboptimality_gaps(t2)
        assert mdp_regret(t2, kernel, (1, 0)) == pytest.approx(
            float(t2.rho[0] * gaps[0, 1]), abs=1e-12
        )

    def test_policy_rows_match_single_calls(self, paper_instance):
        """Policy rows (R, S) share one optimum and keep the bits of their own
        (S,) calls; the optimum's row scores 0.0 and a bad row is refused by name."""
        v = paper_instance
        dirichlet = validate_kernel(
            np.random.default_rng(2024).dirichlet(np.ones(2), size=(2, 10)), (2, 10))
        for kernel in (dirichlet, self_loop_kernel(2, 10)):
            best = mdp_policy_search(v.rewards(), kernel, v.rho)
            rows = np.vstack([np.random.default_rng(5).integers(10, size=(40, 2)), best])
            stacked = mdp_regret(v, kernel, rows)
            assert stacked.shape == (41,) and stacked[-1] == 0.0
            singles = [mdp_regret(v, kernel, tuple(row)) for row in rows.tolist()]
            assert all(isinstance(x, float) for x in singles)
            assert [x.hex() for x in stacked.tolist()] == [x.hex() for x in singles]
            assert mdp_regret(v, kernel, rows[:1]).shape == (1,)
            rows[7] = (0, 10)
            with pytest.raises(ValidationError,
                               match=r"^policy row 7 \(0, 10\) does not fit \(S, A\) \(2, 10\)$"):
                mdp_regret(v, kernel, rows)

    def test_policy_stack_matches_flat_rows(self, paper_instance):
        """A (2, 3, S) stack, as ``mdp_policy_search`` returns for (2, 3, S, A)
        estimates, scores as the (6, S) rows reshaped, bit for bit; a bad row of
        the stack is refused by its index over the leading axes."""
        v = paper_instance
        kernel = validate_kernel(
            np.random.default_rng(2024).dirichlet(np.ones(2), size=(2, 10)), (2, 10))
        rhat = np.random.default_rng(11).normal(size=(2, 3, 2, 10))
        stack = mdp_policy_search(rhat, kernel, v.rho, tie_seed=np.arange(6).reshape(2, 3))
        assert stack.shape == (2, 3, 2)
        stacked, flat = mdp_regret(v, kernel, stack), mdp_regret(v, kernel, stack.reshape(6, 2))
        assert stacked.shape == (2, 3)
        assert [x.hex() for x in stacked.ravel().tolist()] == [x.hex() for x in flat.tolist()]
        occupancy = stationary_distribution(kernel, stack, v.rho)
        assert occupancy.shape == (2, 3, 2)
        assert np.array_equal(occupancy.reshape(6, 2),
                              stationary_distribution(kernel, stack.reshape(6, 2), v.rho))
        stack[1, 2] = (0, 10)
        with pytest.raises(ValidationError,
                           match=r"^policy row \(1, 2\) \(0, 10\) does not fit \(S, A\) \(2, 10\)$"):
            mdp_regret(v, kernel, stack)

    def test_non_unique_optimum_rejected(self, t2):
        # Every action leads to state 0, so state 1's choice is irrelevant
        # and two policies tie exactly.
        P = np.zeros((2, 2, 2))
        P[:, :, 0] = 1.0
        kernel = validate_kernel(P, (2, 2))
        with pytest.raises(ValidationError, match="not unique"):
            mdp_regret(t2, kernel, (0, 0))


class TestPipelineReduction:
    def test_matches_static_selections_under_reducing_kernels(self, paper_instance):
        v = paper_instance
        kernels = {
            "rows=rho": state_independent_kernel(v.rho, v.num_actions),
            "self-loop": self_loop_kernel(v.num_states, v.num_actions),
        }
        for name, kernel in kernels.items():
            for rep in range(25):
                seed = derive_seed(31, name, rep)
                data = sample_dataset(v, 200, seed=seed)
                report = rl_low(data, v.features, v.reward_bound, tie_seed=rep)
                policy = rl_low_mdp(
                    data, v.features, v.reward_bound, kernel, v.rho, tie_seed=rep
                )
                assert policy == tuple(int(a) for a in report.selections), name

    def test_searches_the_estimates_of_rl_low(self, paper_instance):
        v = paper_instance
        kernel = validate_kernel(
            np.random.default_rng(2024).dirichlet(np.ones(2), size=(2, 10)), (2, 10))
        for rep in range(10):
            data = sample_dataset(v, 400, seed=rep)
            rhat = rl_low(data, v.features, v.reward_bound, tie_seed=rep).rhat
            assert rl_low_mdp(data, v.features, v.reward_bound, kernel, v.rho, tie_seed=rep) \
                == mdp_policy_search(rhat, kernel, v.rho, tie_seed=rep)


class TestMdpHardness:
    def test_single_state_equals_static(self, t1):
        kernel = self_loop_kernel(1, 2)
        H, gammas = mdp_hardness(t1, kernel)
        assert H == pytest.approx(hardness(t1).H, abs=1e-12)
        assert gammas[(1,)] == pytest.approx(1.0, abs=1e-12)

    def test_state_independent_kernel_reduction(self, t2):
        # With rows = rho the objective gap of any policy is the
        # rho-weighted sum of its per-state gaps, so the maximum ratio is
        # attained at single-state deviations.
        kernel = state_independent_kernel(t2.rho, A=2)
        H, _ = mdp_hardness(t2, kernel)
        report = hardness(t2)
        gaps = suboptimality_gaps(t2)
        expected = max(
            g / (float(t2.rho[k]) * gaps[k, i]) ** 2
            for (k, i), g in report.gamma.items()
        )
        assert H == pytest.approx(expected, rel=1e-10)
        assert H == pytest.approx(4.0, rel=1e-10)

    def test_only_disagreeing_policies_contribute(self, t2):
        kernel = state_independent_kernel(t2.rho, A=2)
        _, gammas = mdp_hardness(t2, kernel)
        assert (0, 0) not in gammas  # the optimal policy itself is excluded
        assert set(gammas) == {(0, 1), (1, 0), (1, 1)}

    def test_matches_per_policy_entry_oracle(self):
        # Self-loop kernels keep the occupancy at the instance's own
        # non-uniform law, which then weights every objective gap.
        rng = np.random.default_rng(17)
        for trial in range(60):
            v = random_consistent_instance(rng)
            S, A = v.num_states, v.num_actions
            if trial < 40:
                kernel = validate_kernel(rng.dirichlet(np.ones(S), size=(S, A)), (S, A))
            else:
                kernel = self_loop_kernel(S, A)
            H, gammas = mdp_hardness(v, kernel)
            expected_H, expected = _mdp_hardness_oracle(v, kernel, v.rho)
            assert H.hex() == expected_H.hex()
            assert {p: g.hex() for p, g in gammas.items()} == \
                {p: g.hex() for p, g in expected.items()}


def _mdp_hardness_oracle(v, kernel, rho):
    """mdp_hardness as it was first written: one span-checked
    WeightTable.entry per (policy, disagreeing state)."""
    table = build_weight_table(v.schedule, v.features)
    rewards = v.rewards()
    policies, values, best = _optimal_policy(v, kernel)
    pi_star, best_value = tuple(policies[best].tolist()), float(values[best])
    S, A = rewards.shape
    gamma_mdp, H = {}, 0.0
    for policy in itertools.product(range(A), repeat=S):
        if policy == pi_star:
            continue
        gap = best_value - policy_objective(kernel, rewards, policy, rho)
        gamma = max(
            table.entry((k, policy[k], pi_star[k]), v.features).gamma
            for k in range(S) if policy[k] != pi_star[k]
        )
        gamma_mdp[policy] = gamma
        H = max(H, gamma / gap**2)
    return H, gamma_mdp
