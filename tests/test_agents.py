"""Reward-pool agents: warm-up schedule, perturbed estimates, ridge state."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import cho_factor, cho_solve

from banditpool.agents import (
    Agent,
    LinearModelState,
    LinRewardPoolAgent,
    PoolParams,
    RewardPoolAgent,
    init_length,
    perturbed_mean_estimates,
    ridge_solve,
)
from banditpool.envs import MabInstance
from banditpool.pool import build_pool


class TestInitLength:
    def test_reference_values(self):
        assert init_length(10_000, 0.6, 10) == 334
        assert init_length(100, 0.5, 200) == 200
        assert init_length(100, 0.5, 2) == 97

    def test_invalid_variance_ratio(self):
        for z in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                init_length(100, z, 3)

    def test_grows_with_horizon(self):
        lengths = [init_length(n, 0.6, 1) for n in (10, 100, 1000, 10_000)]
        assert lengths == sorted(lengths)
        assert lengths[0] < lengths[-1]


class TestPoolParams:
    def test_defaults(self):
        params = PoolParams()
        assert (params.alpha, params.z, params.ridge_lambda) == (0.6, 0.6, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PoolParams(alpha=0.0)
        with pytest.raises(ValueError):
            PoolParams(z=1.0)
        with pytest.raises(ValueError):
            PoolParams(ridge_lambda=-0.1)

    def test_zero_ridge_allowed_for_diagnostics(self):
        assert PoolParams(ridge_lambda=0.0).ridge_lambda == 0.0


class TestPerturbedMeanEstimates:
    def test_hand_example(self):
        """(V + U) / s arithmetic: (2 + 0.5)/2 = 1.25 beats (3 - 0.3)/3 = 0.9."""
        est = perturbed_mean_estimates([2.0, 3.0], [2, 3], [0.5, -0.3])
        np.testing.assert_allclose(est, [1.25, 0.9])
        assert int(np.argmax(est)) == 0

    def test_unpulled_arm_forced(self):
        est = perturbed_mean_estimates([5.0, 0.0], [7, 0], [0.1, 0.0])
        assert est[1] == np.inf
        assert int(np.argmax(est)) == 1

    def test_zero_noise_reduces_to_empirical_means(self):
        est = perturbed_mean_estimates([2.0, 3.0], [4, 5], [0.0, 0.0])
        np.testing.assert_allclose(est, [0.5, 0.6])


def run_mab(agent, instance, horizon, env_rng):
    actions = []
    for t in range(1, horizon + 1):
        arm = agent.select(t)
        agent.update(t, arm, instance.sample_reward(arm, env_rng))
        actions.append(arm)
    return actions


class TestRewardPoolAgent:
    def make(self, n_arms=4, horizon=200, seed=0, **kwargs):
        return RewardPoolAgent(n_arms, horizon, PoolParams(**kwargs),
                               np.random.default_rng(seed))

    def test_round_robin_warm_up(self):
        agent = self.make()
        instance = MabInstance(means=[0.3, 0.4, 0.5, 0.6], family="bernoulli")
        actions = run_mab(agent, instance, agent.init_rounds,
                          np.random.default_rng(1))
        assert actions == [t % 4 for t in range(agent.init_rounds)]

    def test_degenerate_pool_matches_empirical_argmax(self):
        """Constant rewards make every pool draw zero: plain greedy argmax."""
        agent = self.make(n_arms=2, horizon=60, seed=3, z=0.3)
        for t in range(1, agent.init_rounds + 1):
            arm = agent.select(t)
            agent.update(t, arm, 0.7)
        assert np.all(agent.current_pool().values == 0.0)
        est = agent._scores(agent.init_rounds + 1)
        np.testing.assert_allclose(est, [0.7, 0.7])
        assert agent.select(agent.init_rounds + 1) == 0

    def test_separated_arms_resist_pool_noise(self):
        agent = self.make(n_arms=2, horizon=60, seed=3, z=0.3)
        for t in range(1, agent.init_rounds + 1):
            arm = agent.select(t)
            agent.update(t, arm, 1.0 if arm == 1 else 0.0)
        assert agent.select(agent.init_rounds + 1) == 1

    def test_fresh_draws_each_call(self):
        agent = self.make(horizon=400, seed=4)
        instance = MabInstance(means=[0.3, 0.4, 0.5, 0.6], family="gaussian")
        run_mab(agent, instance, agent.init_rounds, np.random.default_rng(2))
        first = agent._scores(agent.init_rounds + 1)
        second = agent._scores(agent.init_rounds + 1)
        assert not np.array_equal(first, second)

    def test_deterministic_replay(self):
        instance = MabInstance(means=[0.3, 0.4, 0.5, 0.6], family="gaussian")
        runs = [run_mab(self.make(horizon=200, seed=9), instance, 200,
                        np.random.default_rng(17)) for _ in range(2)]
        assert runs[0] == runs[1]

    def test_scale_equivariance(self):
        """Scaling all rewards by c > 0 leaves the action sequence unchanged."""
        horizon, scale = 160, 3.0
        table = np.random.default_rng(6).normal(0.5, 0.4, size=(horizon, 3))

        def replay(multiplier):
            agent = RewardPoolAgent(3, horizon, PoolParams(),
                                    np.random.default_rng(8))
            actions = []
            for t in range(1, horizon + 1):
                arm = agent.select(t)
                agent.update(t, arm, multiplier * table[t - 1, arm])
                actions.append(arm)
            return actions

        assert replay(1.0) == replay(scale)

    def test_feedback_protocol_enforced(self):
        agent = self.make()
        with pytest.raises(RuntimeError):
            agent.update(1, 0, 0.5)
        arm = agent.select(1)
        with pytest.raises(RuntimeError):
            agent.update(1, arm + 1, 0.5)
        with pytest.raises(RuntimeError):
            agent.select(2)
        agent.update(1, arm, 0.5)
        with pytest.raises(ValueError):
            agent.select(0)

    @pytest.mark.parametrize("reward", [np.nan, np.inf, -np.inf])
    def test_non_finite_reward_rejected(self, reward):
        agent = self.make()
        arm = agent.select(1)
        with pytest.raises(ValueError, match=f"round 1, arm {arm}"):
            agent.update(1, arm, reward)
        assert agent.pulls.sum() == 0
        assert np.all(np.isfinite(agent.totals))
        # The round still awaits its feedback and accepts a finite reward.
        agent.update(1, arm, 0.5)
        assert agent.totals[arm] == 0.5


def reference_ridge_solve(gram, rhs):
    """The scipy wrapper pair ``ridge_solve`` replaced."""
    return cho_solve(cho_factor(gram, lower=True), rhs)


@st.composite
def spd_systems(draw, columns):
    """``(gram, rhs)`` with ``gram = lam I + A^T A`` and d in 1..12.

    ``columns`` draws a 1-D right-hand side when None, else a (d, k) one
    laid out like LinUCB's ``features.T`` (a transposed C-ordered array).
    """
    dim = draw(st.integers(1, 12))
    entries = st.floats(-10.0, 10.0, allow_nan=False)
    a = draw(hnp.arrays(float, (draw(st.integers(0, 20)), dim), elements=entries))
    lam = draw(st.floats(1e-3, 10.0))
    gram = lam * np.eye(dim) + a.T @ a
    if columns is None:
        rhs = draw(hnp.arrays(float, dim, elements=entries))
    else:
        rhs = draw(hnp.arrays(float, (draw(columns), dim), elements=entries)).T
    return gram, rhs


class TestRidgeSolve:
    @settings(deadline=None, max_examples=300)
    @given(spd_systems(columns=None))
    def test_bit_identical_to_scipy_wrappers(self, system):
        gram, rhs = system
        assert np.array_equal(ridge_solve(gram, rhs),
                              reference_ridge_solve(gram, rhs))

    @settings(deadline=None, max_examples=300)
    @given(spd_systems(columns=st.integers(1, 50)))
    def test_bit_identical_with_many_right_hand_sides(self, system):
        gram, rhs = system
        solution = ridge_solve(gram, rhs)
        assert solution.shape == rhs.shape
        assert np.array_equal(solution, reference_ridge_solve(gram, rhs))

    def test_leaves_its_inputs_alone(self):
        gram = np.array([[4.0, 1.0], [1.0, 3.0]])
        rhs = np.array([1.0, 2.0])
        ridge_solve(gram, rhs)
        assert np.array_equal(gram, [[4.0, 1.0], [1.0, 3.0]])
        assert np.array_equal(rhs, [1.0, 2.0])

    def test_non_spd_gram_names_the_failing_minor(self):
        gram = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError, match="minor of order 2"):
            ridge_solve(gram, np.ones(3))
        with pytest.raises(np.linalg.LinAlgError, match="minor of order 1"):
            ridge_solve(-np.eye(2), np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (1, 0), (0, 1)],
                             ids=["diagonal", "lower", "upper"])
    def test_non_finite_gram_rejected(self, bad, where):
        gram = 2.0 * np.eye(2)
        gram[where] = bad
        with pytest.raises(ValueError, match="gram matrix must be finite"):
            ridge_solve(gram, np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(2,), (2, 3)])
    def test_non_finite_rhs_rejected(self, bad, shape):
        rhs = np.ones(shape)
        rhs[(1,) * len(shape)] = bad
        with pytest.raises(ValueError, match="right-hand side must be finite"):
            ridge_solve(2.0 * np.eye(2), rhs)

    def test_scalar_example(self):
        """Perturbed ridge with history ((1,1),(1,0)), lam=1, noise (0.2,-0.2)."""
        gram = np.array([[3.0]])
        xs = np.array([[1.0], [1.0]])
        target = np.array([1.0]) + xs.T @ np.array([0.2, -0.2])
        np.testing.assert_allclose(ridge_solve(gram, target), [1.0 / 3.0])

    def test_matches_general_solver(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(5, 5))
        gram = a @ a.T + 2.0 * np.eye(5)
        target = rng.normal(size=5)
        np.testing.assert_allclose(ridge_solve(gram, target),
                                   np.linalg.solve(gram, target), rtol=1e-10)


class FixedThetaAgent(Agent):
    """Scores every arm by ``x_i . theta`` for a fixed ``theta``."""

    def __init__(self, features, theta):
        super().__init__(len(features), 1)
        self.features, self.theta = features, theta

    def _scores(self, t):
        return self.features @ self.theta


def best_arm(features, theta):
    """The arm ``Agent.select`` plays on the scores ``features @ theta``."""
    return FixedThetaAgent(features, theta).select(1)


class TestBestArm:
    """A round with no forced action plays the argmax of ``_scores``."""

    def test_one_hot(self):
        features = np.eye(2)
        assert best_arm(features, np.array([1.0, 0.0])) == 0
        assert best_arm(features, np.array([0.0, 1.0])) == 1

    def test_tie_breaks_to_lowest_index(self):
        assert best_arm(np.eye(3), np.zeros(3)) == 0

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            features = rng.normal(size=(6, 3))
            theta = rng.normal(size=3)
            scores = [float(features[i] @ theta) for i in range(6)]
            assert best_arm(features, theta) == int(np.argmax(scores))


class TestLinearModelState:
    def test_gram_recomputable_from_history(self):
        rng = np.random.default_rng(15)
        state = LinearModelState(3, ridge_lambda=1.0, capacity=50)
        for _ in range(50):
            state.add(rng.normal(size=3), float(rng.normal()))
        recomputed = np.eye(3) + state.xs.T @ state.xs
        np.testing.assert_allclose(state.gram, recomputed, rtol=1e-8)
        np.testing.assert_allclose(state.xy_sum, state.xs.T @ state.ys, rtol=1e-8)

    def test_gram_stays_positive_definite(self):
        rng = np.random.default_rng(16)
        state = LinearModelState(4, ridge_lambda=0.5, capacity=100)
        for _ in range(100):
            state.add(rng.normal(size=4), float(rng.normal()))
            assert np.linalg.eigvalsh(state.gram)[0] >= 0.5 - 1e-9

    def test_zero_perturbation_recovers_mean_fit(self):
        rng = np.random.default_rng(17)
        state = LinearModelState(2, ridge_lambda=1.0, capacity=10)
        for _ in range(10):
            state.add(rng.normal(size=2), float(rng.normal()))
        zero_pool = build_pool([0.4] * 10, alpha=1.0)
        np.testing.assert_allclose(
            state.perturbed_fit(zero_pool, np.random.default_rng(0)),
            state.mean_fit())

    def test_one_hot_reduction_of_the_fit(self):
        """Diagonal gram with one-hot features gives per-arm perturbed means."""
        xs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        ys = np.array([1.0, 0.5, 0.0])
        noise = np.array([0.2, -0.1, 0.3])
        state = LinearModelState.from_history(xs, ys, ridge_lambda=0.0)
        theta = ridge_solve(state.gram, state.xy_sum + xs.T @ noise)
        np.testing.assert_allclose(
            theta, [(1.0 + 0.0 + 0.2 + 0.3) / 2, (0.5 - 0.1) / 1])


def run_linear(agent, features, theta_star, horizon, env_rng, sigma=0.5):
    actions = []
    for t in range(1, horizon + 1):
        arm = agent.select(t)
        reward = float(features[arm] @ theta_star) + sigma * env_rng.standard_normal()
        agent.update(t, arm, reward)
        actions.append(arm)
    return actions


class TestLinRewardPoolAgent:
    def test_warm_up_cycles_arms(self):
        features = np.random.default_rng(18).normal(size=(5, 2))
        agent = LinRewardPoolAgent(features, 300, PoolParams(),
                                   np.random.default_rng(0))
        theta = np.array([0.1, 0.2])
        actions = run_linear(agent, features, theta, agent.init_rounds,
                             np.random.default_rng(1))
        assert actions == [t % 5 for t in range(agent.init_rounds)]

    def test_state_built_lazily_and_kept_consistent(self):
        features = np.random.default_rng(19).normal(size=(4, 2))
        agent = LinRewardPoolAgent(features, 250, PoolParams(),
                                   np.random.default_rng(2))
        run_linear(agent, features, np.array([0.3, 0.1]), 250,
                   np.random.default_rng(3))
        state = agent.state
        recomputed = np.eye(2) + state.xs.T @ state.xs
        np.testing.assert_allclose(state.gram, recomputed, rtol=1e-8)
        assert state.count == 250

    def test_deterministic_replay(self):
        features = np.random.default_rng(20).normal(size=(4, 2))
        theta = np.array([0.25, 0.1])

        def once():
            agent = LinRewardPoolAgent(features, 220, PoolParams(),
                                       np.random.default_rng(7))
            return run_linear(agent, features, theta, 220,
                              np.random.default_rng(8))

        assert once() == once()

    def test_matches_mab_agent_one_hot(self):
        """Identity features, zero ridge, shared streams: identical actions."""
        n_arms, horizon = 3, 150
        instance = MabInstance(means=[0.35, 0.55, 0.65], family="gaussian",
                               sigma=0.5)
        table = np.random.default_rng(42).standard_normal((horizon, n_arms))
        for seed in range(3):
            mab = RewardPoolAgent(n_arms, horizon, PoolParams(),
                                  np.random.default_rng(seed))
            lin = LinRewardPoolAgent(np.eye(n_arms), horizon,
                                     PoolParams(ridge_lambda=0.0),
                                     np.random.default_rng(seed))
            seqs = []
            for agent in (mab, lin):
                actions = []
                for t in range(1, horizon + 1):
                    arm = agent.select(t)
                    reward = instance.means[arm] + 0.5 * table[t - 1, arm]
                    agent.update(t, arm, reward)
                    actions.append(arm)
                seqs.append(actions)
            assert seqs[0] == seqs[1]

    def test_auto_ridge_matches_quarter_of_smallest_eigenvalue(self):
        features = np.random.default_rng(23).normal(size=(3, 3))
        agent = LinRewardPoolAgent(features, 200,
                                   PoolParams(auto_ridge=True),
                                   np.random.default_rng(4))
        run_linear(agent, features, np.array([0.2, 0.1, 0.05]), 200,
                   np.random.default_rng(5))
        lam = agent.state.ridge_lambda
        smallest = np.linalg.eigvalsh(agent.state.gram)[0]
        # The regularizer solves lam = min_eig(gram) / 4 including itself;
        # the gram at the first fit satisfied the fixed point exactly.
        state_at_fit = agent._x_hist[: agent.init_rounds]
        base = np.linalg.eigvalsh(state_at_fit.T @ state_at_fit)[0]
        assert lam == pytest.approx((base + lam) / 4.0)
        assert smallest >= lam
