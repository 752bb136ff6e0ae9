"""Baseline indices, posterior samplers, and perturbed-history estimates."""

import math

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from banditpool.agents import (
    LinearModelState,
    perturbed_mean_estimates,
    ridge_solve,
)
from banditpool.baselines import (
    BernoulliPHEAgent,
    BernoulliTSAgent,
    GaussianPHEAgent,
    GaussianTSAgent,
    LinPHEAgent,
    LinTSAgent,
    LinUCBAgent,
    UCB1Agent,
    UCBVAgent,
    bern_ts_sample,
    gauss_ts_sample,
    lints_sample,
    linucb_scores,
    phe_pseudo_counts,
)
from banditpool.envs import MabInstance


def index_agent(cls, pulls, totals, sumsq=None):
    """A ``cls`` agent holding the given per-arm statistics."""
    agent = cls(len(pulls), 10)
    agent.pulls[:] = pulls
    agent.totals[:] = totals
    if sumsq is not None:
        agent._sumsq[:] = sumsq
    return agent


class TestUCB1Index:
    def test_reference_value(self):
        agent = index_agent(UCB1Agent, [2], [1.0])
        assert agent._scores(55)[0] == pytest.approx(2.5018, abs=1e-3)

    def test_bonus_vanishes(self):
        agent = index_agent(UCB1Agent, [10**9], [0.37e9])
        assert agent._scores(100)[0] == pytest.approx(0.37, abs=1e-3)

    def test_unpulled_is_infinite(self):
        """An unpulled arm is played first, as its +inf index would be."""
        agent = index_agent(UCB1Agent, [2, 0], [2.0, 0.0])
        assert agent.select(10) == 1

    def test_vectorized(self):
        # ln 55 = 4.007: bonus sqrt(2 ln 55 / 8) = 1.0009 on the second arm.
        idx = index_agent(UCB1Agent, [2, 8], [1.0, 0.0])._scores(55)
        assert idx[0] == pytest.approx(2.5018, abs=1e-3)
        assert idx[1] == pytest.approx(1.0009, abs=1e-3)


class TestUCBVIndex:
    def test_zero_variance_keeps_range_term(self):
        # ln t = 2, s = 10, b = 1: bonus is 3 * 2 / 10 = 0.6.  Ten rewards of
        # 0.25 give exactly zero empirical variance.
        agent = index_agent(UCBVAgent, [10], [2.5], [0.625])
        assert agent._scores(math.exp(2.0))[0] == pytest.approx(0.85, abs=1e-9)

    def test_reference_value(self):
        # Rewards 0 and 1: mean 0.5, variance 0.25; ln t = 2.
        agent = index_agent(UCBVAgent, [2], [1.0], [1.0])
        assert agent._scores(math.exp(2.0))[0] == pytest.approx(4.2071, abs=1e-3)

    def test_bonus_vanishes(self):
        agent = index_agent(UCBVAgent, [10**9], [0.4e9], [0.41e9])
        assert agent._scores(100)[0] == pytest.approx(0.4, abs=1e-3)

    def test_unpulled_is_infinite(self):
        """An unpulled arm is played first, as its +inf index would be."""
        agent = index_agent(UCBVAgent, [0, 3], [0.0, 1.5], [0.0, 1.0])
        assert agent.select(10) == 0


class TestBernTSSample:
    def test_flat_prior_is_uniform(self):
        draws = bern_ts_sample(np.zeros(50_000), np.zeros(50_000),
                               np.random.default_rng(0))
        assert np.all((draws > 0) & (draws < 1))
        assert abs(draws.mean() - 0.5) < 0.01

    def test_concentrates_after_many_successes(self):
        draw = bern_ts_sample(10**6, 0, np.random.default_rng(1))
        assert draw > 1 - 1e-4

    def test_posterior_mean(self):
        """Draws from Beta(4, 2) average to 4/6 within 0.002."""
        rng = np.random.default_rng(2)
        draws = bern_ts_sample(np.full(10**6, 3), np.full(10**6, 1), rng)
        assert abs(draws.mean() - 4.0 / 6.0) < 0.002


class TestGaussTSSample:
    def test_prior_only(self):
        rng = np.random.default_rng(3)
        draws = gauss_ts_sample(0.5, 0.5, np.zeros(200_000), np.zeros(200_000), rng)
        assert abs(draws.mean() - 0.5) < 4 * 0.5 / math.sqrt(draws.size)
        assert abs(draws.std() - 0.5) < 0.01

    def test_posterior_after_three_pulls(self):
        """Mean (0.5 + 1.5)/4 = 0.5 and std sigma/2 from the update rule."""
        rng = np.random.default_rng(4)
        n = 200_000
        draws = gauss_ts_sample(0.5, 0.5, np.full(n, 1.5), np.full(n, 3), rng)
        assert abs(draws.mean() - 0.5) < 4 * 0.25 / math.sqrt(n)
        assert abs(draws.std() - 0.25) < 0.005

    def test_matches_perturb_and_average_construction(self):
        """Adding noise to the prior mean and each reward, then averaging,
        reproduces the posterior's first two moments (four standard errors)."""
        rng = np.random.default_rng(5)
        rewards = np.array([1.0, 0.0, 1.0])
        sigma, n = 0.5, 200_000
        noise = rng.normal(0.0, sigma, size=(n, rewards.size + 1))
        construction = (0.5 + rewards.sum() + noise.sum(axis=1)) / (rewards.size + 1)
        posterior = gauss_ts_sample(0.5, sigma, np.full(n, rewards.sum()),
                                    np.full(n, rewards.size), rng)
        se_mean = sigma / math.sqrt(n)
        assert abs(construction.mean() - posterior.mean()) < 4 * 2 * se_mean
        se_var = (sigma ** 2 / 4) * math.sqrt(2.0 / (n - 1))
        assert abs(construction.var() - posterior.var()) < 4 * 2 * se_var


class TestPHE:
    """Perturbed-history estimates, through the shared per-owner helper and
    the agents that call it."""

    def test_combine_hand_example(self):
        """V = 2 over 2 pulls plus pseudo rewards 1 and 0: (2 + 1) / 4."""
        est = perturbed_mean_estimates([2.0], [2 + 2],
                                       np.bincount([0, 0], [1.0, 0.0], 1))
        assert est[0] == pytest.approx(0.75)

    def test_no_pseudo_rewards_gives_plain_mean(self):
        est = perturbed_mean_estimates(
            [2.0], [4], np.bincount(np.empty(0, dtype=np.int64), np.empty(0), 1))
        assert est[0] == pytest.approx(0.5)
        assert phe_pseudo_counts(0, 1.0) == 0

    def test_pseudo_counts_round_up(self):
        np.testing.assert_array_equal(phe_pseudo_counts([1, 2, 3], 0.5), [1, 1, 2])

    def test_estimate_expectation(self):
        """E[estimate] = (V + ceil(a s)/2) / (s + ceil(a s)) over pseudo draws.

        1000 arms share the same pulls and total, so each call of the agent's
        estimate gives 1000 independent draws.
        """
        total, pulls, a = 3.0, 4, 1.0
        agent = BernoulliPHEAgent(1000, 10, a=a, rng=np.random.default_rng(6))
        agent.pulls[:] = pulls
        agent.totals[:] = total
        draws = np.concatenate([agent._scores(1) for _ in range(100)])
        expected = (total + 4 * 0.5) / (pulls + 4)
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - expected) < 4 * se

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="laplace"):
            LinPHEAgent(np.eye(2), 10, pseudo_family="laplace")

    def test_linphe_stores_no_rewards(self):
        """Its pseudo-reward noise reads no reward, so no reward buffer."""
        agent = LinPHEAgent(np.eye(2), 10, rng=np.random.default_rng(0))
        agent.update(1, agent.select(1), 0.5)
        assert not hasattr(agent, "_rewards")
        assert agent.pulls.tolist() == [1, 0]


class TestLinearPrimitives:
    def make_state(self):
        state = LinearModelState(1)
        state.regularize(1.0)
        state.add(np.array([1.0]), 1.0)
        state.add(np.array([1.0]), 0.0)
        return state

    def test_linucb_scalar_example(self):
        """G = 3, xy = 1, x = 1, c = 1: score 1/3 + 1/sqrt(3)."""
        state = self.make_state()
        scores = linucb_scores(state, np.array([[1.0]]), width=1.0)
        assert scores[0] == pytest.approx(1.0 / 3.0 + 1.0 / math.sqrt(3.0))

    def test_linucb_bit_identical_to_scipy_wrappers(self):
        rng = np.random.default_rng(21)
        for dim, n_arms in [(1, 3), (4, 7), (10, 50)]:
            features = rng.normal(size=(n_arms, dim))
            state = LinearModelState(dim)
            state.regularize(1.0)
            for _ in range(30):
                state.add(features[rng.integers(n_arms)], float(rng.normal()))
            factor = cho_factor(state.gram, lower=True)
            solved = cho_solve(factor, features.T)
            norms = np.sqrt(np.maximum(
                np.einsum("dk,dk->k", features.T, solved), 0.0))
            expected = features @ cho_solve(factor, state.xy_sum) + 0.7 * norms
            assert np.array_equal(linucb_scores(state, features, 0.7), expected)

    def test_zero_width_is_greedy(self):
        state = self.make_state()
        scores = linucb_scores(state, np.array([[1.0]]), width=0.0)
        assert scores[0] == pytest.approx(1.0 / 3.0)

    def test_zero_sigma_ts_is_greedy(self):
        state = self.make_state()
        theta = lints_sample(state, 0.0, np.random.default_rng(0))
        np.testing.assert_allclose(theta, ridge_solve(state.gram, state.xy_sum))

    def test_lints_sample_moments(self):
        rng = np.random.default_rng(7)
        state = self.make_state()
        draws = np.array([lints_sample(state, 0.5, rng)[0]
                          for _ in range(50_000)])
        assert abs(draws.mean() - 1.0 / 3.0) < 4 * (0.5 / math.sqrt(3)) / math.sqrt(draws.size)
        assert abs(draws.std() - 0.5 / math.sqrt(3.0)) < 0.005

    @staticmethod
    def linphe_after(rewards, a, pseudo_family, rng):
        """LinPHE on d = 1, feature 1, having observed ``rewards``."""
        agent = LinPHEAgent(np.array([[1.0]]), len(rewards) + 1, a=a,
                            pseudo_family=pseudo_family, rng=rng)
        for t, reward in enumerate(rewards, start=1):
            agent.update(t, agent.select(t), reward)
        return agent

    def test_linphe_bernoulli_support(self):
        """d = 1 with one observation: the fit lands on one of two values."""
        agent = self.linphe_after([1.0], 0.8, "bernoulli",
                                  np.random.default_rng(8))
        support = {(1.0 + z) / 2.0 for z in (0.4, -0.4)}
        for _ in range(40):
            theta = agent._scores(2)
            assert any(math.isclose(theta[0], v) for v in support)

    def test_linphe_gaussian_centering(self):
        agent = self.linphe_after([1.0, 0.0], 0.5, "gaussian",
                                  np.random.default_rng(9))
        draws = np.array([agent._scores(3)[0] for _ in range(50_000)])
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - 1.0 / 3.0) < 4 * se


def replay(agent_factory, instance, horizon, env_seed):
    agent = agent_factory()
    env_rng = np.random.default_rng(env_seed)
    actions = []
    for t in range(1, horizon + 1):
        arm = agent.select(t)
        agent.update(t, arm, instance.sample_reward(arm, env_rng))
        actions.append(arm)
    return actions


class TestAgentBehaviour:
    """Every baseline runs deterministically and pulls each arm at least once."""

    instance = MabInstance(means=[0.3, 0.5, 0.7], family="gaussian", sigma=0.5)

    @pytest.mark.parametrize("factory", [
        lambda: UCB1Agent(3, 200),
        lambda: UCBVAgent(3, 200, range_bound=3.0),
        lambda: BernoulliTSAgent(3, 200, np.random.default_rng(1)),
        lambda: GaussianTSAgent(3, 200, 0.5, rng=np.random.default_rng(1)),
        lambda: BernoulliPHEAgent(3, 200, 1.0, np.random.default_rng(1)),
        lambda: GaussianPHEAgent(3, 200, 1.0, np.random.default_rng(1)),
    ], ids=["ucb1", "ucbv", "bern_ts", "gauss_ts", "bern_phe", "gauss_phe"])
    def test_deterministic_and_explores(self, factory):
        first = replay(factory, self.instance, 200, env_seed=11)
        second = replay(factory, self.instance, 200, env_seed=11)
        assert first == second
        assert set(first) == {0, 1, 2}

    def test_bern_ts_binarizes_fractional_rewards(self):
        beta_instance = MabInstance(means=[0.3, 0.7], family="beta", v=4.0)
        agent = BernoulliTSAgent(2, 300, np.random.default_rng(2))
        env_rng = np.random.default_rng(3)
        for t in range(1, 301):
            arm = agent.select(t)
            agent.update(t, arm, beta_instance.sample_reward(arm, env_rng))
        assert np.all(agent._successes <= agent.pulls)
        assert agent.pulls[1] > agent.pulls[0]

    @pytest.mark.parametrize("reward", [np.nan, np.inf])
    def test_non_finite_reward_rejected(self, reward):
        agent = UCB1Agent(3, 10)
        agent.update(1, agent.select(1), 0.4)
        arm = agent.select(2)
        with pytest.raises(ValueError, match=f"round 2, arm {arm}"):
            agent.update(2, arm, reward)
        assert agent.pulls.sum() == 1
        assert np.all(np.isfinite(agent.totals))

    def test_ucbv_tracks_empirical_variance(self):
        agent = UCBVAgent(2, 50, range_bound=1.0)
        for t, (arm, reward) in enumerate(
                [(0, 0.0), (1, 1.0), (0, 1.0), (1, 0.0)], start=1):
            agent._pending = (t, arm)
            agent.update(t, arm, reward)
        # Arm 0 saw (0, 1), arm 1 saw (1, 0): both have mean 1/2 and
        # variance 1/4, which set the UCB-V index.
        log_t = math.log(50)
        index = 0.5 + math.sqrt(2 * 0.25 * log_t / 2) + 3 * log_t / 2
        np.testing.assert_allclose(agent._scores(50), [index, index])


class TestLinearAgents:
    features = np.random.default_rng(12).normal(size=(6, 3))

    @pytest.mark.parametrize("factory", [
        lambda f: LinUCBAgent(f, 150, width=1.0),
        lambda f: LinTSAgent(f, 150, sigma_ts=0.5, rng=np.random.default_rng(4)),
        lambda f: LinPHEAgent(f, 150, a=1.0, rng=np.random.default_rng(4)),
    ], ids=["linucb", "lints", "linphe"])
    def test_deterministic_replay(self, factory):
        theta = np.array([0.2, -0.1, 0.3])

        def once():
            agent = factory(self.features)
            env_rng = np.random.default_rng(13)
            actions = []
            for t in range(1, 151):
                arm = agent.select(t)
                reward = float(self.features[arm] @ theta) + 0.3 * env_rng.standard_normal()
                agent.update(t, arm, reward)
                actions.append(arm)
            return actions

        assert once() == once()

    def test_linucb_one_hot_recovers_mean_plus_bonus(self):
        """With identity features the score splits into V/s + c/sqrt(s + lam)."""
        lam = 1e-12
        agent = LinUCBAgent(np.eye(3), 50, width=1.0, ridge_lambda=lam)
        rewards = {0: [0.2, 0.4], 1: [0.9], 2: [0.1, 0.5, 0.6]}
        t = 1
        for arm, values in rewards.items():
            for value in values:
                agent._pending = (t, arm)
                agent.update(t, arm, value)
                t += 1
        scores = linucb_scores(agent.state, np.eye(3), width=1.0)
        for arm, values in rewards.items():
            expected = np.mean(values) + 1.0 / math.sqrt(len(values))
            assert scores[arm] == pytest.approx(expected, rel=1e-5)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LinUCBAgent(self.features, 10, width=-1.0)
        with pytest.raises(ValueError):
            LinTSAgent(self.features, 10, sigma_ts=-0.5)
        with pytest.raises(ValueError):
            LinPHEAgent(self.features, 10, a=0.0)
        with pytest.raises(ValueError):
            LinPHEAgent(self.features, 10, pseudo_family="cauchy")
