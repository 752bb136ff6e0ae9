"""The MAB round's rewritten formulas against reference copies of the old ones.

``build_pool``, ``perturbed_mean_estimates``, the UCB1 and UCB-V indices and
``CascadeInstance.expected_clicks`` were rewritten to drop masks and
temporaries.  Each reference below is the expression they replaced; the new
code must give the same bits on every input, since the golden CSV hashes of
``tests/test_golden.py`` depend on it.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from banditpool.agents import perturbed_mean_estimates
from banditpool.baselines import UCB1Agent, UCBVAgent, ucb1_index, ucbv_index
from banditpool.envs import CascadeInstance, MabInstance
from banditpool.pool import build_pool


def reference_pool_values(rewards, alpha):
    r = np.asarray(rewards, dtype=float)
    mean = float(r.mean())
    centered = alpha * (r - mean)
    values = np.empty(2 * r.size, dtype=float)
    values[0::2] = centered
    values[1::2] = -centered
    return values, mean


def reference_estimates(totals, pulls, noise_sums):
    est = np.full(totals.shape, np.inf)
    seen = pulls > 0
    est[seen] = (totals[seen] + noise_sums[seen]) / pulls[seen]
    return est


def reference_ucb1_index(mean, pulls, t):
    mean = np.asarray(mean, dtype=float)
    pulls = np.asarray(pulls, dtype=float)
    with np.errstate(divide="ignore"):
        bonus = np.sqrt(2.0 * math.log(t) / pulls)
    return mean + np.where(pulls > 0, bonus, np.inf)


def reference_ucbv_index(mean, variance, pulls, t, range_bound):
    mean = np.asarray(mean, dtype=float)
    variance = np.asarray(variance, dtype=float)
    pulls = np.asarray(pulls, dtype=float)
    log_t = math.log(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        bonus = (np.sqrt(2.0 * variance * log_t / pulls)
                 + 3.0 * range_bound * log_t / pulls)
    return mean + np.where(pulls > 0, bonus, np.inf)


def reference_means(agent):
    return agent.totals / np.maximum(agent.pulls, 1)


def reference_variances(agent):
    mean = reference_means(agent)
    raw = agent._sumsq / np.maximum(agent.pulls, 1) - mean * mean
    return np.maximum(raw, 0.0)


rewards_st = hnp.arrays(float, st.integers(1, 300),
                        elements=st.floats(-1e6, 1e6))
alphas = st.floats(0.01, 10.0)


@st.composite
def arm_histories(draw):
    """(K, arms, rewards) where every arm appears at least once."""
    k = draw(st.integers(1, 8))
    extra = draw(st.lists(st.integers(0, k - 1), max_size=60))
    arms = list(range(k)) + extra
    rewards = draw(st.lists(st.floats(-5.0, 5.0), min_size=len(arms),
                            max_size=len(arms)))
    return k, arms, rewards


def fed(agent, arms, rewards):
    """``agent`` after learning ``(arm, reward)`` pairs in order."""
    for t, (arm, reward) in enumerate(zip(arms, rewards), start=1):
        agent._learn(t, arm, reward)
    return agent


class TestBuildPool:
    @settings(deadline=None, max_examples=300)
    @given(rewards_st, alphas, st.floats(-1e8, 1e8))
    def test_values_and_mean_bit_identical(self, rewards, alpha, offset):
        rewards = rewards + offset
        values, mean = reference_pool_values(rewards, alpha)
        pool = build_pool(rewards, alpha)
        assert np.array_equal(pool.values, values)
        assert pool.source_mean == mean


class TestPerturbedMeanEstimates:
    @settings(deadline=None, max_examples=200)
    @given(st.integers(1, 12).flatmap(lambda k: st.tuples(
        hnp.arrays(float, k, elements=st.floats(-1e4, 1e4)),
        hnp.arrays(np.int64, k, elements=st.integers(0, 10_000)),
        hnp.arrays(float, k, elements=st.floats(-1e4, 1e4)))))
    def test_matches_masked_path(self, arrays):
        """All arms pulled takes the unmasked branch; otherwise the mask."""
        totals, pulls, noise = arrays
        for counts in (pulls, np.maximum(pulls, 1)):
            assert np.array_equal(perturbed_mean_estimates(totals, counts, noise),
                                  reference_estimates(totals, counts, noise))


class TestUCBIndices:
    @settings(deadline=None, max_examples=200)
    @given(st.integers(1, 10).flatmap(lambda k: st.tuples(
        hnp.arrays(float, k, elements=st.floats(-10.0, 10.0)),
        hnp.arrays(float, k, elements=st.floats(0.0, 10.0)),
        hnp.arrays(np.int64, k, elements=st.integers(0, 10_000)))),
        st.integers(2, 10**7), st.floats(0.1, 10.0))
    def test_primitives_match_the_masked_expressions(self, arrays, t, bound):
        mean, variance, pulls = arrays
        for counts in (pulls, np.maximum(pulls, 1)):
            assert np.array_equal(ucb1_index(mean, counts, t),
                                  reference_ucb1_index(mean, counts, t))
            assert np.array_equal(
                ucbv_index(mean, variance, counts, t, bound),
                reference_ucbv_index(mean, variance, counts, t, bound))

    @settings(deadline=None, max_examples=200)
    @given(arm_histories(), st.integers(0, 10**6))
    def test_ucb1_agent_index(self, history, offset):
        k, arms, rewards = history
        agent = fed(UCB1Agent(k, 10**7), arms, rewards)
        t = k + 1 + offset
        index = agent._indices(t)
        assert np.array_equal(index, ucb1_index(agent.means(), agent.pulls, t))
        assert np.array_equal(
            index, reference_ucb1_index(reference_means(agent), agent.pulls, t))

    @settings(deadline=None, max_examples=200)
    @given(arm_histories(), st.integers(0, 10**6), st.floats(0.1, 10.0))
    def test_ucbv_agent_index(self, history, offset, bound):
        k, arms, rewards = history
        agent = fed(UCBVAgent(k, 10**7, range_bound=bound), arms, rewards)
        t = k + 1 + offset
        index = agent._indices(t)
        assert np.array_equal(index, ucbv_index(
            agent.means(), agent.variances(), agent.pulls, t, bound))
        assert np.array_equal(index, reference_ucbv_index(
            reference_means(agent), reference_variances(agent), agent.pulls,
            t, bound))

    def test_agents_play_every_arm_once_in_the_first_k_rounds(self):
        instance = MabInstance(means=[0.9, 0.1, 0.5, 0.3, 0.7],
                               family="gaussian")
        env_rng = np.random.default_rng(4)
        for agent in (UCB1Agent(5, 20), UCBVAgent(5, 20, range_bound=3.0)):
            played = []
            for t in range(1, 6):
                arm = agent.select(t)
                agent.update(t, arm, instance.sample_reward(arm, env_rng))
                played.append(arm)
            assert played == [0, 1, 2, 3, 4]
            assert agent.pulls.tolist() == [1] * 5

    def test_unpulled_arm_is_played_whatever_the_round(self):
        """The choice follows the pulls, as the +inf index does, not ``t``."""
        for agent in (UCB1Agent(3, 10), UCBVAgent(3, 10)):
            agent.update(1, agent.select(1), 0.5)
            expected = int(ucb1_index(agent.means(), agent.pulls, 3).argmax())
            assert agent.select(3) == expected == 1


class TestExpectedClicks:
    @settings(deadline=None, max_examples=300)
    @given(st.integers(1, 30).flatmap(lambda n: st.tuples(
        hnp.arrays(float, n, elements=st.floats(0.0, 1.0)),
        st.permutations(range(n)), st.integers(1, n))))
    def test_matches_numpy_product(self, case):
        attractions, order, k = case
        items = list(order[:k])
        env = CascadeInstance(attractions=attractions, slate_size=k)
        expected = float(1.0 - np.prod(1.0 - attractions[np.asarray(items)]))
        assert env.expected_clicks(items) == expected
