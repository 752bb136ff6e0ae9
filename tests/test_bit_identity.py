"""Rewritten formulas against reference copies of the old ones.

``build_pool``, ``perturbed_mean_estimates``, the UCB1 and UCB-V indices
(the ``_scores`` of ``UCB1Agent`` and ``UCBVAgent``, and the ``_ucb1`` and
``_ucbv`` primitives they call) and ``CascadeInstance.expected_clicks`` were
rewritten to drop masks and temporaries, and the four per-owner perturbed
means (the ``_scores`` of the MAB pool agent, the pool ranker, the PHE agents
and the PHE ranker) now call ``perturbed_mean_estimates`` instead of summing
their noise inline.  Each reference below is the expression the code
replaced; the new code must give the same bits on every input, since the
golden CSV hashes of ``tests/test_golden.py`` depend on it and cannot see a
last-bit change.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from banditpool.agents import PoolParams, RewardPoolAgent, perturbed_mean_estimates
from banditpool.baselines import (
    BernoulliPHEAgent,
    GaussianPHEAgent,
    UCB1Agent,
    UCBVAgent,
    _ucb1,
    _ucbv,
)
from banditpool.envs import CascadeInstance, MabInstance
from banditpool.pool import build_pool
from banditpool.ranking import BernoulliPHERanker, RewardPoolRanker


def reference_pool_values(rewards, alpha):
    r = np.asarray(rewards, dtype=float)
    mean = float(r.mean())
    centered = alpha * (r - mean)
    values = np.empty(2 * r.size, dtype=float)
    values[0::2] = centered
    values[1::2] = -centered
    return values


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
        """The mean is checked through the values, which are centred on it."""
        rewards = rewards + offset
        assert np.array_equal(build_pool(rewards, alpha).values,
                              reference_pool_values(rewards, alpha))


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


def reference_pool_agent_estimates(agent):
    """``RewardPoolAgent._scores`` with its old inline noise sum."""
    pool = agent.current_pool()
    draws = pool.draw(agent._seen, agent.rng)
    noise = np.bincount(agent._arms[: agent._seen], weights=draws,
                        minlength=agent.n_arms)
    return reference_estimates(agent.totals, agent.pulls, noise)


def reference_phe_estimates(agent):
    """``_PHEAgent._scores`` with its old inline noise sum."""
    counts = np.ceil(agent.a * np.asarray(agent.pulls, dtype=float)).astype(np.int64)
    pseudo = agent._draw_pseudo(int(counts.sum()))
    owner = np.repeat(np.arange(agent.n_arms), counts)
    pseudo_sums = np.bincount(owner, weights=pseudo, minlength=agent.n_arms)
    denom = agent.pulls + counts
    est = np.full(agent.n_arms, np.inf)
    seen = denom > 0
    est[seen] = (agent.totals[seen] + pseudo_sums[seen]) / denom[seen]
    return est


def reference_pool_ranker_scores(ranker):
    scores = np.full(ranker.n_items, np.inf)
    observed = ranker.stats.observations > 0
    if ranker._seen == 0 or not observed.any():
        return scores
    pool = build_pool(ranker._values[: ranker._seen], ranker.params.alpha)
    draws = pool.draw(ranker._seen, ranker.rng)
    noise = np.bincount(ranker._items[: ranker._seen], weights=draws,
                        minlength=ranker.n_items)
    scores[observed] = ((ranker.stats.clicks[observed] + noise[observed])
                        / ranker.stats.observations[observed])
    return scores


def reference_phe_ranker_scores(ranker):
    counts = np.ceil(ranker.a * ranker.stats.observations).astype(np.int64)
    pseudo = ranker.rng.integers(0, 2, size=int(counts.sum())).astype(float)
    owner = np.repeat(np.arange(ranker.n_items), counts)
    pseudo_sums = np.bincount(owner, weights=pseudo, minlength=ranker.n_items)
    denom = ranker.stats.observations + counts
    scores = np.full(ranker.n_items, np.inf)
    seen = denom > 0
    scores[seen] = (ranker.stats.clicks[seen] + pseudo_sums[seen]) / denom[seen]
    return scores


def same_draws(new, old, owner):
    """``new()`` and ``old(owner)`` from the same generator state."""
    state = owner.rng.bit_generator.state
    first = new()
    owner.rng.bit_generator.state = state
    return first, old(owner)


@st.composite
def any_arm_histories(draw):
    """(K, arms, rewards), where some arms may never be pulled."""
    k = draw(st.integers(1, 8))
    arms = draw(st.lists(st.integers(0, k - 1), max_size=60))
    rewards = draw(st.lists(st.floats(-5.0, 5.0), min_size=len(arms),
                            max_size=len(arms)))
    return k, arms, rewards


@st.composite
def cascade_histories(draw):
    """(items, slate size, rounds of (slate, click position or None))."""
    n_items = draw(st.integers(1, 8))
    size = draw(st.integers(1, n_items))
    rounds = draw(st.lists(st.tuples(
        st.permutations(range(n_items)),
        st.one_of(st.none(), st.integers(0, size - 1))), max_size=30))
    return n_items, size, [(order[:size], click) for order, click in rounds]


def fed_ranker(ranker, rounds):
    """``ranker`` after the cascade feedback of ``rounds``, in order."""
    for t, (slate, click) in enumerate(rounds, start=1):
        ranker._learn(t, slate, click)
    return ranker


class TestPerOwnerCallSites:
    """Each caller of the per-owner helper against its old inline code."""

    @settings(deadline=None, max_examples=200)
    @given(any_arm_histories(), alphas, st.integers(0, 2**32))
    def test_pool_agent(self, history, alpha, seed):
        k, arms, rewards = history
        agent = fed(RewardPoolAgent(k, len(arms) + 2, PoolParams(alpha=alpha),
                                    np.random.default_rng(seed)), arms, rewards)
        if arms:
            new, old = same_draws(lambda: agent._scores(1),
                                  reference_pool_agent_estimates, agent)
            assert np.array_equal(new, old)

    @settings(deadline=None, max_examples=200)
    @given(any_arm_histories(), st.floats(0.01, 5.0), st.integers(0, 2**32),
           st.sampled_from([BernoulliPHEAgent, GaussianPHEAgent]))
    def test_phe_agents(self, history, a, seed, cls):
        k, arms, rewards = history
        agent = fed(cls(k, len(arms) + 1, a, np.random.default_rng(seed)),
                    arms, rewards)
        new, old = same_draws(lambda: agent._scores(1),
                              reference_phe_estimates, agent)
        assert np.array_equal(new, old)

    @settings(deadline=None, max_examples=200)
    @given(cascade_histories(), alphas, st.integers(0, 2**32))
    def test_pool_ranker(self, history, alpha, seed):
        n_items, size, rounds = history
        ranker = fed_ranker(RewardPoolRanker(
            n_items, size, len(rounds) + 1, PoolParams(alpha=alpha),
            np.random.default_rng(seed)), rounds)
        new, old = same_draws(lambda: ranker._scores(1),
                              reference_pool_ranker_scores, ranker)
        assert np.array_equal(new, old)

    @settings(deadline=None, max_examples=200)
    @given(cascade_histories(), st.floats(0.01, 5.0), st.integers(0, 2**32))
    def test_phe_ranker(self, history, a, seed):
        n_items, size, rounds = history
        ranker = fed_ranker(BernoulliPHERanker(
            n_items, size, len(rounds) + 1, a, np.random.default_rng(seed)),
            rounds)
        new, old = same_draws(lambda: ranker._scores(1),
                              reference_phe_ranker_scores, ranker)
        assert np.array_equal(new, old)


class TestUCBIndices:
    @settings(deadline=None, max_examples=200)
    @given(st.integers(1, 10).flatmap(lambda k: st.tuples(
        hnp.arrays(float, k, elements=st.floats(-10.0, 10.0)),
        hnp.arrays(float, k, elements=st.floats(0.0, 10.0)),
        hnp.arrays(np.int64, k, elements=st.integers(0, 10_000)))),
        st.integers(2, 10**7), st.floats(0.1, 10.0))
    def test_primitives_match_the_masked_expressions(self, arrays, t, bound):
        """On pulled arms, the only ones the primitives are called on."""
        mean, variance, pulls = arrays
        counts = np.maximum(pulls, 1)
        log_t = math.log(t)
        assert np.array_equal(_ucb1(mean, counts, log_t),
                              reference_ucb1_index(mean, counts, t))
        assert np.array_equal(
            _ucbv(mean, variance, counts, log_t, bound),
            reference_ucbv_index(mean, variance, counts, t, bound))

    @settings(deadline=None, max_examples=200)
    @given(arm_histories(), st.integers(0, 10**6))
    def test_ucb1_agent_index(self, history, offset):
        k, arms, rewards = history
        agent = fed(UCB1Agent(k, 10**7), arms, rewards)
        t = k + 1 + offset
        assert np.array_equal(agent._scores(t), reference_ucb1_index(
            reference_means(agent), agent.pulls, t))

    @settings(deadline=None, max_examples=200)
    @given(arm_histories(), st.integers(0, 10**6), st.floats(0.1, 10.0))
    def test_ucbv_agent_index(self, history, offset, bound):
        k, arms, rewards = history
        agent = fed(UCBVAgent(k, 10**7, range_bound=bound), arms, rewards)
        t = k + 1 + offset
        assert np.array_equal(agent._scores(t), reference_ucbv_index(
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
            expected = int(reference_ucb1_index(
                reference_means(agent), agent.pulls, 3).argmax())
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
