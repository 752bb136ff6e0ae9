"""Rewritten formulas against reference copies of the old ones.

``build_pool``, ``perturbed_mean_estimates``, the UCB1 and UCB-V indices
(the ``_scores`` of ``UCB1Agent`` and ``UCBVAgent``, and the ``_ucb1`` and
``_ucbv`` primitives they call) and ``CascadeInstance.expected_clicks`` were
rewritten to drop masks and temporaries, and the four per-owner perturbed
means (the ``_scores`` of the MAB pool agent, the pool ranker, the PHE agents
and the PHE ranker) now call ``perturbed_mean_estimates`` instead of summing
their noise inline.  The rankers now score through the multi-armed agents
they wrap, so the ranker references read the item agent's state.  Each
reference below is the expression the code
replaced; the new code must give the same bits on every input, since the
golden CSV hashes of ``tests/test_golden.py`` depend on it and cannot see a
last-bit change.

Two references changed with the draw itself.  ``build_pool`` now centres on
a shifted mean and writes its values in two halves, so its old formula is a
tolerance reference, with an exact ``Fraction`` reference where the old
formula's own error is the larger.  The pool agent and the pool ranker now
give each arm a contiguous block of one draw, not the draws at its places in
history order; the law of the noise is checked in ``tests/test_noise_law.py``,
and the two tests here replay the block sums from the same generator state.

The PHE agents now sum their pseudo rewards in the same contiguous blocks,
through ``agents.block_sums``, in place of ``np.bincount`` over the repeated
arm indices, and ``perturbed_mean_estimates`` lost its unmasked branch.
Bernoulli pseudo rewards are 0 or 1, so their sums are exact in any order
and stay bit-identical; the Gaussian agent's old formula is a tolerance
reference, replayed from the same generator state.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from banditpool.agents import (PoolParams, RewardPoolAgent, block_sums,
                               perturbed_mean_estimates)
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
    """The old ``build_pool``: centred on the float mean, interleaved."""
    r = np.asarray(rewards, dtype=float)
    mean = float(r.mean())
    centered = alpha * (r - mean)
    values = np.empty(2 * r.size, dtype=float)
    values[0::2] = centered
    values[1::2] = -centered
    return values


def exact_centred_values(rewards, alpha):
    """``alpha * (y - mean)`` per reward in exact rational arithmetic,
    rounded once to float."""
    ys = [Fraction(y) for y in rewards]
    mean = sum(ys) / len(ys)
    return np.array([float(Fraction(alpha) * (y - mean)) for y in ys])


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


POOL_RTOL = 1e-12
TINY = np.finfo(float).smallest_subnormal

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
    @example(np.array([0.1, 0.1, 0.1]), 1.0, 0.0)
    @example(np.array([0.0, 0.0, 1 / 64]), 0.6, 1e8)
    def test_values_match_the_old_formula(self, rewards, alpha, offset):
        """The centred half agrees with the old formula's centred values to
        ``POOL_RTOL`` of the largest; where the old formula's own error is
        larger than that, the exact values are the reference.  The second
        half is the first's exact negation, as the old pairs were."""
        rewards = rewards + offset
        m = rewards.size
        values = build_pool(rewards, alpha).values
        assert np.array_equal(values[m:], -values[:m])
        old = reference_pool_values(rewards, alpha)[0::2]
        tolerance = POOL_RTOL * np.abs(old).max()
        if np.abs(values[:m] - old).max() <= tolerance:
            return
        exact = exact_centred_values(rewards, alpha)
        tolerance = POOL_RTOL * np.abs(exact).max() + m * TINY
        assert np.abs(old - exact).max() > tolerance
        assert np.abs(values[:m] - exact).max() <= tolerance


class TestPerturbedMeanEstimates:
    @settings(deadline=None, max_examples=200)
    @given(st.integers(1, 12).flatmap(lambda k: st.tuples(
        hnp.arrays(float, k, elements=st.floats(-1e4, 1e4)),
        hnp.arrays(np.int64, k, elements=st.integers(0, 10_000)),
        hnp.arrays(float, k, elements=st.floats(-1e4, 1e4)))))
    def test_matches_masked_path(self, arrays):
        """With some arms unpulled and with every arm pulled: one path, the
        old masked expression's bits."""
        totals, pulls, noise = arrays
        for counts in (pulls, np.maximum(pulls, 1)):
            assert np.array_equal(perturbed_mean_estimates(totals, counts, noise),
                                  reference_estimates(totals, counts, noise))


def reference_block_sums(draws, pulls):
    """Per arm, the sum of its contiguous block of ``draws``: blocks of
    ``pulls[i]`` values in ascending arm order, 0 for an arm with none.  Each
    block is summed by ``np.add.reduceat`` on its own slice."""
    sums = np.zeros(len(pulls))
    start = 0
    for arm, count in enumerate(pulls):
        if count:
            sums[arm] = np.add.reduceat(draws[start:start + count], [0])[0]
        start += count
    assert start == draws.size
    return sums


class TestBlockSums:
    @settings(deadline=None, max_examples=300)
    @given(st.lists(st.integers(0, 20), max_size=12).flatmap(
        lambda sizes: st.tuples(st.just(sizes), hnp.arrays(
            float, sum(sizes), elements=st.floats(-1e6, 1e6)))))
    @example(([0, 2, 0, 0, 3, 0], np.arange(5.0)))
    @example(([0, 0, 0], np.empty(0)))
    @example(([], np.empty(0)))
    def test_matches_the_per_block_slices(self, case):
        """Empty blocks at the start, middle and end give exactly 0, and all
        empty blocks over no values, as in a PHE agent's first round."""
        sizes, values = case
        sums = block_sums(values, np.array(sizes, dtype=np.int64))
        assert np.array_equal(sums, reference_block_sums(values, sizes))


def reference_pool_agent_estimates(agent):
    """``RewardPoolAgent._scores``: one pool draw, summed in blocks."""
    pool = agent.current_pool()
    draws = pool.draw(agent._seen, agent.rng)
    noise = reference_block_sums(draws, agent.pulls)
    return reference_estimates(agent.totals, agent.pulls, noise)


def reference_phe_estimates(agent):
    """``_PHEAgent._scores`` with its old noise sum, ``np.bincount`` over the
    repeated arm indices; also each estimate's magnitude bound, the same
    formula over the absolute values, which bounds a reordered sum's error."""
    counts = np.ceil(agent.a * np.asarray(agent.pulls, dtype=float)).astype(np.int64)
    pseudo = agent._draw_pseudo(int(counts.sum()))
    owner = np.repeat(np.arange(agent.n_arms), counts)
    denom = agent.pulls + counts
    seen = denom > 0
    parts = []
    for totals, draws in ((agent.totals, pseudo),
                          (np.abs(agent.totals), np.abs(pseudo))):
        pseudo_sums = np.bincount(owner, weights=draws, minlength=agent.n_arms)
        est = np.full(agent.n_arms, np.inf)
        est[seen] = (totals[seen] + pseudo_sums[seen]) / denom[seen]
        parts.append(est)
    return tuple(parts)


def reference_pool_ranker_scores(items):
    """The pool ranker's old ``_scores``, on the state of its item agent:
    ``pulls`` are the observations, ``totals`` the clicks, and ``_rewards``
    the ranker's former ``_values``; the noise is summed in blocks."""
    scores = np.full(items.n_arms, np.inf)
    observed = items.pulls > 0
    if items._seen == 0 or not observed.any():
        return scores
    pool = build_pool(items._rewards[: items._seen], items.params.alpha)
    draws = pool.draw(items._seen, items.rng)
    noise = reference_block_sums(draws, items.pulls)
    scores[observed] = ((items.totals[observed] + noise[observed])
                        / items.pulls[observed])
    return scores


def reference_phe_ranker_scores(items):
    """The PHE ranker's old ``_scores``, on the state of its item agent."""
    counts = np.ceil(items.a * items.pulls).astype(np.int64)
    pseudo = items.rng.integers(0, 2, size=int(counts.sum())).astype(float)
    owner = np.repeat(np.arange(items.n_arms), counts)
    pseudo_sums = np.bincount(owner, weights=pseudo, minlength=items.n_arms)
    denom = items.pulls + counts
    scores = np.full(items.n_arms, np.inf)
    seen = denom > 0
    scores[seen] = (items.totals[seen] + pseudo_sums[seen]) / denom[seen]
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
        """Bernoulli sums are exact in any order: the same bits.  Gaussian
        ones agree to ``POOL_RTOL`` of each estimate's magnitude bound."""
        k, arms, rewards = history
        agent = fed(cls(k, len(arms) + 1, a, np.random.default_rng(seed)),
                    arms, rewards)
        new, (old, bound) = same_draws(lambda: agent._scores(1),
                                       reference_phe_estimates, agent)
        if cls is BernoulliPHEAgent:
            assert np.array_equal(new, old)
            return
        finite = np.isfinite(old)
        assert np.array_equal(np.isfinite(new), finite)
        assert np.all(np.abs(new - old)[finite] <= POOL_RTOL * bound[finite])

    @settings(deadline=None, max_examples=200)
    @given(cascade_histories(), alphas, st.integers(0, 2**32))
    def test_pool_ranker(self, history, alpha, seed):
        n_items, size, rounds = history
        ranker = fed_ranker(RewardPoolRanker(
            n_items, size, len(rounds) + 1, PoolParams(alpha=alpha),
            np.random.default_rng(seed)), rounds)
        new, old = same_draws(lambda: ranker._scores(1),
                              reference_pool_ranker_scores, ranker.items)
        assert np.array_equal(new, old)

    @settings(deadline=None, max_examples=200)
    @given(cascade_histories(), st.floats(0.01, 5.0), st.integers(0, 2**32))
    def test_phe_ranker(self, history, a, seed):
        n_items, size, rounds = history
        ranker = fed_ranker(BernoulliPHERanker(
            n_items, size, len(rounds) + 1, a, np.random.default_rng(seed)),
            rounds)
        new, old = same_draws(lambda: ranker._scores(1),
                              reference_phe_ranker_scores, ranker.items)
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
