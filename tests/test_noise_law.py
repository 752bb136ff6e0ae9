"""The law of a pool agent's per-arm noise ``U`` on fixed histories.

In CORe arm i's noise ``U_i`` is a sum of ``s_i`` i.i.d. uniform draws from
the centred pool, one per past observation of the arm.  Which draw lands on
which observation does not change the joint law of ``U``, so this gate checks
the law itself, not a stream: it holds for any assignment of one pool draw to
the observations, such as history order or contiguous per-arm blocks.

A ``RewardPoolAgent`` is fed one fixed, seeded history (K = 6 arms, counts
from 1 to 1,200, one arm unseen, observations in shuffled order) and
``_arm_noise()`` is sampled ``T`` times on it.  Per seen arm, the mean of
``U_i`` is 0 and its variance ``s_i * current_pool().variance()``, each within
4 standard errors.  On the binary history, ``U_i`` takes values on a lattice
whose exact law is a mixture of binomials; a chi-square test on binned ``U_i``
must not reject at level ``LEVEL`` for any arm.  The unseen arm's noise is
exactly 0.
"""

import functools

import numpy as np
import pytest
from scipy import stats

from banditpool.agents import PoolParams, RewardPoolAgent
from test_agents import observe

K = 6
COUNTS = np.array([1, 9, 60, 0, 350, 1200])   # arm 3 is never observed
T = 20_000
HISTORY_SEED = 2027
AGENT_SEED = 31
LEVEL = 1e-3              # per arm, for the chi-square tests
Z_EDGES = (-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0)
MIN_EXPECTED = 5.0        # merge bins until each expects this many samples
NEGLIGIBLE = 1e-18        # binomial weights below this are dropped


def fixed_agent(family):
    """The agent after the fixed history, its order shuffled."""
    rng = np.random.default_rng(HISTORY_SEED)
    arms = np.repeat(np.arange(K), COUNTS)
    rng.shuffle(arms)
    if family == "gaussian":
        rewards = rng.normal(0.2 + 0.1 * arms, 0.5)
    else:
        rewards = (rng.random(arms.size) < 0.2 + 0.1 * arms).astype(float)
    agent = RewardPoolAgent(K, arms.size + 1, PoolParams(),
                            np.random.default_rng(AGENT_SEED))
    observe(agent, arms, rewards)
    return agent


@functools.cache
def sample(family):
    """The agent after the fixed history and ``T`` draws of its ``U``."""
    agent = fixed_agent(family)
    assert agent.pulls.tolist() == COUNTS.tolist()
    return agent, np.array([agent._arm_noise() for _ in range(T)])


@pytest.fixture(params=["gaussian", "binary"])
def sampled(request):
    return sample(request.param)


def test_unseen_arm_gets_exactly_zero(sampled):
    _, noise = sampled
    assert np.all(noise[:, COUNTS == 0] == 0.0)


def test_mean_and_variance_per_arm(sampled):
    """``E U_i = 0`` and ``E U_i^2 = s_i v`` for the single-draw variance
    ``v``; the standard error of the mean square uses the exact fourth
    moment ``s mu4 + 3 s (s - 1) v^2`` of a sum of ``s`` i.i.d. draws."""
    agent, noise = sampled
    values = agent.current_pool().values
    v = agent.current_pool().variance()
    mu4 = float(np.mean(values ** 4))
    for arm in np.flatnonzero(COUNTS):
        s = int(COUNTS[arm])
        u = noise[:, arm]
        variance = s * v
        fourth = s * mu4 + 3 * s * (s - 1) * v * v
        assert abs(u.mean()) <= 4 * np.sqrt(variance / T), arm
        assert (abs(np.mean(u * u) - variance)
                <= 4 * np.sqrt((fourth - variance ** 2) / T)), arm


def lattice_cdf(edges, s, ones, m):
    """``P(L <= j)`` for each integer ``j`` in ``edges``, where ``L = m U /
    alpha`` for the sum ``U`` of ``s`` draws from the pool of a binary
    history with ``ones`` ones among ``m`` rewards.

    A draw is one of the ones' values ``+-alpha (1 - p)`` with probability
    ``p = ones / m``, each sign with probability 1/2, and otherwise one of the
    zeros' values ``+-alpha p``.  With ``k`` draws of the first kind, ``x``
    of them positive, and ``y`` positive draws of the second kind,
    ``L = (m - ones)(2x - k) + ones (2y - (s - k))``."""
    ks = np.arange(s + 1)
    wk = stats.binom.pmf(ks, s, ones / m)
    rows = []
    for k in ks[wk > NEGLIGIBLE]:
        xs = np.arange(k + 1)
        wx = stats.binom.pmf(xs, k, 0.5)
        keep = wx * wk[k] > NEGLIGIBLE
        rows.append((np.full(keep.sum(), k), xs[keep], wx[keep] * wk[k]))
    k, x, w = (np.concatenate(parts) for parts in zip(*rows))
    base = (m - ones) * (2 * x - k) - ones * (s - k)
    return np.array([np.sum(w * stats.binom.cdf((j - base) // (2 * ones),
                                                 s - k, 0.5))
                     for j in edges])


def merged_bins(observed, expected):
    """Adjacent bins merged, left to right, until each expects at least
    ``MIN_EXPECTED`` samples; a short last bin joins the one before it."""
    obs, exp = [0.0], [0.0]
    for o, e in zip(observed, expected):
        if exp[-1] >= MIN_EXPECTED:
            obs.append(0.0)
            exp.append(0.0)
        obs[-1] += o
        exp[-1] += e
    if len(exp) > 1 and exp[-1] < MIN_EXPECTED:
        obs[-2] += obs.pop()
        exp[-2] += exp.pop()
    return np.array(obs), np.array(exp)


def test_binary_noise_matches_its_exact_law():
    """Chi-square of each arm's ``U`` against its exact lattice law, on bins
    cut at ``Z_EDGES`` standard deviations, at level ``LEVEL``."""
    agent, noise = sample("binary")
    rewards = agent._rewards[: agent._seen]
    m, ones = rewards.size, int(rewards.sum())
    alpha = agent.params.alpha
    v = agent.current_pool().variance()
    for arm in np.flatnonzero(COUNTS):
        s = int(COUNTS[arm])
        lattice = np.rint(noise[:, arm] * m / alpha).astype(np.int64)
        edges = np.unique(np.floor(np.array(Z_EDGES) * np.sqrt(s * v) * m
                                   / alpha).astype(np.int64))
        cdf = np.concatenate([[0.0], lattice_cdf(edges, s, ones, m), [1.0]])
        expected = T * np.diff(cdf)
        observed = np.bincount(np.searchsorted(edges, lattice, side="left"),
                               minlength=edges.size + 1)
        obs, exp = merged_bins(observed, expected)
        assert obs.size >= 2, arm
        statistic = float(np.sum((obs - exp) ** 2 / exp))
        p_value = stats.chi2.sf(statistic, obs.size - 1)
        assert p_value > LEVEL, (arm, statistic, p_value)
