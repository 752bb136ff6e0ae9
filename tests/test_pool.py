"""Reward pool construction, variance identity, and draw semantics."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from banditpool.pool import RewardPool, build_pool

EPS = np.finfo(float).eps
TINY = np.finfo(float).smallest_subnormal


def exact_pool_variance(rewards, alpha) -> float:
    """``alpha**2 * mean((y - mean)**2)`` in exact rational arithmetic."""
    ys = [Fraction(y) for y in rewards]
    mean = sum(ys) / len(ys)
    return float(Fraction(alpha) ** 2 * sum((y - mean) ** 2 for y in ys) / len(ys))


@st.composite
def offset_histories(draw):
    """Rewards ``offset + noise`` with |offset| <= 1e8, 1 to 60 of them."""
    offset = draw(st.floats(-1e8, 1e8))
    noise = draw(hnp.arrays(float, st.integers(1, 60),
                            elements=st.floats(-10.0, 10.0)))
    return offset + noise


class TestBuildPool:
    def test_two_rewards_unit_scale(self):
        """Hand-evaluated pool for rewards (0, 1): the centred rewards, then
        their negations."""
        pool = build_pool([0.0, 1.0], alpha=1.0)
        np.testing.assert_allclose(pool.values, [-0.5, 0.5, 0.5, -0.5])

    def test_two_rewards_scaled(self):
        pool = build_pool([0.0, 1.0], alpha=2.0)
        np.testing.assert_allclose(pool.values, [-1.0, 1.0, 1.0, -1.0])

    def test_constant_rewards_collapse_to_zero(self):
        pool = build_pool([0.7] * 5, alpha=1.3)
        np.testing.assert_array_equal(pool.values, np.zeros(10))

    def test_size_is_twice_the_history(self):
        rng = np.random.default_rng(0)
        for m in (1, 2, 17, 400):
            assert len(build_pool(rng.normal(size=m), 0.6)) == 2 * m

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            build_pool([], alpha=1.0)

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ValueError):
            build_pool([1.0], alpha=0.0)

    def test_zero_mean_and_sign_symmetry(self):
        """The multiset is centered and equal to its own negation."""
        rng = np.random.default_rng(42)
        for _ in range(50):
            values = build_pool(rng.normal(2.0, 3.0, size=rng.integers(1, 60)),
                                alpha=float(rng.uniform(0.1, 3.0))).values
            assert abs(values.mean()) <= 1e-12 * max(np.abs(values).max(), 1.0)
            np.testing.assert_array_equal(np.sort(values), np.sort(-values))


class TestBuildPoolProperties:
    @settings(deadline=None, max_examples=300)
    @given(offset_histories(), st.floats(0.01, 10.0))
    @example(np.array([1.9119255948309746e-156, 0.0, 0.0]), 0.0625)
    @example(3e11 + np.array([0.0, 0.0, 1 / 64]), 0.6)
    def test_symmetric_centred_and_variance_exact(self, rewards, alpha):
        """The second half negates the first exactly and the values sum to ~0.

        The variance differs from the exact one only through the rounded
        mean: centring on a mean off by ``delta`` adds ``alpha**2 delta**2``.
        The pool centres the shifts ``y - y_1`` on their float mean, which is
        off by at most ``(m + 1) eps max|y - y_1|``, so a common offset of
        the rewards does not enter.  The remaining roundings stay far below
        1e-12 relative, unless the squares underflow: a subnormal square or
        sum is rounded to an absolute quantum, so each pool value may add a
        few ``TINY``.
        """
        pool = build_pool(rewards, alpha)
        values = pool.values
        m = rewards.size
        assert np.array_equal(values[m:], -values[:m])
        assert abs(values.sum()) <= values.size * EPS * np.abs(values).max()
        delta = (m + 1) * EPS * np.abs(rewards - rewards[0]).max()
        exact = exact_pool_variance(rewards, alpha)
        underflow = 2 * values.size * TINY
        assert (abs(pool.variance() - exact)
                <= 1e-12 * exact + (alpha * delta) ** 2 + underflow)


class TestVariance:
    def test_hand_computed_values(self):
        assert build_pool([0.0, 1.0], 1.0).variance() == pytest.approx(0.25)
        assert build_pool([0.0, 1.0], 2.0).variance() == pytest.approx(1.0)
        assert build_pool([0.5] * 4, 1.0).variance() == 0.0

    def test_matches_raw_reward_form(self):
        """Mean of squares equals alpha^2/m * sum((y - mean)^2) on raw rewards."""
        rng = np.random.default_rng(7)
        for _ in range(50):
            rewards = rng.normal(0.4, 1.7, size=rng.integers(1, 200))
            alpha = float(rng.uniform(0.1, 2.5))
            direct = (alpha ** 2 / rewards.size) * np.sum(
                (rewards - rewards.mean()) ** 2)
            assert build_pool(rewards, alpha).variance() == pytest.approx(
                direct, rel=1e-10)

    def test_alpha_scaling_is_quadratic(self):
        rng = np.random.default_rng(3)
        rewards = rng.uniform(size=30)
        base = build_pool(rewards, 1.0).variance()
        for alpha in (0.3, 0.6, 2.0):
            assert build_pool(rewards, alpha).variance() == pytest.approx(
                alpha ** 2 * base, rel=1e-12)

    def test_empty_pool_rejected(self):
        empty = RewardPool(values=np.empty(0))
        with pytest.raises(ValueError):
            empty.variance()


class TestDraw:
    def test_zero_draws(self):
        pool = build_pool([0.0, 1.0], 1.0)
        assert pool.draw(0, np.random.default_rng(0)).size == 0

    def test_draws_come_from_the_pool(self):
        pool = build_pool([0.1, 0.9, 0.4], 0.6)
        draws = pool.draw(500, np.random.default_rng(1))
        assert np.isin(draws, pool.values).all()

    def test_negative_count_rejected(self):
        pool = build_pool([0.0, 1.0], 1.0)
        with pytest.raises(ValueError):
            pool.draw(-1, np.random.default_rng(0))

    def test_empty_pool_rejected(self):
        empty = RewardPool(values=np.empty(0))
        with pytest.raises(ValueError):
            empty.draw(3, np.random.default_rng(0))

    def test_draw_moments_match_pool(self):
        """10^6 uniform draws: mean within 0 +/- 0.002, variance matches.

        The mean tolerance is four standard errors: 4 * 0.5 / sqrt(10^6).
        """
        pool = build_pool([0.0, 1.0], 1.0)
        draws = pool.draw(1_000_000, np.random.default_rng(11))
        assert abs(draws.mean()) < 0.002
        assert abs(draws.var() - pool.variance()) < 0.002
