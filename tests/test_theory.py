"""Monte Carlo checks of the pool guarantees on small, fast configurations."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditpool import theory
from banditpool.pool import build_pool
from banditpool.theory import (
    CheckReport,
    _prefix_pool_variances,
    _violates_floor,
    check_posterior_match,
    check_shifted_ball,
    check_tail_mass,
    check_value_bound,
    check_variance_floor,
    default_checks,
    pool_check_bound,
    pool_value_bound,
    posterior_moments,
    variance_floor_threshold,
    write_check_report,
)


def rebuild_violates(rewards, alpha, floor, first_round) -> bool:
    """Per-round pool rebuild: is the floor broken at any checked round?"""
    return any(build_pool(rewards[: t - 1], alpha).variance() < floor
               for t in range(first_round, rewards.size + 1))


def reference_check_variance_floor(horizon: int = 1000, z: float = 0.6,
                                   alpha: float = 1.0, sigma: float = 0.5,
                                   trials: int = 2000, rng=None,
                                   mean_range=(0.0, 1.0)) -> CheckReport:
    """The variance-floor check as a pool rebuild at every round, O(trials n^2).

    This is the definition the prefix-sum check must reproduce exactly.
    """
    rng = rng if rng is not None else np.random.default_rng()
    floor = 0.5 * alpha * alpha * z * sigma * sigma
    first_round = math.floor(variance_floor_threshold(horizon, z)) + 1
    failures = 0
    for _ in range(trials):
        means = rng.uniform(mean_range[0], mean_range[1], size=horizon)
        rewards = means + sigma * rng.standard_normal(horizon)
        failures += rebuild_violates(rewards, alpha, floor, first_round)
    rate = 1.0 / horizon
    empirical = failures / trials
    bound = rate + 3.0 * math.sqrt(rate * (1.0 - rate) / trials)
    return CheckReport(
        check="pool_variance_floor",
        params=f"n={horizon} z={z} alpha={alpha} sigma={sigma}",
        trials=trials, failures=failures, bound=bound, empirical=empirical,
        passed=empirical <= bound)


def assert_rounds_decided_like_rebuild(rewards, alpha, floor):
    """Every single round's decision equals the rebuilt pool's."""
    for t in range(2, rewards.size + 1):
        assert (_violates_floor(rewards[:t], alpha, floor, t)
                == (build_pool(rewards[: t - 1], alpha).variance() < floor)), t


finite_rewards = st.floats(min_value=-1e12, max_value=1e12,
                           allow_nan=False, allow_infinity=False)
alphas = st.floats(min_value=0.01, max_value=100.0)


class TestPrefixPoolVariances:
    @settings(deadline=None)
    @given(st.lists(finite_rewards, min_size=1, max_size=60), alphas)
    def test_within_margin_of_build_pool(self, rewards, alpha):
        rewards = np.array(rewards)
        fast, margin = _prefix_pool_variances(rewards, alpha)
        for k in range(1, rewards.size + 1):
            slow = build_pool(rewards[:k], alpha).variance()
            assert abs(fast[k - 1] - slow) <= margin[k - 1], k

    @settings(deadline=None)
    @given(finite_rewards, st.integers(1, 60), alphas)
    def test_constant_stream(self, value, size, alpha):
        rewards = np.full(size, value)
        fast, margin = _prefix_pool_variances(rewards, alpha)
        assert np.all(fast == 0.0)
        for k in range(1, size + 1):
            assert build_pool(rewards[:k], alpha).variance() <= margin[k - 1]

    @settings(deadline=None)
    @given(st.sampled_from([0.0, 1e8, -1e8, 3e11]),
           st.lists(st.integers(-64, 64), min_size=2, max_size=60), alphas)
    def test_large_offset_keeps_relative_accuracy(self, offset, steps, alpha):
        """Small noise on a large offset: squaring unshifted rewards would
        cancel catastrophically; the shifted sums stay accurate.  The rewards
        are exact in floating point, so the reference is exact too."""
        rewards = offset + np.array(steps) / 64.0
        fast, _ = _prefix_pool_variances(rewards, alpha)
        for k in range(1, rewards.size + 1):
            head = [Fraction(s, 64) for s in steps[:k]]
            mean = sum(head) / k
            exact = alpha * alpha * float(sum((h - mean) ** 2 for h in head) / k)
            assert fast[k - 1] == pytest.approx(exact, rel=1e-9, abs=1e-300)
            if abs(offset) <= 1e8:
                slow = build_pool(rewards[:k], alpha).variance()
                assert slow == pytest.approx(exact, rel=1e-9, abs=1e-300)


class TestFloorDecision:
    @pytest.mark.parametrize("alpha", [1.0, 0.6, 3.0])
    @pytest.mark.parametrize("a", [0.1, 0.3, 1.0, 7.0, 1e8])
    def test_alternating_stream_sits_on_the_floor(self, a, alpha):
        """Every even prefix of +a, -a, ... has variance a^2 exactly, so its
        pool variance equals the floor alpha^2 a^2 up to rounding."""
        rewards = a * (-1.0) ** np.arange(120)
        floor = alpha * alpha * a * a
        for f in (floor, np.nextafter(floor, 0.0), np.nextafter(floor, np.inf)):
            assert_rounds_decided_like_rebuild(rewards, alpha, f)
            for first_round in (2, 3, 60, 120):
                assert (_violates_floor(rewards, alpha, f, first_round)
                        == rebuild_violates(rewards, alpha, f, first_round))

    def test_floors_at_rebuilt_variances(self):
        """A floor equal to a rebuilt pool variance, or one ulp off it."""
        rng = np.random.default_rng(12)
        for _ in range(30):
            rewards = rng.normal(rng.uniform(-2, 2), rng.uniform(0.1, 2), 40)
            alpha = float(rng.uniform(0.2, 3.0))
            k = int(rng.integers(1, 40))
            floor = build_pool(rewards[:k], alpha).variance()
            for f in (floor, np.nextafter(floor, 0.0), np.nextafter(floor, np.inf)):
                assert_rounds_decided_like_rebuild(rewards, alpha, f)

    def test_random_streams_and_floors(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(2, 60))
            rewards = rng.normal(rng.uniform(-1, 1), rng.uniform(0.1, 1), n)
            alpha = float(rng.uniform(0.2, 3.0))
            first_round = int(rng.integers(2, n + 2))
            floor = float(rng.uniform(0.0, 2.0)) * alpha * alpha
            assert (_violates_floor(rewards, alpha, floor, first_round)
                    == rebuild_violates(rewards, alpha, floor, first_round))

    @pytest.mark.parametrize("config", [
        dict(horizon=200, z=0.6, trials=40),
        dict(horizon=4, z=0.01, trials=2000),
        dict(horizon=6, z=0.02, alpha=0.7, trials=2000, mean_range=(0.0, 0.0)),
        dict(horizon=12, z=0.05, sigma=2.0, trials=1000, mean_range=(0.0, 0.0)),
        dict(horizon=30, z=0.3, alpha=2.5, sigma=0.1, trials=200),
        dict(horizon=150, z=0.6, sigma=0.0, trials=20, mean_range=(0.5, 0.5)),
    ])
    def test_check_matches_rebuild_on_seeded_configs(self, config):
        for seed in range(3):
            got = check_variance_floor(rng=np.random.default_rng(seed), **config)
            want = reference_check_variance_floor(rng=np.random.default_rng(seed),
                                                  **config)
            assert got == want

    def test_some_seeded_config_fails(self):
        """The configurations above include genuine floor violations."""
        report = check_variance_floor(horizon=4, z=0.01, trials=2000,
                                      rng=np.random.default_rng(0))
        assert report.failures > 0

    def test_default_checks_match_rebuild(self, monkeypatch):
        got = default_checks(seed=0, pool_trials=100)
        monkeypatch.setattr(theory, "check_variance_floor",
                            reference_check_variance_floor)
        assert got == default_checks(seed=0, pool_trials=100)


class TestVarianceFloor:
    def test_threshold_formula(self):
        assert variance_floor_threshold(1000, 0.6) == pytest.approx(250.32, abs=0.01)

    def test_noiseless_constant_stream_never_fails(self):
        """sigma = 0 with constant means: pool variance and floor are both 0."""
        report = check_variance_floor(horizon=150, z=0.6, alpha=1.0, sigma=0.0,
                                      trials=50, rng=np.random.default_rng(0),
                                      mean_range=(0.5, 0.5))
        assert report.failures == 0
        assert report.passed

    def test_small_configuration_passes(self):
        report = check_variance_floor(horizon=200, z=0.6, alpha=1.0, sigma=0.5,
                                      trials=150, rng=np.random.default_rng(1))
        assert report.passed
        assert report.empirical == report.failures / report.trials

    def test_alpha_cancels(self):
        """Doubling alpha scales both sides by alpha^2: identical failures."""
        reports = [
            check_variance_floor(horizon=150, z=0.5, alpha=alpha, sigma=0.5,
                                 trials=100, rng=np.random.default_rng(2))
            for alpha in (1.0, 2.0)
        ]
        assert reports[0].failures == reports[1].failures
        assert reports[0].passed == reports[1].passed


class TestValueBound:
    def test_bound_formula(self):
        assert pool_value_bound(1000, 1.0, 0.5) == pytest.approx(6.2565, abs=1e-3)

    def test_bound_monotone_in_horizon(self):
        assert pool_value_bound(10_000, 1.0, 0.5) > pool_value_bound(1000, 1.0, 0.5)

    def test_noiseless_stream_stays_within_alpha(self):
        """sigma = 0: values are alpha * (mean - average) with means in [0, 1]."""
        report = check_value_bound(horizon=200, alpha=1.3, sigma=0.0, trials=80,
                                   rng=np.random.default_rng(3))
        assert report.failures == 0

    def test_small_configuration_passes(self):
        report = check_value_bound(horizon=300, alpha=1.0, sigma=0.5, trials=200,
                                   rng=np.random.default_rng(4))
        assert report.passed


class TestShiftedBall:
    def test_zero_shift_is_exactly_balanced(self):
        report = check_shifted_ball(np.eye(2), np.zeros(2), radius=1.0,
                                    trials=20_000, rng=np.random.default_rng(5))
        assert report.empirical == 0.0
        assert report.passed

    def test_scalar_reference_probabilities(self):
        """P(|Z| <= 1) = 0.6827 versus P(|Z + 2| <= 1) = 0.1573."""
        report = check_shifted_ball(np.eye(1), [2.0], radius=1.0,
                                    trials=200_000, rng=np.random.default_rng(6))
        assert report.empirical == pytest.approx(0.1573 - 0.6827, abs=0.01)
        assert report.passed

    def test_random_transform_and_shift(self):
        rng = np.random.default_rng(7)
        report = check_shifted_ball(rng.normal(size=(3, 3)), rng.normal(size=3),
                                    radius=1.5, trials=50_000, rng=rng)
        assert report.passed

    def test_minimum_trials_enforced(self):
        with pytest.raises(ValueError):
            check_shifted_ball(np.eye(1), [0.0], 1.0, trials=100)


class TestPosteriorMatch:
    def test_moments_after_three_fixed_rewards(self):
        mean, var = posterior_moments(0.5, 0.5, [1.0, 0.0, 1.0])
        assert mean == pytest.approx(0.625)
        assert var == pytest.approx(0.0625)

    def test_prior_only_moments(self):
        mean, var = posterior_moments(0.5, 0.5, [])
        assert (mean, var) == (0.5, 0.25)

    def test_fixed_history_passes(self):
        report = check_posterior_match(0.5, 0.5, 3, trials=50_000,
                                       rng=np.random.default_rng(8),
                                       rewards=[1.0, 0.0, 1.0])
        assert report.passed

    def test_degenerate_noise_collapses(self):
        report = check_posterior_match(0.5, 0.0, 2, trials=1000,
                                       rng=np.random.default_rng(9),
                                       rewards=[0.3, 0.4])
        assert report.passed
        assert report.empirical <= 1e-12

    def test_history_length_must_match(self):
        with pytest.raises(ValueError):
            check_posterior_match(0.5, 0.5, 3, trials=1000,
                                  rng=np.random.default_rng(0), rewards=[1.0])


class TestTailMass:
    def test_gaussian_direction_holds(self):
        report = check_tail_mass(std=1.0, inner=0.5, outer=3.0, trials=50_000,
                                 rng=np.random.default_rng(10))
        assert report.passed
        # P(|Z| > 0.5) is about 0.617; the bound must sit below it.
        assert report.empirical == pytest.approx(0.617, abs=0.01)
        assert report.bound < report.empirical

    def test_window_validation(self):
        with pytest.raises(ValueError):
            check_tail_mass(inner=2.0, outer=1.0)


class TestPoolCheckBound:
    @pytest.mark.parametrize("horizon, trials, expected", [
        (1, 3, 1.0),
        (1, 2000, 1.0),
        (2, 3, 0.5 + 3.0 * math.sqrt(0.25 / 3)),
        (2, 2000, 0.5 + 3.0 * math.sqrt(0.25 / 2000)),
    ])
    def test_claimed_rate_plus_three_standard_errors(self, horizon, trials,
                                                     expected):
        assert pool_check_bound(horizon, trials) == pytest.approx(expected,
                                                                  rel=1e-15)

    def test_both_pool_checks_report_it(self):
        rng = np.random.default_rng(5)
        for check in (check_variance_floor, check_value_bound):
            report = check(horizon=40, trials=30, rng=rng)
            assert report.bound == pool_check_bound(40, 30)


class TestReporting:
    def test_default_battery_and_csv(self, tmp_path):
        reports = default_checks(seed=3, horizon=150, pool_trials=60,
                                 mc_trials=10_000)
        assert [r.check for r in reports] == [
            "pool_variance_floor", "pool_value_bound", "shifted_gaussian_ball",
            "posterior_match", "tail_mass_floor"]
        assert all(r.passed for r in reports)
        path = tmp_path / "check_report.csv"
        write_check_report(reports, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "check,params,trials,failures,bound,empirical,pass"
        assert len(lines) == 6
        assert lines[1].startswith("pool_variance_floor,n=150 z=0.6")
