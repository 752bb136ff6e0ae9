"""Monte Carlo checks of the pool guarantees on small, fast configurations."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditpool import theory
from banditpool.agents import init_length
from banditpool.pool import build_pool
from banditpool.theory import (
    MIN_MC_TRIALS,
    CheckReport,
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


def reference_check_value_bound(horizon: int = 1000, alpha: float = 1.0,
                                sigma: float = 0.5, trials: int = 2000,
                                rng=None, mean_range=(0.0, 1.0)) -> CheckReport:
    """The value-bound check as a loop that draws each trial's stream itself,
    the definition the shared trial iterator must reproduce exactly."""
    rng = rng if rng is not None else np.random.default_rng()
    bound_value = pool_value_bound(horizon, alpha, sigma)
    failures = 0
    for _ in range(trials):
        means = rng.uniform(mean_range[0], mean_range[1], size=horizon)
        rewards = means + sigma * rng.standard_normal(horizon)
        pool = build_pool(rewards, alpha)
        if float(np.abs(pool.values).max()) > bound_value:
            failures += 1
    empirical = failures / trials
    bound = pool_check_bound(horizon, trials)
    return CheckReport(
        check="pool_value_bound",
        params=f"n={horizon} alpha={alpha} sigma={sigma}",
        trials=trials, failures=failures, bound=bound, empirical=empirical,
        passed=empirical <= bound)


def reference_check_shifted_ball(transform, shift, radius, trials,
                                 rng) -> CheckReport:
    """The shifted-ball check with every draw held in one array, which the
    blocked check must reproduce exactly."""
    transform = np.asarray(transform, dtype=float)
    shift = np.asarray(shift, dtype=float)
    dim = transform.shape[0]
    draws = rng.standard_normal((trials, dim)) @ transform.T
    r2 = radius * radius
    in_center = np.sum(draws * draws, axis=1) <= r2
    shifted = draws + shift
    in_shifted = np.sum(shifted * shifted, axis=1) <= r2
    p_center = float(in_center.mean())
    p_shifted = float(in_shifted.mean())
    se = math.sqrt(p_center * (1.0 - p_center) / trials
                   + p_shifted * (1.0 - p_shifted) / trials)
    excess = p_shifted - p_center
    return CheckReport(
        check="shifted_gaussian_ball",
        params=f"d={dim} radius={radius}",
        trials=trials, failures=max(0, int(in_shifted.sum() - in_center.sum())),
        bound=3.0 * se, empirical=excess, passed=excess <= 3.0 * se)


def reference_check_posterior_match(prior_mean, sigma, pulls, trials,
                                    rng) -> CheckReport:
    """The posterior-match check with all of its noise in one array, which
    the blocked check must reproduce exactly."""
    rewards = rng.normal(prior_mean, sigma, size=pulls)
    target_mean, target_var = posterior_moments(prior_mean, sigma, rewards)
    noise = rng.normal(0.0, sigma, size=(trials, pulls + 1))
    samples = (prior_mean + rewards.sum() + noise.sum(axis=1)) / (pulls + 1)
    emp_mean = float(samples.mean())
    emp_var = float(samples.var(ddof=1))
    params = f"prior={prior_mean} sigma={sigma} pulls={pulls}"
    if sigma == 0.0:
        tol = 1e-12 * max(1.0, abs(target_mean))
        deviation = abs(emp_mean - target_mean) + abs(emp_var - target_var)
        return CheckReport(
            check="posterior_match", params=params, trials=trials,
            failures=int(deviation > tol), bound=tol, empirical=deviation,
            passed=deviation <= tol)
    se_mean = math.sqrt(target_var / trials)
    se_var = target_var * math.sqrt(2.0 / (trials - 1))
    dev_mean = abs(emp_mean - target_mean) / se_mean
    dev_var = abs(emp_var - target_var) / se_var
    failures = int(dev_mean > 4.0) + int(dev_var > 4.0)
    return CheckReport(
        check="posterior_match", params=params, trials=trials,
        failures=failures, bound=4.0,
        empirical=float(max(dev_mean, dev_var)), passed=failures == 0)


def reference_check_tail_mass(std, inner, outer, trials, rng) -> CheckReport:
    """The tail-mass check with every draw held in one array, which the
    blocked check must reproduce exactly."""
    var = std * std
    draws = rng.normal(0.0, std, size=trials)
    p_tail = float((np.abs(draws) > inner).mean())
    lower = (var - inner * inner
             - 4.0 * var * math.exp(-outer * outer / (2.0 * var))) / (outer * outer)
    se = math.sqrt(max(p_tail * (1.0 - p_tail), 1e-12) / trials)
    return CheckReport(
        check="tail_mass_floor",
        params=f"std={std} inner={inner} outer={outer}",
        trials=trials, failures=int(p_tail < lower - 3.0 * se), bound=lower,
        empirical=p_tail, passed=p_tail >= lower - 3.0 * se)


class NoDraws:
    """An ``rng`` stand-in that fails the test on any draw."""

    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} called before the input was refused")


def assert_rounds_decided_like_rebuild(rewards, alpha, floor):
    """Every single round's decision equals the rebuilt pool's."""
    for t in range(2, rewards.size + 1):
        assert (_violates_floor(rewards[:t], alpha, floor, t)
                == (build_pool(rewards[: t - 1], alpha).variance() < floor)), t


finite_rewards = st.floats(min_value=-1e12, max_value=1e12,
                           allow_nan=False, allow_infinity=False)
alphas = st.floats(min_value=0.01, max_value=100.0)


def _prefix_pool_variances(rewards, alpha):
    """Pool variance of every prefix of ``rewards``, with each prefix's own
    rounding margin, from ``theory._prefix_moments`` and
    ``theory._rounding_margin``: the per-round margins that the one bound
    of ``theory._violates_floor`` must cover.

    Entry ``k - 1`` of the first array is ``alpha^2`` times the population
    variance of ``rewards[:k]``, from cumulative sums of the rewards and of
    their squares after shifting every reward by ``rewards[0]``.  Entry
    ``k - 1`` of the second is ``theory._rounding_margin`` at the prefix's
    length, mean squared shifted reward and largest ``|reward|``.
    """
    k, mean, mean_sq = theory._prefix_moments(rewards)
    scale = alpha * alpha
    peak = np.maximum.accumulate(np.abs(rewards))
    return (scale * (mean_sq - mean * mean),
            theory._rounding_margin(scale, k, mean_sq, peak))


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
        cancel catastrophically; the shifted sums stay accurate, and so does
        ``build_pool``, which centres on the shifted mean.  The rewards are
        exact in floating point, so the reference is exact too."""
        rewards = offset + np.array(steps) / 64.0
        fast, _ = _prefix_pool_variances(rewards, alpha)
        for k in range(1, rewards.size + 1):
            head = [Fraction(s, 64) for s in steps[:k]]
            mean = sum(head) / k
            exact = alpha * alpha * float(sum((h - mean) ** 2 for h in head) / k)
            assert fast[k - 1] == pytest.approx(exact, rel=1e-9, abs=1e-300)
            slow = build_pool(rewards[:k], alpha).variance()
            assert slow == pytest.approx(exact, rel=1e-9, abs=1e-300)

    @settings(deadline=None)
    @given(st.lists(finite_rewards, min_size=1, max_size=60), alphas, st.data())
    def test_largest_margin_bounds_every_checked_margin(self, rewards, alpha,
                                                        data):
        """The screen's one bound is at least every per-round margin from the
        first checked prefix on."""
        rewards = np.array(rewards)
        start = data.draw(st.integers(1, rewards.size))
        _, margin = _prefix_pool_variances(rewards, alpha)
        _, _, mean_sq = theory._prefix_moments(rewards)
        bound = theory._largest_margin(alpha * alpha, mean_sq[start - 1:],
                                       rewards)
        assert np.all(margin[start - 1:] <= bound)


class TestFloorScreen:
    """The screen decides streams far from the floor on one bound and
    rebuilds the pool only at the rounds whose gap to the floor lies within
    that bound."""

    @staticmethod
    def count_calls(monkeypatch, name):
        calls = []
        original = getattr(theory, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(theory, name, counted)
        return calls

    def test_stream_far_above_the_floor_takes_no_per_round_margin(
            self, monkeypatch):
        margins = self.count_calls(monkeypatch, "_rounding_margin")
        rewards = np.random.default_rng(14).normal(0.5, 0.5, 1000)
        assert not _violates_floor(rewards, 1.0, 0.075, 251)
        assert len(margins) == 1  # the screen's bound, a scalar
        assert np.ndim(margins[0][1]) == 0

    @pytest.mark.parametrize("toward", [None, -math.inf, math.inf])
    @pytest.mark.parametrize("a", [0.3, 1e8])
    def test_stream_on_the_floor_takes_the_exact_path(self, monkeypatch, a,
                                                      toward):
        """The 120 rewards before the last round are +a, -a, ..., whose pool
        variance is a^2 exactly: a floor on it, or one ulp off, is decided
        by a rebuild."""
        builds = self.count_calls(monkeypatch, "build_pool")
        rewards = a * (-1.0) ** np.arange(121)
        floor = a * a if toward is None else np.nextafter(a * a, toward)
        assert (_violates_floor(rewards, 1.0, floor, 121)
                == rebuild_violates(rewards, 1.0, floor, 121))
        assert len(builds) == 1


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

    @settings(deadline=None, max_examples=500)
    @given(st.lists(st.floats(min_value=-1e160, max_value=1e160), min_size=2,
                    max_size=40), alphas, st.data())
    def test_decision_equals_rebuild_at_every_round(self, rewards, alpha, data):
        """Rewards up to 1e160, whose prefix squares overflow and make the
        screen's bound infinite, and a floor at a rebuilt pool variance, one
        ulp either side of it, or at random."""
        rewards = np.array(rewards)
        first_round = data.draw(st.integers(2, rewards.size + 1))
        k = data.draw(st.integers(1, rewards.size - 1))
        with np.errstate(all="ignore"):
            rebuilt = build_pool(rewards[:k], alpha).variance()
            floor = data.draw(st.sampled_from(
                [rebuilt, np.nextafter(rebuilt, 0.0),
                 np.nextafter(rebuilt, np.inf)]) | st.floats(min_value=0.0))
            assert (_violates_floor(rewards, alpha, floor, first_round)
                    == rebuild_violates(rewards, alpha, floor, first_round))

    def test_rebuild_that_overflows_decides_the_round(self):
        """At alpha 2 the pool of +-5e153 has a sum of squares past the
        largest float, so its rebuilt variance is inf, while the prefix sums
        and their rounding margin stay finite: the rebuild decides."""
        rewards = np.array([5e153, -5e153, 0.0])
        with np.errstate(over="ignore"):
            assert build_pool(rewards[:2], 2.0).variance() == math.inf
            for floor in (1.5e308, math.inf):
                assert not _violates_floor(rewards, 2.0, floor, 3)

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
        dict(horizon=191, z=0.6, sigma=0.0, trials=20, mean_range=(0.5, 0.5)),
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

    def test_shortest_checked_horizon(self):
        """At z = 0.6 the warm-up outlasts every horizon up to 190."""
        assert theory.first_checked_round(190, 0.6) == 191
        assert theory.first_checked_round(191, 0.6) == 191

    @pytest.mark.parametrize("kwargs, field", [
        (dict(horizon=190), "horizon 190 ends before round 191"),
        (dict(horizon=150), "horizon 150 ends before round 182"),
        (dict(horizon=0), "horizon must be >= 1, got 0"),
        (dict(horizon=-3), "horizon must be >= 1, got -3"),
        (dict(trials=0), "trials must be >= 1, got 0"),
        (dict(horizon=1, trials=3), "horizon 1 with trials 3 gives a passing"),
        (dict(sigma=math.nan), "sigma must be >= 0 and finite, got nan"),
        (dict(sigma=math.inf), "sigma must be >= 0 and finite, got inf"),
        (dict(sigma=-0.5), "sigma must be >= 0 and finite, got -0.5"),
        (dict(alpha=math.nan), "alpha must be positive and finite, got nan"),
        (dict(alpha=0.0), "alpha must be positive and finite, got 0.0"),
        (dict(mean_range=(math.nan, 1.0)), "mean_range must be two finite"),
        (dict(mean_range=(1.0, 0.0)), "mean_range must be two finite"),
        (dict(mean_range=(0.0, math.inf)), "mean_range must be two finite"),
        (dict(mean_range=(0.0, 0.5, 1.0)), "mean_range must be two finite"),
        (dict(z=0.0), "z must lie strictly inside"),
        (dict(z=1.0), "z must lie strictly inside"),
        (dict(z=1.5), "z must lie strictly inside"),
    ])
    def test_rejects_runs_that_check_nothing(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field}"):
            check_variance_floor(rng=NoDraws(), **kwargs)

    @pytest.mark.parametrize("z", [0.0, 1.0, 1.5, math.nan])
    def test_threshold_owns_the_rule_on_z(self, z):
        """The warm-up threshold names z, and init_length passes it on."""
        message = r"^z must lie strictly inside \(0, 1\), got "
        with pytest.raises(ValueError, match=message):
            variance_floor_threshold(100, z)
        with pytest.raises(ValueError, match=message):
            init_length(100, z, 3)

    def test_noiseless_constant_stream_never_fails(self):
        """sigma = 0 with constant means: pool variance and floor are both 0."""
        report = check_variance_floor(horizon=191, z=0.6, alpha=1.0, sigma=0.0,
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

    @pytest.mark.parametrize("kwargs, field", [
        (dict(horizon=0), "horizon must be >= 1, got 0"),
        (dict(trials=0), "trials must be >= 1, got 0"),
        (dict(trials=-1), "trials must be >= 1, got -1"),
        (dict(horizon=1, trials=5), "horizon 1 with trials 5 gives a passing "
                                    "bound of 1, so the check cannot fail"),
        (dict(horizon=2, trials=3), "horizon 2 with trials 3 gives a passing "
                                    "bound of 1.36603, so the check cannot fail"),
        (dict(horizon=10, trials=1), "horizon 10 with trials 1 gives a passing "
                                     "bound of 1, so the check cannot fail"),
        (dict(sigma=math.nan), "sigma must be >= 0 and finite, got nan"),
        (dict(alpha=-1.0), "alpha must be positive and finite, got -1.0"),
    ])
    def test_rejects_empty_runs(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field}$"):
            check_value_bound(rng=NoDraws(), **kwargs)

    @pytest.mark.parametrize("mean_range", [(math.nan, 1.0), (1.0, 0.0)])
    def test_rejects_mean_ranges_it_cannot_draw(self, mean_range):
        with pytest.raises(ValueError, match="^mean_range must be two finite"):
            check_value_bound(rng=NoDraws(), mean_range=mean_range)

    @pytest.mark.parametrize("config", [
        dict(horizon=300, trials=50),
        dict(horizon=12, alpha=0.7, sigma=2.0, trials=400),
        dict(horizon=40, alpha=2.5, sigma=0.0, trials=60, mean_range=(0.2, 0.2)),
        dict(horizon=25, sigma=0.05, trials=200, mean_range=(-3, 4)),
    ])
    def test_check_matches_reference_on_seeded_configs(self, config):
        for seed in range(3):
            got = check_value_bound(rng=np.random.default_rng(seed), **config)
            want = reference_check_value_bound(rng=np.random.default_rng(seed),
                                               **config)
            assert got == want

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

    @pytest.mark.parametrize("transform, shift, radius, field", [
        (np.eye(2), [0.0, 0.0], -1.0, "radius"),
        (np.eye(2), [0.0, 0.0], 0.0, "radius"),
        (np.eye(2), [0.0, 0.0], math.inf, "radius"),
        (np.eye(2), [0.0, 0.0], math.nan, "radius"),
        ([[math.nan]], [0.0], 1.0, "transform"),
        (np.eye(1), [math.inf], 1.0, "shift"),
        (np.eye(2), 3.0, 1.0, "shift"),
        (np.eye(2), [1.0, 2.0, 3.0], 1.0, "shift"),
        (np.ones((2, 3)), [1.0, 2.0], 1.0, "transform"),
        ([1.0, 2.0], [1.0, 2.0], 1.0, "transform"),
        (2.0, [1.0], 1.0, "transform"),
    ])
    def test_rejects_inputs_that_pass_vacuously_or_break(self, transform,
                                                         shift, radius, field):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            check_shifted_ball(transform, shift, radius, trials=MIN_MC_TRIALS,
                               rng=np.random.default_rng(0))


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

    @pytest.mark.parametrize("kwargs, field", [
        (dict(trials=1), "trials"),
        (dict(trials=0), "trials"),
        (dict(pulls=-1), "pulls"),
        (dict(prior_mean=math.nan), "prior_mean"),
        (dict(sigma=math.nan), "sigma"),
        (dict(sigma=math.inf), "sigma"),
        (dict(sigma=-0.5), "sigma"),
        (dict(rewards=[math.nan, 0.0, 1.0]), "rewards"),
    ])
    def test_rejects_inputs_that_pass_vacuously_or_break(self, kwargs, field):
        args = dict(prior_mean=0.5, sigma=0.5, pulls=3, trials=1000) | kwargs
        with pytest.raises(ValueError, match=f"^{field} must be"):
            check_posterior_match(rng=np.random.default_rng(0), **args)

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

    @pytest.mark.parametrize("kwargs, field", [
        (dict(std=0.0), "std"),
        (dict(std=-1.0), "std"),
        (dict(std=math.nan), "std"),
        (dict(std=math.inf), "std"),
        (dict(trials=0), "trials"),
        (dict(outer=math.inf), "inner and outer"),
        (dict(inner=math.nan), "inner and outer"),
    ])
    def test_rejects_inputs_that_pass_vacuously_or_break(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} must"):
            check_tail_mass(rng=np.random.default_rng(0), **kwargs)


MC_BLOCK = theory._MC_BLOCK
# Trial counts on each side of a block edge.  check_shifted_ball refuses
# fewer than MIN_MC_TRIALS draws, so its edges sit one block further on.
MC_TRIALS = [MIN_MC_TRIALS, MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1,
             3 * MC_BLOCK + 7, 100_000]
BALL_TRIALS = [MIN_MC_TRIALS, 2 * MC_BLOCK - 1, 2 * MC_BLOCK,
               2 * MC_BLOCK + 1, 3 * MC_BLOCK + 7, 100_000]


class TestBlockedDraws:
    """Each Monte Carlo check, drawing and counting in blocks of
    ``_MC_BLOCK`` rows, reports exactly what one draw of every row gives and
    leaves the generator in the same state."""

    @staticmethod
    def assert_same_as_reference(check, reference, seed, *args):
        rng, ref_rng = (np.random.default_rng(seed) for _ in range(2))
        assert check(*args, rng=rng) == reference(*args, rng=ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("trials", BALL_TRIALS)
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_shifted_ball(self, dim, trials):
        rng = np.random.default_rng(dim)
        transform, shift = rng.normal(size=(dim, dim)), rng.normal(size=dim)
        self.assert_same_as_reference(
            check_shifted_ball, reference_check_shifted_ball, trials,
            transform, shift, 1.5, trials)

    @pytest.mark.parametrize("trials", MC_TRIALS)
    @pytest.mark.parametrize("pulls", [0, 5])
    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_posterior_match(self, sigma, pulls, trials):
        self.assert_same_as_reference(
            check_posterior_match, reference_check_posterior_match, trials,
            0.5, sigma, pulls, trials)

    @pytest.mark.parametrize("trials", MC_TRIALS)
    def test_tail_mass(self, trials):
        self.assert_same_as_reference(
            check_tail_mass, reference_check_tail_mass, trials,
            1.0, 0.5, 3.0, trials)


def traced_peak(check, *args) -> int:
    """Peak bytes that ``tracemalloc``, which sees numpy's buffers, traces
    while ``check`` runs."""
    tracemalloc.start()
    try:
        check(*args, rng=np.random.default_rng(0))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockedMemory:
    """A Monte Carlo check's memory does not grow with its trials, beyond
    the posterior check's one vector of samples and ``var``'s temporary."""

    TRIALS = 1_000_000
    SLACK = 2 * 2**20

    def test_shifted_ball(self):
        rng = np.random.default_rng(1)
        assert traced_peak(check_shifted_ball, rng.normal(size=(3, 3)),
                           rng.normal(size=3), 1.5, self.TRIALS) < self.SLACK

    def test_tail_mass(self):
        assert traced_peak(check_tail_mass, 1.0, 0.5, 3.0,
                           self.TRIALS) < self.SLACK

    def test_posterior_match(self):
        assert (traced_peak(check_posterior_match, 0.5, 0.5, 3, self.TRIALS)
                < 16 * self.TRIALS + self.SLACK)


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
            report = check(horizon=191, trials=30, rng=rng)
            assert report.bound == pool_check_bound(191, 30)


class TestReporting:
    @pytest.mark.parametrize("kwargs, message", [
        (dict(seed=-1), "seed must be >= 0, got -1"),
        (dict(mc_trials=MIN_MC_TRIALS - 1), "mc_trials must be >= 10000, got 9999"),
        (dict(horizon=150), "horizon 150 ends before round 182"),
        (dict(pool_trials=0), "trials must be >= 1, got 0"),
    ])
    def test_battery_refuses_before_any_check(self, monkeypatch, kwargs,
                                              message):
        def entered(**_):
            raise AssertionError("check_variance_floor ran")

        monkeypatch.setattr(theory, "check_variance_floor", entered)
        with pytest.raises(ValueError, match=f"^{message}"):
            default_checks(**kwargs)
        with pytest.raises(ValueError, match=f"^{message}"):
            theory.validate_battery(**(dict(seed=0, horizon=1000,
                                            pool_trials=2000,
                                            mc_trials=100_000) | kwargs))

    def test_default_battery_and_csv(self, tmp_path):
        reports = default_checks(seed=3, horizon=191, pool_trials=60,
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
        assert lines[1].startswith("pool_variance_floor,n=191 z=0.6")
