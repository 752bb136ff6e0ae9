"""Monte Carlo verification of the reward-pool guarantees.

Each pool check simulates many independent reward streams and counts how
often a claimed high-probability property of the production pool builder
fails.  A check passes when the empirical failure rate stays within the
claimed rate plus a three-standard-error binomial slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._rules import (all_finite, at_least, finite, nonnegative_finite,
                     positive_finite)
from .pool import build_pool, variance_floor_threshold


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one Monte Carlo check.

    ``empirical`` is the measured statistic the check compares against
    ``bound``; for failure-counting checks it is ``failures / trials``.
    """

    check: str
    params: str
    trials: int
    failures: int
    bound: float
    empirical: float
    passed: bool


MIN_MC_TRIALS = 10_000  # the fewest draws check_shifted_ball accepts
FLOOR_Z = 0.6  # the z of default_checks' variance-floor check
_MC_BLOCK = 8192  # the most rows a Monte Carlo check draws at a time
_EPS, _TINY = float(np.finfo(float).eps), float(np.finfo(float).tiny)


def pool_check_bound(horizon: int, trials: int) -> float:
    """A pool check's passing failure rate: the claimed ``1 / horizon`` plus
    three binomial standard errors.  At 1 or more the check cannot fail.

    Raises ``ValueError`` naming ``horizon`` or ``trials`` below 1.
    """
    at_least("horizon", horizon, 1)
    at_least("trials", trials, 1)
    rate = 1.0 / horizon
    return rate + 3.0 * math.sqrt(rate * (1.0 - rate) / trials)


def _blocks(trials: int):
    """Consecutive ``(start, stop)`` row ranges of at most ``_MC_BLOCK`` rows
    that cover ``0 .. trials``.

    The generator fills each draw one normal after another, so drawing the
    blocks in order consumes the stream exactly as one draw of every row.
    """
    for start in range(0, trials, _MC_BLOCK):
        yield start, min(start + _MC_BLOCK, trials)


def _prefix_moments(rewards: np.ndarray):
    """Prefix lengths ``k`` and the means of every prefix of the shifted
    rewards ``rewards - rewards[0]`` and of their squares."""
    k = np.arange(1.0, rewards.size + 1.0)
    shifted = rewards - rewards[0]
    # np.cumsum's sequential sums, without its wrapper code.
    return (k, np.add.accumulate(shifted) / k,
            np.add.accumulate(shifted * shifted) / k)


def _rounding_margin(scale, k, mean_sq, peak):
    """``8 (scale g (mean_sq + peak sqrt(mean_sq) + g peak^2) + (k + 4) tiny)``
    with ``g = (k + 4) eps``, elementwise.

    With ``scale = alpha^2`` and a prefix's length, mean squared shifted
    reward and largest ``|reward|``, it bounds the rounding error of the
    prefix's fast pool variance and ``build_pool`` value together, even when
    every sum runs sequentially.

    Each step adds, multiplies or takes the root of non-negative operands,
    and rounding to nearest keeps order, so raising any argument never lowers
    the computed margin.
    """
    grain = (k + 4.0) * _EPS
    return 8.0 * (scale * grain * (mean_sq + peak * np.sqrt(mean_sq)
                                   + grain * peak * peak)
                  + (k + 4.0) * _TINY)


def _largest_margin(scale, mean_sq: np.ndarray, rewards: np.ndarray):
    """At least every :func:`_rounding_margin` of the prefixes of ``rewards``
    whose mean squares are among ``mean_sq``: the margin at the largest
    prefix length, mean square and ``|reward|``.  ``inf`` when a reward is not
    finite or a rebuilt pool's sum of squares, at most ``8 n scale peak^2``,
    could overflow, which no margin would cover."""
    size, peak = float(rewards.size), float(np.abs(rewards).max())
    if not math.isfinite(16.0 * size * scale * peak * peak):
        return math.inf
    return _rounding_margin(scale, size, float(mean_sq.max()), peak)


def _violates_floor(rewards: np.ndarray, alpha: float, floor: float,
                    first_round: int) -> bool:
    """Whether ``build_pool(rewards[:t - 1], alpha).variance() < floor`` at
    some round ``t`` in ``first_round .. len(rewards)``.

    Takes the fast pool variance of every prefix, its ``build_pool`` value in
    exact arithmetic, from :func:`_prefix_moments`, whose shift removes a
    common offset before anything is squared.  Their gaps to the floor are
    decided on one bound, :func:`_largest_margin`, at least every checked
    round's own rounding margin: all gaps above it give ``False``, the lowest
    below minus it gives ``True``, and otherwise the rounds whose gap is not
    outside it, ``NaN`` included, rebuild the pool, so the answer is the one
    the per-round rebuild gives.
    """
    start = first_round - 1  # length of the shortest prefix checked
    if rewards.size - 1 < start:
        return False
    head = rewards[:-1]
    _, mean, mean_sq = _prefix_moments(head)
    mean, mean_sq = mean[start - 1:], mean_sq[start - 1:]
    scale = alpha * alpha
    gap = scale * (mean_sq - mean * mean) - floor
    bound = _largest_margin(scale, mean_sq, head)
    if (lowest := gap.min()) > bound:
        return False
    if lowest < -bound:
        return True
    return any(build_pool(rewards[:length], alpha).variance() < floor
               for length in np.flatnonzero(~(np.abs(gap) > bound)) + start)


def first_checked_round(horizon: int, z: float) -> int:
    """The first round :func:`check_variance_floor` checks: the one after the
    warm-up threshold.  Past ``horizon`` it checks none."""
    return math.floor(variance_floor_threshold(horizon, z)) + 1


def _pool_trials(horizon: int, trials: int, alpha: float, sigma: float,
                 mean_range, rng, first_round: int = 1):
    """A pool check's passing bound and an iterator over its ``trials``
    reward streams.  First raises ``ValueError`` naming the field of an input
    the check cannot test, such as a pair whose bound is 1 or more or a
    horizon that ends before ``first_round``, the first round it tests."""
    bound = pool_check_bound(horizon, trials)
    if bound >= 1.0:
        raise ValueError(f"horizon {horizon} with trials {trials} gives a "
                         f"passing bound of {bound:g}, so the check cannot fail")
    if first_round > horizon:
        raise ValueError(f"horizon {horizon} ends before round {first_round}, "
                         f"the first checked, so no round is checked")
    positive_finite("alpha", alpha)
    nonnegative_finite("sigma", sigma)
    ends = np.asarray(mean_range, dtype=float)
    if ends.shape != (2,) or not -math.inf < ends[0] <= ends[1] < math.inf:
        raise ValueError(f"mean_range must be two finite numbers, low <= high, "
                         f"got {mean_range}")
    low, high = ends.tolist()
    rng = rng if rng is not None else np.random.default_rng()
    # Each trial draws its means, then its noise.
    return bound, (rng.uniform(low, high, size=horizon)
                   + sigma * rng.standard_normal(horizon) for _ in range(trials))


def check_variance_floor(horizon: int = 1000, z: float = 0.6, alpha: float = 1.0,
                         sigma: float = 0.5, trials: int = 2000,
                         rng: np.random.Generator | None = None,
                         mean_range: tuple[float, float] = (0.0, 1.0)) -> CheckReport:
    """Pool variance stays above ``alpha^2 z sigma^2 / 2`` past the warm-up.

    Simulates Gaussian reward streams whose means vary inside ``mean_range``
    and counts a trial as failed if the pool built from the first ``t - 1``
    rewards falls below the floor at any round ``t`` past the warm-up
    threshold (joint counting).  The claimed failure rate is ``1 / horizon``.
    ``ValueError`` names the field of an input the check cannot test.

    Each trial takes the pool variance of all its prefixes from cumulative
    sums, O(horizon) per trial, and is decided on one bound on every round's
    rounding margin: it passes when all clear the floor by more than the
    bound, fails when one falls short of it by more than the bound, and
    otherwise rebuilds the pools of the rounds within the bound, so for any
    input the failure count is the one a pool rebuild at every round gives.
    """
    first_round = first_checked_round(horizon, z)
    bound, streams = _pool_trials(horizon, trials, alpha, sigma, mean_range,
                                  rng, first_round)
    floor = 0.5 * alpha * alpha * z * sigma * sigma
    failures = sum(_violates_floor(rewards, alpha, floor, first_round)
                   for rewards in streams)
    empirical = failures / trials
    return CheckReport(
        check="pool_variance_floor",
        params=f"n={horizon} z={z} alpha={alpha} sigma={sigma}",
        trials=trials, failures=failures, bound=bound, empirical=empirical,
        passed=empirical <= bound)


def pool_value_bound(horizon: int, alpha: float, sigma: float) -> float:
    """High-probability bound on pool magnitudes: ``alpha (4 sqrt(s^2 ln n) + 1)``."""
    return alpha * (4.0 * math.sqrt(sigma * sigma * math.log(horizon)) + 1.0)


def check_value_bound(horizon: int = 1000, alpha: float = 1.0, sigma: float = 0.5,
                      trials: int = 2000, rng: np.random.Generator | None = None,
                      mean_range: tuple[float, float] = (0.0, 1.0)) -> CheckReport:
    """All pool magnitudes stay below the claimed high-probability bound.

    Simulates a full reward stream with means inside ``mean_range``, builds
    the pool over the whole stream, and counts a trial as failed when any
    pool value exceeds the bound.  The claimed failure rate is ``1 / horizon``.
    """
    bound, streams = _pool_trials(horizon, trials, alpha, sigma, mean_range, rng)
    bound_value = pool_value_bound(horizon, alpha, sigma)
    failures = sum(float(np.abs(build_pool(rewards, alpha).values).max())
                   > bound_value for rewards in streams)
    empirical = failures / trials
    return CheckReport(
        check="pool_value_bound",
        params=f"n={horizon} alpha={alpha} sigma={sigma}",
        trials=trials, failures=failures, bound=bound, empirical=empirical,
        passed=empirical <= bound)


def check_shifted_ball(transform, shift, radius: float, trials: int = 100_000,
                       rng: np.random.Generator | None = None) -> CheckReport:
    """A centered Gaussian fills a ball at least as well as any shifted copy.

    Estimates ``P(||A Z||^2 <= r^2)`` and ``P(||A Z + v||^2 <= r^2)`` from the
    same draws and passes when the centered mass is not smaller than the
    shifted mass beyond three combined standard errors.  ``transform`` is a
    finite ``d x d`` matrix, ``shift`` a finite vector of length ``d`` and
    ``radius`` positive and finite; anything else raises ``ValueError``.

    The draws are made and counted in blocks of at most ``_MC_BLOCK`` rows,
    so memory does not grow with ``trials``; each row's arithmetic, and so
    the report, is the one a single draw of every row gives.
    """
    at_least("trials", trials, MIN_MC_TRIALS)
    transform = np.asarray(transform, dtype=float)
    shift = np.asarray(shift, dtype=float)
    if transform.ndim != 2 or transform.shape[0] != transform.shape[1]:
        raise ValueError(f"transform must be a square matrix, got shape "
                         f"{transform.shape}")
    dim = transform.shape[0]
    if shift.shape != (dim,):
        raise ValueError(f"shift must be a vector of length {dim}, got shape "
                         f"{shift.shape}")
    all_finite("transform", transform)
    all_finite("shift", shift)
    positive_finite("radius", radius)
    rng = rng if rng is not None else np.random.default_rng()
    r2 = radius * radius
    n_center = n_shifted = 0
    for start, stop in _blocks(trials):
        draws = rng.standard_normal((stop - start, dim)) @ transform.T
        n_center += int(np.count_nonzero(np.sum(draws * draws, axis=1) <= r2))
        shifted = draws + shift
        n_shifted += int(np.count_nonzero(
            np.sum(shifted * shifted, axis=1) <= r2))
    p_center = n_center / trials
    p_shifted = n_shifted / trials
    se = math.sqrt(p_center * (1.0 - p_center) / trials
                   + p_shifted * (1.0 - p_shifted) / trials)
    excess = p_shifted - p_center
    return CheckReport(
        check="shifted_gaussian_ball",
        params=f"d={dim} radius={radius}",
        trials=trials, failures=max(0, n_shifted - n_center),
        bound=3.0 * se, empirical=excess, passed=excess <= 3.0 * se)


def posterior_moments(prior_mean: float, sigma: float,
                      rewards) -> tuple[float, float]:
    """Gaussian posterior mean and variance after observing ``rewards``.

    The prior counts as one pseudo-observation: mean ``(prior + sum Y)/(s+1)``
    and variance ``sigma^2 / (s + 1)``.
    """
    rewards = np.asarray(rewards, dtype=float)
    count = rewards.size + 1
    return (float(prior_mean + rewards.sum()) / count, sigma * sigma / count)


def check_posterior_match(prior_mean: float = 0.5, sigma: float = 0.5,
                          pulls: int = 3, trials: int = 100_000,
                          rng: np.random.Generator | None = None,
                          rewards=None) -> CheckReport:
    """Perturb-and-average sampling matches the Gaussian posterior moments.

    Conditioned on a fixed reward history, averaging the prior mean and every
    reward after adding i.i.d. ``N(0, sigma^2)`` noise to each must reproduce
    the posterior ``N((prior + sum Y) / (s + 1), sigma^2 / (s + 1))``.  Both
    empirical moments must land within four standard errors of the targets.
    A NaN or infinite input, which no moment would match, raises
    ``ValueError``, as do ``pulls < 0`` and ``trials < 2``.

    The noise is drawn in blocks of at most ``_MC_BLOCK`` rows into one
    vector of ``trials`` samples, whose mean and variance are the ones a
    single draw of every row gives, bit for bit.
    """
    at_least("trials", trials, 2)
    at_least("pulls", pulls, 0)
    finite("prior_mean", prior_mean)
    nonnegative_finite("sigma", sigma)
    rng = rng if rng is not None else np.random.default_rng()
    if rewards is None:
        rewards = rng.normal(prior_mean, sigma, size=pulls)
    rewards = np.asarray(rewards, dtype=float)
    if rewards.size != pulls:
        raise ValueError("reward history length must equal the pull count")
    all_finite("rewards", rewards)
    target_mean, target_var = posterior_moments(prior_mean, sigma, rewards)

    offset = prior_mean + rewards.sum()
    samples = np.empty(trials)
    for start, stop in _blocks(trials):
        noise = rng.normal(0.0, sigma, size=(stop - start, pulls + 1))
        samples[start:stop] = (offset + noise.sum(axis=1)) / (pulls + 1)
    emp_mean = float(samples.mean())
    emp_var = float(samples.var(ddof=1))

    if sigma == 0.0:
        tol = 1e-12 * max(1.0, abs(target_mean))
        deviation = abs(emp_mean - target_mean) + abs(emp_var - target_var)
        return CheckReport(
            check="posterior_match",
            params=f"prior={prior_mean} sigma={sigma} pulls={pulls}",
            trials=trials, failures=int(deviation > tol), bound=tol,
            empirical=deviation, passed=deviation <= tol)

    se_mean = math.sqrt(target_var / trials)
    se_var = target_var * math.sqrt(2.0 / (trials - 1))
    dev_mean = abs(emp_mean - target_mean) / se_mean
    dev_var = abs(emp_var - target_var) / se_var
    failures = int(dev_mean > 4.0) + int(dev_var > 4.0)
    return CheckReport(
        check="posterior_match",
        params=f"prior={prior_mean} sigma={sigma} pulls={pulls}",
        trials=trials, failures=failures, bound=4.0,
        empirical=float(max(dev_mean, dev_var)), passed=failures == 0)


def check_tail_mass(std: float = 1.0, inner: float = 0.5, outer: float = 3.0,
                    trials: int = 100_000,
                    rng: np.random.Generator | None = None) -> CheckReport:
    """Centered Gaussian tail mass beats the sub-Gaussian lower bound.

    For zero-mean ``X`` with variance ``std^2`` (its own sub-Gaussian
    parameter) and ``0 < inner < outer``, the claimed direction is

        P(|X| > inner) > (var - inner^2 - 4 var exp(-outer^2 / (2 var))) / outer^2.

    The constants are loose by construction, so only the inequality direction
    is asserted (with three standard errors of slack).  ``std`` must be
    positive and finite, ``outer`` finite and ``trials`` at least 1.  The
    draws are made and counted in blocks of at most ``_MC_BLOCK`` draws.
    """
    positive_finite("std", std)
    if not 0.0 < inner < outer < math.inf:
        raise ValueError(f"inner and outer must satisfy 0 < inner < outer < inf, "
                         f"got inner={inner}, outer={outer}")
    at_least("trials", trials, 1)
    rng = rng if rng is not None else np.random.default_rng()
    var = std * std
    hits = 0
    for start, stop in _blocks(trials):
        draws = rng.normal(0.0, std, size=stop - start)
        hits += int(np.count_nonzero(np.abs(draws) > inner))
    p_tail = hits / trials
    lower = (var - inner * inner
             - 4.0 * var * math.exp(-outer * outer / (2.0 * var))) / (outer * outer)
    se = math.sqrt(max(p_tail * (1.0 - p_tail), 1e-12) / trials)
    return CheckReport(
        check="tail_mass_floor",
        params=f"std={std} inner={inner} outer={outer}",
        trials=trials, failures=int(p_tail < lower - 3.0 * se), bound=lower,
        empirical=p_tail, passed=p_tail >= lower - 3.0 * se)


def validate_battery(seed: int, horizon: int, pool_trials: int,
                     mc_trials: int) -> None:
    """Raise ``ValueError`` naming the field of a :func:`default_checks`
    input that one of its checks would refuse, before any check runs."""
    at_least("seed", seed, 0)
    at_least("mc_trials", mc_trials, MIN_MC_TRIALS)
    # The floor check's rules, at default_checks' alpha and sigma, include
    # the value-bound check's.
    _pool_trials(horizon, pool_trials, 1.0, 0.5, (0.0, 1.0), None,
                 first_checked_round(horizon, FLOOR_Z))


def default_checks(seed: int = 0, horizon: int = 1000, pool_trials: int = 2000,
                   mc_trials: int = 100_000) -> list[CheckReport]:
    """Run the full check battery with the benchmark's default parameters,
    after :func:`validate_battery`."""
    validate_battery(seed, horizon, pool_trials, mc_trials)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    transform = rng.normal(size=(3, 3))
    shift = rng.normal(size=3)
    return [
        check_variance_floor(horizon=horizon, z=FLOOR_Z, alpha=1.0, sigma=0.5,
                             trials=pool_trials, rng=rng),
        check_value_bound(horizon=horizon, alpha=1.0, sigma=0.5,
                          trials=pool_trials, rng=rng),
        check_shifted_ball(transform, shift, radius=1.5, trials=mc_trials, rng=rng),
        check_posterior_match(prior_mean=0.5, sigma=0.5, pulls=3,
                              trials=mc_trials, rng=rng),
        check_tail_mass(std=1.0, inner=0.5, outer=3.0, trials=mc_trials, rng=rng),
    ]


def write_check_report(reports: list[CheckReport], path) -> None:
    """Write one CSV row per check: check,params,trials,failures,bound,empirical,pass."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["check,params,trials,failures,bound,empirical,pass"]
    for rep in reports:
        lines.append(f"{rep.check},{rep.params},{rep.trials},{rep.failures},"
                     f"{rep.bound!r},{rep.empirical!r},{rep.passed}")
    path.write_text("\n".join(lines) + "\n")
