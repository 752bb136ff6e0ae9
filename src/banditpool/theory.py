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


def pool_check_bound(horizon: int, trials: int) -> float:
    """A pool check's passing failure rate: the claimed ``1 / horizon`` plus
    three binomial standard errors.  At 1 or more the check cannot fail."""
    rate = 1.0 / horizon
    return rate + 3.0 * math.sqrt(rate * (1.0 - rate) / trials)


def _prefix_pool_variances(rewards: np.ndarray,
                           alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Pool variance of every prefix of ``rewards``, with a rounding margin.

    Entry ``k - 1`` of the first array is ``alpha^2`` times the population
    variance of ``rewards[:k]``, the value ``build_pool(rewards[:k],
    alpha).variance()`` takes in exact arithmetic.  It comes from cumulative
    sums of the rewards and of their squares after shifting every reward by
    ``rewards[0]``, which removes a common offset before anything is squared.

    Entry ``k - 1`` of the second array is a rounding margin: eight times
    ``alpha^2 g (M2 + R sqrt(M2) + g R^2)``, with ``g = (k + 4) eps``, ``M2``
    the mean squared shifted reward and ``R`` the largest ``|reward|`` of the
    prefix, plus an allowance for underflow.  It bounds the rounding error of
    this value and of the ``build_pool`` value together, even when every sum
    runs sequentially, so a floor lying outside the margin compares the same
    way against both.
    """
    k = np.arange(1.0, rewards.size + 1.0)
    shifted = rewards - rewards[0]
    mean = np.cumsum(shifted) / k
    mean_sq = np.cumsum(shifted * shifted) / k
    scale = alpha * alpha
    variances = scale * (mean_sq - mean * mean)
    peak = np.maximum.accumulate(np.abs(rewards))
    grain = (k + 4.0) * np.finfo(float).eps
    margin = 8.0 * (scale * grain * (mean_sq + peak * np.sqrt(mean_sq)
                                     + grain * peak * peak)
                    + (k + 4.0) * np.finfo(float).tiny)
    return variances, margin


def _violates_floor(rewards: np.ndarray, alpha: float, floor: float,
                    first_round: int) -> bool:
    """Whether ``build_pool(rewards[:t - 1], alpha).variance() < floor`` at
    some round ``t`` in ``first_round .. len(rewards)``.

    Decides every round from :func:`_prefix_pool_variances` in one pass and
    rebuilds the pool only at rounds whose fast variance lies within the
    rounding margin of the floor, so the answer is the one the per-round
    rebuild gives.
    """
    start = first_round - 1  # length of the shortest prefix checked
    if rewards.size - 1 < start:
        return False
    variances, margin = _prefix_pool_variances(rewards[:-1], alpha)
    gap = variances[start - 1:] - floor
    near = np.abs(gap) <= margin[start - 1:]
    if bool(np.any(gap[~near] < 0.0)):
        return True
    return any(build_pool(rewards[:length], alpha).variance() < floor
               for length in np.flatnonzero(near) + start)


def check_variance_floor(horizon: int = 1000, z: float = 0.6, alpha: float = 1.0,
                         sigma: float = 0.5, trials: int = 2000,
                         rng: np.random.Generator | None = None,
                         mean_range: tuple[float, float] = (0.0, 1.0)) -> CheckReport:
    """Pool variance stays above ``alpha^2 z sigma^2 / 2`` past the warm-up.

    Simulates Gaussian reward streams whose means vary inside ``mean_range``
    and counts a trial as failed if the pool built from the first ``t - 1``
    rewards falls below the floor at any round ``t`` past the warm-up
    threshold (joint counting).  The claimed failure rate is ``1 / horizon``.

    Each trial takes the pool variance of all its prefixes from cumulative
    sums, O(horizon) per trial.  A round whose value lies within the rounding
    margin of the floor is re-decided by building that pool, so the failure
    count equals the one a pool rebuild at every round gives, for any input.
    """
    rng = rng if rng is not None else np.random.default_rng()
    floor = 0.5 * alpha * alpha * z * sigma * sigma
    first_round = math.floor(variance_floor_threshold(horizon, z)) + 1
    failures = 0
    for _ in range(trials):
        means = rng.uniform(mean_range[0], mean_range[1], size=horizon)
        rewards = means + sigma * rng.standard_normal(horizon)
        failures += _violates_floor(rewards, alpha, floor, first_round)
    empirical = failures / trials
    bound = pool_check_bound(horizon, trials)
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

    Simulates a full reward stream with means inside [0, 1], builds the pool
    over the whole stream, and counts a trial as failed when any pool value
    exceeds the bound.  The claimed failure rate is ``1 / horizon``.
    """
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


def check_shifted_ball(transform, shift, radius: float, trials: int = 100_000,
                       rng: np.random.Generator | None = None) -> CheckReport:
    """A centered Gaussian fills a ball at least as well as any shifted copy.

    Estimates ``P(||A Z||^2 <= r^2)`` and ``P(||A Z + v||^2 <= r^2)`` from the
    same draws and passes when the centered mass is not smaller than the
    shifted mass beyond three combined standard errors.
    """
    if trials < MIN_MC_TRIALS:
        raise ValueError(f"need at least {MIN_MC_TRIALS} trials, got {trials}")
    rng = rng if rng is not None else np.random.default_rng()
    transform = np.atleast_2d(np.asarray(transform, dtype=float))
    shift = np.atleast_1d(np.asarray(shift, dtype=float))
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
    """
    rng = rng if rng is not None else np.random.default_rng()
    if rewards is None:
        rewards = rng.normal(prior_mean, sigma, size=pulls)
    rewards = np.asarray(rewards, dtype=float)
    if rewards.size != pulls:
        raise ValueError("reward history length must equal the pull count")
    target_mean, target_var = posterior_moments(prior_mean, sigma, rewards)

    noise = rng.normal(0.0, sigma, size=(trials, pulls + 1))
    samples = (prior_mean + rewards.sum() + noise.sum(axis=1)) / (pulls + 1)
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
    is asserted (with three standard errors of slack).
    """
    if not 0.0 < inner < outer:
        raise ValueError("need 0 < inner < outer")
    rng = rng if rng is not None else np.random.default_rng()
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


def default_checks(seed: int = 0, horizon: int = 1000, pool_trials: int = 2000,
                   mc_trials: int = 100_000) -> list[CheckReport]:
    """Run the full check battery with the benchmark's default parameters."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    transform = rng.normal(size=(3, 3))
    shift = rng.normal(size=3)
    return [
        check_variance_floor(horizon=horizon, z=0.6, alpha=1.0, sigma=0.5,
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
