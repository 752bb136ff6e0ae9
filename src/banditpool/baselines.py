"""Comparison policies: UCB variants, Thompson sampling, and pseudo-reward
perturbation, for both multi-armed and linear bandits.

All agents speak the same ``select``/``update`` protocol as the pool agents
so the benchmark loop can drive them interchangeably.
"""

from __future__ import annotations

import math

import numpy as np

from ._rules import finite, nonnegative_finite, positive_finite
from .agents import (
    LinearModelState,
    _ArmStatsAgent,
    _cholesky_factor,
    _cholesky_solve,
    _lapack,
    _LinearAgent,
    _PerturbedHistory,
    _PerturbedLinearAgent,
    block_sums,
    perturbed_mean_estimates,
)

# Nothing here calls ridge_solve, but perfbench's tracer patches
# ``baselines.ridge_solve`` by name, so the name must stay importable.
from .agents import ridge_solve  # noqa: F401


# ---------------------------------------------------------------------------
# Index / sampling primitives
# ---------------------------------------------------------------------------


def _ucb1(mean, pulls, log_t):
    """The UCB1 index of arms that have all been pulled."""
    return mean + np.sqrt(2.0 * log_t / pulls)


def _ucbv(mean, variance, pulls, log_t, range_bound):
    """The UCB-V index of arms that have all been pulled."""
    return mean + (np.sqrt(2.0 * variance * log_t / pulls)
                   + 3.0 * range_bound * log_t / pulls)


def bern_ts_sample(successes, failures, rng: np.random.Generator):
    """Posterior draw from ``Beta(1 + successes, 1 + failures)``."""
    return rng.beta(1.0 + np.asarray(successes), 1.0 + np.asarray(failures))


def gauss_ts_sample(prior_mean, sigma, total, pulls, rng: np.random.Generator):
    """Draw from the Gaussian posterior with a unit-weight prior observation.

    The posterior after ``s`` pulls with cumulative reward ``V`` is
    ``N((prior_mean + V) / (s + 1), sigma^2 / (s + 1))``.
    """
    total = np.asarray(total, dtype=float)
    pulls = np.asarray(pulls, dtype=float)
    post_mean = (prior_mean + total) / (pulls + 1.0)
    post_std = sigma / np.sqrt(pulls + 1.0)
    return post_mean + post_std * rng.standard_normal(post_mean.shape)


def phe_pseudo_counts(pulls, a) -> np.ndarray:
    """Pseudo rewards added per arm: ``ceil(a * pulls)``."""
    return np.ceil(a * np.asarray(pulls, dtype=float)).astype(np.int64)


# ---------------------------------------------------------------------------
# Multi-armed agents
# ---------------------------------------------------------------------------


class _OptimisticAgent(_ArmStatsAgent):
    """An index policy whose index is +inf on an unpulled arm.

    While an arm is unpulled the agent plays the lowest-numbered such arm,
    the one a +inf index would select; run in order, rounds ``1..K`` play
    arms ``0..K-1``.  After that ``_scores`` evaluates the index on arrays
    where every arm has been pulled.
    """

    _all_pulled = False

    def _forced(self, t: int) -> int | None:
        """The lowest-numbered arm never pulled, or ``None`` if there is none.

        The choice follows the pull counts, not ``t``.  Pull counts never
        fall, so once every arm has been pulled they are not scanned again.
        """
        if self._all_pulled:
            return None
        if self.pulls.all():
            self._all_pulled = True
            return None
        return int(self.pulls.argmin())


class UCB1Agent(_OptimisticAgent):
    """UCB1 (Auer, Cesa-Bianchi & Fischer, 2002)."""

    def _scores(self, t: int) -> np.ndarray:
        return _ucb1(self.totals / self.pulls, self.pulls, math.log(t))


class UCBVAgent(_OptimisticAgent):
    """UCB with empirical variance; needs a reward-range bound."""

    def __init__(self, n_arms: int, horizon: int, range_bound: float = 1.0) -> None:
        super().__init__(n_arms, horizon)
        positive_finite("range_bound", range_bound)
        self.range_bound = float(range_bound)
        self._sumsq = np.zeros(n_arms, dtype=float)

    def _scores(self, t: int) -> np.ndarray:
        mean = self.totals / self.pulls
        variance = np.maximum(self._sumsq / self.pulls - mean * mean, 0.0)
        return _ucbv(mean, variance, self.pulls, math.log(t), self.range_bound)

    def _learn(self, t: int, arm: int, reward: float) -> None:
        super()._learn(t, arm, reward)
        self._sumsq[arm] += reward * reward


class BernoulliTSAgent(_ArmStatsAgent):
    """Beta-Bernoulli Thompson sampling with a flat prior.

    Non-binary bounded rewards are binarized by a coin flip with the reward
    as bias, so the agent also runs on beta-distributed rewards.
    """

    def __init__(self, n_arms: int, horizon: int,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__(n_arms, horizon)
        self.rng = rng if rng is not None else np.random.default_rng()
        self._successes = np.zeros(n_arms, dtype=np.int64)

    def _scores(self, t: int) -> np.ndarray:
        return bern_ts_sample(self._successes, self.pulls - self._successes,
                              self.rng)

    def _learn(self, t: int, arm: int, reward: float) -> None:
        super()._learn(t, arm, reward)
        if reward <= 0.0:
            hit = 0
        elif reward >= 1.0:
            hit = 1
        else:
            hit = int(self.rng.random() < reward)
        self._successes[arm] += hit


class GaussianTSAgent(_ArmStatsAgent):
    """Thompson sampling under a known-variance Gaussian model."""

    def __init__(self, n_arms: int, horizon: int, sigma: float = 0.5,
                 prior_mean: float = 0.5,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__(n_arms, horizon)
        positive_finite("sigma", sigma)
        finite("prior_mean", prior_mean)
        self.sigma = float(sigma)
        self.prior_mean = float(prior_mean)
        self.rng = rng if rng is not None else np.random.default_rng()

    def _scores(self, t: int) -> np.ndarray:
        return gauss_ts_sample(self.prior_mean, self.sigma, self.totals,
                               self.pulls, self.rng)


class _PHEAgent(_ArmStatsAgent):
    """Perturbed history: fresh pseudo rewards mixed into every estimate."""

    def __init__(self, n_arms: int, horizon: int, a: float = 1.0,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__(n_arms, horizon)
        positive_finite("perturbation scale a", a)
        self.a = float(a)
        self.rng = rng if rng is not None else np.random.default_rng()

    def _scores(self, t: int) -> np.ndarray:
        """Fresh per-arm means over the rewards plus ``ceil(a s_i)`` pseudo
        rewards per arm, new from the subclass's ``_draw_pseudo``."""
        counts = phe_pseudo_counts(self.pulls, self.a)
        sums = block_sums(self._draw_pseudo(int(counts.sum())), counts)
        return perturbed_mean_estimates(self.totals, self.pulls + counts, sums)


class BernoulliPHEAgent(_PHEAgent):
    def _draw_pseudo(self, count: int) -> np.ndarray:
        return self.rng.integers(0, 2, size=count).astype(float)


class GaussianPHEAgent(_PHEAgent):
    def _draw_pseudo(self, count: int) -> np.ndarray:
        return self.rng.normal(0.5, 0.5, size=count)


# ---------------------------------------------------------------------------
# Linear agents
# ---------------------------------------------------------------------------


def linucb_scores(state: LinearModelState, features: np.ndarray,
                  width: float) -> np.ndarray:
    """Optimistic scores ``x . theta_hat + width * ||x||_{G^{-1}}`` per arm."""
    factor = _cholesky_factor(state.gram)
    theta = _cholesky_solve(factor, state.xy_sum)
    solved = _cholesky_solve(factor, features.T)
    norms = np.sqrt(np.maximum(np.einsum("dk,dk->k", features.T, solved), 0.0))
    return features @ theta + width * norms


def lints_sample(state: LinearModelState, sigma_ts: float,
                 rng: np.random.Generator) -> np.ndarray:
    """Draw ``theta ~ N(theta_hat, sigma_ts^2 G^{-1})`` from one factor
    ``G = L L^T``: for a standard normal ``xi``, ``L^T v = xi`` gives
    ``v ~ N(0, G^{-1})`` (Agrawal & Goyal, ICML 2013)."""
    factor = _cholesky_factor(state.gram)
    theta_hat = _cholesky_solve(factor, state.xy_sum)
    noise, _ = _lapack().dtrtrs(factor, rng.standard_normal(state.dim),
                                lower=1, trans=1)
    return theta_hat + sigma_ts * noise


class LinUCBAgent(_LinearAgent):
    def __init__(self, features: np.ndarray, horizon: int, width: float = 1.0,
                 ridge_lambda: float = 1.0) -> None:
        super().__init__(features, horizon, ridge_lambda)
        nonnegative_finite("width", width)
        self.width = float(width)

    def _scores(self, t: int) -> np.ndarray:
        return linucb_scores(self.state, self.features, self.width)


class LinTSAgent(_LinearAgent):
    def __init__(self, features: np.ndarray, horizon: int, sigma_ts: float = 1.0,
                 ridge_lambda: float = 1.0,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__(features, horizon, ridge_lambda)
        nonnegative_finite("sigma_ts", sigma_ts)
        self.sigma_ts = float(sigma_ts)
        self.rng = rng if rng is not None else np.random.default_rng()

    def _scores(self, t: int) -> np.ndarray:
        return self.features @ lints_sample(self.state, self.sigma_ts, self.rng)


class LinPHEAgent(_PerturbedHistory, _PerturbedLinearAgent):
    """Linear perturbed history: every fit shifts each past reward by fresh
    pseudo-reward noise, centred coins ``a * (B - 1/2)`` for ``bernoulli`` and
    ``N(0, a^2)`` for ``gaussian``."""

    def __init__(self, features: np.ndarray, horizon: int, a: float = 1.0,
                 pseudo_family: str = "bernoulli", ridge_lambda: float = 1.0,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__(features, horizon, ridge_lambda)
        positive_finite("perturbation scale a", a)
        if pseudo_family not in ("bernoulli", "gaussian"):
            raise ValueError(f"unknown pseudo reward family {pseudo_family!r}")
        self.a = float(a)
        self.pseudo_family = pseudo_family
        self.rng = rng if rng is not None else np.random.default_rng()

    def _forced(self, t: int) -> int | None:
        """Round-robin while the history is empty: a fit needs an observation."""
        if self._seen == 0:
            return (t - 1) % self.n_arms
        return None

    def _noise(self, m: int) -> np.ndarray:
        if self.pseudo_family == "bernoulli":
            return self.a * (self.rng.integers(0, 2, size=m) - 0.5)
        return self.rng.normal(0.0, self.a, size=m)
