"""Comparison policies: UCB variants, Thompson sampling, and pseudo-reward
perturbation, for both multi-armed and linear bandits.

All agents speak the same ``select``/``update`` protocol as the pool agents
so the benchmark loop can drive them interchangeably.
"""

from __future__ import annotations

import math

import numpy as np

from .agents import (
    Agent,
    LinearModelState,
    _ArmStatsAgent,
    _cholesky_factor,
    _cholesky_solve,
    best_arm,
    perturbed_mean_estimates,
    ridge_solve,
)


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


def _clipped_variance(sumsq, mean, counts):
    """Empirical variance ``sumsq / counts - mean^2``, clipped below at 0."""
    return np.maximum(sumsq / counts - mean * mean, 0.0)


def ucb1_index(mean, pulls, t):
    """Classic optimism index ``mean + sqrt(2 ln t / pulls)``; inf when unpulled."""
    mean = np.asarray(mean, dtype=float)
    pulls = np.asarray(pulls, dtype=float)
    mean, pulls = np.broadcast_arrays(mean, pulls)
    seen = pulls > 0
    index = np.full(pulls.shape, np.inf)
    index[seen] = _ucb1(mean[seen], pulls[seen], math.log(t))
    return index


def ucbv_index(mean, variance, pulls, t, range_bound=1.0):
    """Variance-aware index ``mean + sqrt(2 V ln t / s) + 3 b ln t / s``.

    ``range_bound`` is the assumed reward range; unpulled arms get inf.
    """
    mean = np.asarray(mean, dtype=float)
    variance = np.asarray(variance, dtype=float)
    pulls = np.asarray(pulls, dtype=float)
    mean, variance, pulls = np.broadcast_arrays(mean, variance, pulls)
    seen = pulls > 0
    index = np.full(pulls.shape, np.inf)
    index[seen] = _ucbv(mean[seen], variance[seen], pulls[seen], math.log(t),
                        range_bound)
    return index


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


class UCB1Agent(_ArmStatsAgent):
    """UCB1 (Auer, Cesa-Bianchi & Fischer, 2002).

    While an arm is unpulled the agent plays the lowest-numbered such arm,
    the one its +inf index would select; run in order, rounds ``1..K`` play
    arms ``0..K-1``.  After that the index is evaluated on arrays where every
    arm has been pulled.
    """

    def _indices(self, t: int) -> np.ndarray:
        """The index of every arm once every arm has been pulled."""
        return _ucb1(self.totals / self.pulls, self.pulls, math.log(t))

    def _choose(self, t: int) -> int:
        arm = self._unpulled_arm()
        if arm is not None:
            return arm
        return int(self._indices(t).argmax())


class UCBVAgent(_ArmStatsAgent):
    """UCB with empirical variance; needs a reward-range bound.

    Plays unpulled arms first, as :class:`UCB1Agent` does.
    """

    def __init__(self, n_arms: int, horizon: int, range_bound: float = 1.0) -> None:
        super().__init__(n_arms, horizon)
        if not 0.0 < range_bound < math.inf:
            raise ValueError(
                f"range_bound must be positive and finite, got {range_bound}")
        self.range_bound = float(range_bound)
        self._sumsq = np.zeros(n_arms, dtype=float)

    def variances(self) -> np.ndarray:
        counts = np.maximum(self.pulls, 1)
        return _clipped_variance(self._sumsq, self.totals / counts, counts)

    def _indices(self, t: int) -> np.ndarray:
        """The index of every arm once every arm has been pulled."""
        mean = self.totals / self.pulls
        variance = _clipped_variance(self._sumsq, mean, self.pulls)
        return _ucbv(mean, variance, self.pulls, math.log(t), self.range_bound)

    def _choose(self, t: int) -> int:
        arm = self._unpulled_arm()
        if arm is not None:
            return arm
        return int(self._indices(t).argmax())

    def _learn(self, t: int, arm: int, reward: float) -> None:
        super()._learn(t, arm, reward)
        self._sumsq[arm] += reward * reward

    def get_params(self) -> dict:
        return {"range_bound": self.range_bound}


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

    def _choose(self, t: int) -> int:
        samples = bern_ts_sample(self._successes, self.pulls - self._successes,
                                 self.rng)
        return int(np.argmax(samples))

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
        if not 0.0 < sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {sigma}")
        if not math.isfinite(prior_mean):
            raise ValueError(f"prior_mean must be finite, got {prior_mean}")
        self.sigma = float(sigma)
        self.prior_mean = float(prior_mean)
        self.rng = rng if rng is not None else np.random.default_rng()

    def _choose(self, t: int) -> int:
        samples = gauss_ts_sample(self.prior_mean, self.sigma, self.totals,
                                  self.pulls, self.rng)
        return int(np.argmax(samples))

    def get_params(self) -> dict:
        return {"sigma": self.sigma, "prior_mean": self.prior_mean}


class _PHEAgent(_ArmStatsAgent):
    """Perturbed history: fresh pseudo rewards mixed into every estimate."""

    pseudo_family = "bernoulli"

    def __init__(self, n_arms: int, horizon: int, a: float = 1.0,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__(n_arms, horizon)
        if not 0.0 < a < math.inf:
            raise ValueError(
                f"perturbation scale a must be positive and finite, got {a}")
        self.a = float(a)
        self.rng = rng if rng is not None else np.random.default_rng()

    def _draw_pseudo(self, count: int) -> np.ndarray:
        if self.pseudo_family == "bernoulli":
            return self.rng.integers(0, 2, size=count).astype(float)
        return self.rng.normal(0.5, 0.5, size=count)

    def _estimates(self) -> np.ndarray:
        """Fresh per-arm means over the rewards plus ``ceil(a s_i)`` new pseudo
        rewards per arm."""
        counts = phe_pseudo_counts(self.pulls, self.a)
        pseudo = self._draw_pseudo(int(counts.sum()))
        owners = np.repeat(np.arange(self.n_arms), counts)
        return perturbed_mean_estimates(self.totals, self.pulls + counts,
                                        pseudo, owners)

    def _choose(self, t: int) -> int:
        return int(np.argmax(self._estimates()))

    def get_params(self) -> dict:
        return {"a": self.a}


class BernoulliPHEAgent(_PHEAgent):
    pseudo_family = "bernoulli"


class GaussianPHEAgent(_PHEAgent):
    pseudo_family = "gaussian"


# ---------------------------------------------------------------------------
# Linear agents
# ---------------------------------------------------------------------------


class _LinearAgent(Agent):
    """Shared ridge state over a fixed arm-feature matrix."""

    def __init__(self, features: np.ndarray, horizon: int,
                 ridge_lambda: float = 1.0) -> None:
        features = np.asarray(features, dtype=float)
        if features.ndim != 2:
            raise ValueError("features must be a (K, d) matrix")
        if not 0.0 < ridge_lambda < math.inf:
            raise ValueError(
                f"ridge_lambda must be positive and finite, got {ridge_lambda}")
        super().__init__(features.shape[0], horizon)
        self.features = features
        self.dim = features.shape[1]
        self.state = LinearModelState(self.dim, ridge_lambda, capacity=horizon)

    def _learn(self, t: int, arm: int, reward: float) -> None:
        self.state.add(self.features[arm], reward)


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
    """Draw ``theta ~ N(theta_hat, sigma_ts^2 G^{-1})``."""
    theta_hat = state.mean_fit()
    chol = np.linalg.cholesky(state.gram)
    noise = np.linalg.solve(chol.T, rng.standard_normal(state.dim))
    return theta_hat + sigma_ts * noise


def linphe_fit(state: LinearModelState, a: float, pseudo_family: str,
               rng: np.random.Generator) -> np.ndarray:
    """Ridge fit with one fresh pseudo perturbation per past observation.

    ``bernoulli`` perturbations are centered coins ``a * (B - 1/2)``,
    ``gaussian`` ones ``N(0, a^2)``.
    """
    if pseudo_family == "bernoulli":
        noise = a * (rng.integers(0, 2, size=state.count) - 0.5)
    elif pseudo_family == "gaussian":
        noise = rng.normal(0.0, a, size=state.count)
    else:
        raise ValueError(f"unknown pseudo reward family {pseudo_family!r}")
    return ridge_solve(state.gram, state.xy_sum + state.xs.T @ noise)


class LinUCBAgent(_LinearAgent):
    def __init__(self, features: np.ndarray, horizon: int, width: float = 1.0,
                 ridge_lambda: float = 1.0) -> None:
        super().__init__(features, horizon, ridge_lambda)
        if not 0.0 <= width < math.inf:
            raise ValueError(f"width must be >= 0 and finite, got {width}")
        self.width = float(width)

    def _choose(self, t: int) -> int:
        return int(np.argmax(linucb_scores(self.state, self.features, self.width)))

    def get_params(self) -> dict:
        return {"width": self.width, "ridge_lambda": self.state.ridge_lambda}


class LinTSAgent(_LinearAgent):
    def __init__(self, features: np.ndarray, horizon: int, sigma_ts: float = 1.0,
                 ridge_lambda: float = 1.0,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__(features, horizon, ridge_lambda)
        if not 0.0 <= sigma_ts < math.inf:
            raise ValueError(f"sigma_ts must be >= 0 and finite, got {sigma_ts}")
        self.sigma_ts = float(sigma_ts)
        self.rng = rng if rng is not None else np.random.default_rng()

    def _choose(self, t: int) -> int:
        return best_arm(self.features, lints_sample(self.state, self.sigma_ts, self.rng))

    def get_params(self) -> dict:
        return {"sigma_ts": self.sigma_ts, "ridge_lambda": self.state.ridge_lambda}


class LinPHEAgent(_LinearAgent):
    def __init__(self, features: np.ndarray, horizon: int, a: float = 1.0,
                 pseudo_family: str = "bernoulli", ridge_lambda: float = 1.0,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__(features, horizon, ridge_lambda)
        if not 0.0 < a < math.inf:
            raise ValueError(
                f"perturbation scale a must be positive and finite, got {a}")
        if pseudo_family not in ("bernoulli", "gaussian"):
            raise ValueError(f"unknown pseudo reward family {pseudo_family!r}")
        self.a = float(a)
        self.pseudo_family = pseudo_family
        self.rng = rng if rng is not None else np.random.default_rng()

    def _choose(self, t: int) -> int:
        if self.state.count == 0:
            return (t - 1) % self.n_arms
        return best_arm(self.features,
                        linphe_fit(self.state, self.a, self.pseudo_family, self.rng))

    def get_params(self) -> dict:
        return {"a": self.a, "pseudo_family": self.pseudo_family,
                "ridge_lambda": self.state.ridge_lambda}
