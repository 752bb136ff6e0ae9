"""Centered, symmetrized reward pools used as a data-dependent noise source.

A pool is built each round from all rewards observed so far: every reward is
centered by the running mean, scaled by ``alpha``, and stored together with
its negation.  Samples drawn uniformly from the pool therefore have zero mean
and a variance that tracks the empirical variance of the observed rewards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rules import at_least, positive_finite, strictly_inside_unit


@dataclass(frozen=True, eq=False)
class RewardPool:
    """Flat multiset of ``2 * m`` centered, scaled rewards.

    ``values[l] = alpha * (y_l - mean)`` for ``l < m`` and ``values[m + l]``
    is its negation, so the multiset is symmetric around zero by
    construction.
    """

    values: np.ndarray     # shape (2m,), zero mean, sign-symmetric

    def __len__(self) -> int:
        return self.values.size

    def variance(self) -> float:
        """Variance of a single uniform draw (mean of squared values).

        Equals ``alpha**2 / m * sum((y - mean)**2)`` computed on the raw
        rewards; the two forms agree up to floating-point rounding.
        """
        if self.values.size == 0:
            raise ValueError("cannot take the variance of an empty pool")
        return float(np.mean(np.square(self.values)))

    def draw(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` values uniformly with replacement.

        Draws are realized by uniform indexing into the flat array so that
        identical generator states yield identical index sequences regardless
        of the stored values (scale equivariance of downstream argmaxes).
        """
        if self.values.size == 0:
            raise ValueError("cannot draw from an empty pool")
        at_least("draw count", count, 0)
        idx = rng.integers(0, self.values.size, size=count)
        return self.values.take(idx)


def build_pool(rewards, alpha: float) -> RewardPool:
    """Build a pool from past rewards: center, scale by ``alpha``, symmetrize.

    The first half of the output holds the centered rewards in input order,
    the second half their negations:
    ``(a(y_1 - mu), ..., a(y_m - mu), a(mu - y_1), ..., a(mu - y_m))``.

    The rewards are centred on the shifted mean ``y_1 + mean(y - y_1)``, and
    each value is formed as ``(y_l - y_1) - mean(y - y_1)``, so a large
    offset common to every reward is removed before the mean is rounded.
    """
    r = np.asarray(rewards, dtype=float).ravel()
    m = r.size
    if m == 0:
        raise ValueError("cannot build a reward pool from an empty history")
    positive_finite("alpha", alpha)
    # Every pass writes straight into the result's first half, with no
    # temporaries; ``np.add.reduce`` is the pairwise sum ``mean`` takes.
    values = np.empty(2 * m, dtype=float)
    centered = values[:m]
    np.subtract(r, r[0], out=centered)
    np.subtract(centered, float(np.add.reduce(centered)) / m, out=centered)
    np.multiply(alpha, centered, out=centered)
    np.negative(centered, out=values[m:])
    return RewardPool(values=values)


def variance_floor_threshold(horizon: int, z: float) -> float:
    """Warm-up length ``4 ln(horizon) / (z - 1 - ln z) + 1`` after which the
    pool variance stays above ``alpha^2 z sigma^2 / 2`` with high probability.
    ``ValueError`` names ``horizon`` below 1 or ``z`` outside (0, 1), where
    the denominator is positive."""
    at_least("horizon", horizon, 1)
    strictly_inside_unit("z", z)
    return 4.0 * math.log(horizon) / (z - 1.0 - math.log(z)) + 1.0
