"""Top-K list policies for the cascade environment.

Each policy keeps per-item attraction statistics under the cascade feedback
convention (positions above a click were examined and did not attract; with
no click every shown position was examined) and reranks items by a per-item
score: a KL-based upper confidence bound, a Thompson sample, a perturbed
history estimate, or a reward-pool perturbed mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .agents import Agent, PoolParams, perturbed_mean_estimates
from .baselines import phe_pseudo_counts
from .pool import build_pool


def kl_bernoulli(p: float, q: float) -> float:
    """KL divergence between Bernoulli(p) and Bernoulli(q)."""
    if p <= 0.0:
        return -math.log(1.0 - q) if q < 1.0 else math.inf
    if p >= 1.0:
        return -math.log(q) if q > 0.0 else math.inf
    if q <= 0.0 or q >= 1.0:
        return math.inf
    return (p * math.log(p / q)
            + (1.0 - p) * math.log((1.0 - p) / (1.0 - q)))


def exploration_budget(t: int) -> float:
    """KL budget ``ln t + 3 ln ln t`` (log-log term clamped below t = 3)."""
    if t < 1:
        raise ValueError(f"round must be >= 1, got {t}")
    log_t = math.log(t)
    return log_t + 3.0 * math.log(max(log_t, 1.0))


# Largest starting point of the Newton iteration; kl(mean, q) diverges at 1.
_Q_MAX = 1.0 - 1e-12


def klucb_solve(mean: float, observations: int, budget: float,
                tol: float = 1e-6) -> float:
    """Largest q in [mean, 1] with ``observations * kl(mean, q) <= budget``.

    The result lies within ``tol`` of that q, and the scaled divergence at it
    lies within 1e-6 of the budget unless q sits so close to 1 that floating
    point cannot resolve it further.  ``q -> kl(mean, q)`` is convex and
    increasing on [mean, 1), so Newton's method started above the root
    descends onto it in a few steps (Garivier & Cappe, COLT 2011).  It starts
    at the Pinsker bound ``mean + sqrt(target / 2)``, capped at ``1 - 1e-12``.
    A bracket around the root catches any step that leaves it; such a step
    bisects instead.  ``mean = 0`` has the closed form ``1 - exp(-target)``.
    """
    if mean >= 1.0:
        return 1.0
    target = budget / observations
    if target <= 0.0:
        return mean
    if mean <= 0.0:
        return -math.expm1(-target)
    lo, hi = mean, 1.0
    q = min(mean + math.sqrt(0.5 * target), _Q_MAX)
    while True:
        if not lo < q < hi:
            q = 0.5 * (lo + hi)
            if not lo < q < hi:
                return lo
        gap = kl_bernoulli(mean, q) - target
        if gap <= 0.0:
            lo = q
        else:
            hi = q
        step = gap * q * (1.0 - q) / (q - mean)
        if abs(step) <= tol and (observations * abs(gap) <= 1e-6
                                 or abs(step) <= 4.0 * math.ulp(q)):
            return q
        q -= step


def klucb_index(clicks: int, observations: int, t: int,
                tol: float = 1e-6) -> float:
    """Per-item upper confidence bound; items never observed score 1.0."""
    if observations < 1:
        return 1.0
    return klucb_solve(clicks / observations, observations,
                       exploration_budget(t), tol)


def rank_topk(scores, k: int) -> list[int]:
    """Indices of the ``k`` largest scores, descending, stable on ties."""
    scores = np.asarray(scores, dtype=float)
    if k > scores.size:
        raise ValueError(f"cannot rank top {k} of {scores.size} items")
    order = np.argsort(-scores, kind="stable")
    return [int(i) for i in order[:k]]


@dataclass
class ItemStats:
    """Per-item attraction observations and clicks."""

    observations: np.ndarray
    clicks: np.ndarray

    @classmethod
    def empty(cls, n_items: int) -> "ItemStats":
        return cls(observations=np.zeros(n_items, dtype=np.int64),
                   clicks=np.zeros(n_items, dtype=np.int64))


def cascade_update(stats: ItemStats, ranked, click_pos: int | None) -> ItemStats:
    """Fold one round of cascade feedback into the per-item statistics.

    With a click at position p, items above p were examined without
    attracting, the clicked item attracted, and items below p stay untouched.
    Without a click every shown item was examined without attracting.
    """
    if click_pos is None:
        examined = len(ranked)
    else:
        if not 0 <= click_pos < len(ranked):
            raise ValueError(
                f"click position {click_pos} inconsistent with a slate of "
                f"{len(ranked)} items")
        examined = click_pos + 1
        stats.clicks[ranked[click_pos]] += 1
    for pos in range(examined):
        stats.observations[ranked[pos]] += 1
    return stats


# ---------------------------------------------------------------------------
# List policies
# ---------------------------------------------------------------------------


class RankerPolicy(Agent):
    """Single-run list policy: ``select(t)`` then ``update(t, slate, click)``.

    The action is a slate of ``slate_size`` distinct items, held pending as a
    tuple, and the feedback is the clicked position or ``None``.  Subclasses
    score the items in ``_scores``; the slate is the top of that ranking.
    """

    _key = staticmethod(tuple)

    def __init__(self, n_items: int, slate_size: int, horizon: int) -> None:
        if not 1 <= slate_size <= n_items:
            raise ValueError(
                f"slate size must be in [1, {n_items}], got {slate_size}")
        super().__init__(n_items, horizon)
        self.n_items = n_items
        self.slate_size = slate_size
        self.stats = ItemStats.empty(n_items)

    def select(self, t: int) -> list[int]:
        # perfbench times a ranker's selection under the name select_list,
        # so the protocol is reached through it until its span is renamed.
        return self.select_list(t)

    def select_list(self, t: int) -> list[int]:
        return super().select(t)

    def _check_feedback(self, t: int, slate, click: int | None) -> int | None:
        """The click position; ``ValueError`` unless ``None`` or on the slate."""
        if click is None or (isinstance(click, (int, np.integer))
                             and 0 <= click < len(slate)):
            return click
        raise ValueError(
            f"click position for round {t} must be None or in "
            f"[0, {len(slate)}), got {click!r}")

    def _choose(self, t: int) -> list[int]:
        return rank_topk(self._scores(t), self.slate_size)

    def _learn(self, t: int, slate, click: int | None) -> None:
        cascade_update(self.stats, slate, click)

    def _scores(self, t: int) -> np.ndarray:
        raise NotImplementedError


class KLUCBRanker(RankerPolicy):
    """Rank by per-item KL upper confidence bounds."""

    def _scores(self, t: int) -> np.ndarray:
        return np.array([
            klucb_index(int(self.stats.clicks[i]), int(self.stats.observations[i]), t)
            for i in range(self.n_items)
        ])


class BernoulliTSRanker(RankerPolicy):
    """Rank by Beta posterior samples of the attraction probabilities."""

    def __init__(self, n_items: int, slate_size: int, horizon: int,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__(n_items, slate_size, horizon)
        self.rng = rng if rng is not None else np.random.default_rng()

    def _scores(self, t: int) -> np.ndarray:
        return self.rng.beta(1.0 + self.stats.clicks,
                             1.0 + self.stats.observations - self.stats.clicks)


class BernoulliPHERanker(RankerPolicy):
    """Rank by perturbed-history estimates with fresh coin pseudo rewards."""

    def __init__(self, n_items: int, slate_size: int, horizon: int,
                 a: float = 0.5, rng: np.random.Generator | None = None) -> None:
        super().__init__(n_items, slate_size, horizon)
        if not 0.0 < a < math.inf:
            raise ValueError(
                f"perturbation scale a must be positive and finite, got {a}")
        self.a = float(a)
        self.rng = rng if rng is not None else np.random.default_rng()

    def _scores(self, t: int) -> np.ndarray:
        counts = phe_pseudo_counts(self.stats.observations, self.a)
        pseudo = self.rng.integers(0, 2, size=int(counts.sum())).astype(float)
        owners = np.repeat(np.arange(self.n_items), counts)
        return perturbed_mean_estimates(self.stats.clicks,
                                        self.stats.observations + counts,
                                        pseudo, owners)

    def get_params(self) -> dict:
        return {"a": self.a}


class RewardPoolRanker(RankerPolicy):
    """Rank by reward-pool perturbed attraction estimates.

    All binary attraction observations across items feed one shared pool;
    each item's estimate perturbs its own observations with draws from it,
    exactly as the multi-armed agent treats arms.  The ranker has no
    warm-up, so ``z`` plays no part: round 1 has no observation and ranks
    the leading items, and pool draws start at round 2.
    """

    def __init__(self, n_items: int, slate_size: int, horizon: int,
                 params: PoolParams = PoolParams(),
                 rng: np.random.Generator | None = None) -> None:
        super().__init__(n_items, slate_size, horizon)
        self.params = params
        self.rng = rng if rng is not None else np.random.default_rng()
        capacity = horizon * slate_size
        self._values = np.empty(capacity, dtype=float)
        self._items = np.empty(capacity, dtype=np.int64)
        self._seen = 0

    def _scores(self, t: int) -> np.ndarray:
        if self._seen == 0:
            return np.full(self.n_items, np.inf)
        pool = build_pool(self._values[: self._seen], self.params.alpha)
        draws = pool.draw(self._seen, self.rng)
        return perturbed_mean_estimates(self.stats.clicks,
                                        self.stats.observations, draws,
                                        self._items[: self._seen])

    def _learn(self, t: int, slate, click: int | None) -> None:
        super()._learn(t, slate, click)
        examined = len(slate) if click is None else click + 1
        for pos in range(examined):
            self._values[self._seen] = 1.0 if pos == click else 0.0
            self._items[self._seen] = slate[pos]
            self._seen += 1

    def get_params(self) -> dict:
        return {"alpha": self.params.alpha}
