"""Top-K list policies for the cascade environment.

A ranker is a slate over a multi-armed agent whose arms are the items: it
shows the items with the ``slate_size`` highest scores, and folds each
round's cascade feedback into that agent as one Bernoulli observation per
examined position (Kveton et al., ICML 2015).  The per-item agent is KL-UCB,
Beta-Bernoulli Thompson sampling, Bernoulli perturbed history, or the
reward-pool agent, so each algorithm has one implementation for both
settings.
"""

from __future__ import annotations

import math

import numpy as np

from .agents import Agent, PoolParams, RewardPoolAgent, _ArmStatsAgent
from .baselines import BernoulliPHEAgent, BernoulliTSAgent

# Nothing here calls build_pool: the pool ranker builds its pools through
# ``agents.build_pool``.  perfbench's tracer patches ``ranking.build_pool``
# by name, so the name must stay importable.
from .pool import build_pool  # noqa: F401


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
KLUCB_TOL = 1e-6  # how close klucb_solve's result lies to the root


def klucb_solve(mean: float, observations: int, budget: float) -> float:
    """Largest q in [mean, 1] with ``observations * kl(mean, q) <= budget``.

    The result lies within ``KLUCB_TOL`` of that q, and the scaled divergence
    at it lies within 1e-6 of the budget unless q sits so close to 1 that
    floating point cannot resolve it further.  ``q -> kl(mean, q)`` is convex
    and increasing on [mean, 1), so Newton's method started above the root
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
        if abs(step) <= KLUCB_TOL and (observations * abs(gap) <= 1e-6
                                       or abs(step) <= 4.0 * math.ulp(q)):
            return q
        q -= step


def klucb_index(clicks: float, observations: int, t: int) -> float:
    """Per-item upper confidence bound; items never observed score 1.0."""
    if observations < 1:
        return 1.0
    return klucb_solve(clicks / observations, observations, exploration_budget(t))


def rank_topk(scores, k: int) -> list[int]:
    """Indices of the ``k`` largest scores, descending, stable on ties."""
    scores = np.asarray(scores, dtype=float)
    if k > scores.size:
        raise ValueError(f"cannot rank top {k} of {scores.size} items")
    order = np.argsort(-scores, kind="stable")
    return [int(i) for i in order[:k]]


# ---------------------------------------------------------------------------
# List policies
# ---------------------------------------------------------------------------


class RankerPolicy(Agent):
    """Single-run list policy: ``select(t)`` then ``update(t, slate, click)``.

    The action is a slate of ``slate_size`` distinct items, held pending as a
    tuple, and the feedback is the clicked position or ``None``.  Subclasses
    set ``items``, a multi-armed agent whose arms are the items, sized for
    ``capacity`` observations, one per shown position.  The slate is the top
    ``slate_size`` of its scores, and no round is forced.  Items above a
    click were examined and did not attract, the clicked item attracted,
    and items below it were not examined; with no click every shown item
    was examined.  Each examined item is one observation for ``items``:
    reward 1.0 if clicked, else 0.0.
    """

    _key = staticmethod(tuple)
    items: Agent

    def __init__(self, n_items: int, slate_size: int, horizon: int) -> None:
        if not 1 <= slate_size <= n_items:
            raise ValueError(
                f"slate size must be in [1, {n_items}], got {slate_size}")
        super().__init__(n_items, horizon)
        self.n_items = n_items
        self.slate_size = slate_size
        self.capacity = horizon * slate_size

    def select(self, t: int) -> list[int]:
        # perfbench times a ranker's selection under the name select_list,
        # so the protocol is reached through it until its span is renamed.
        return self.select_list(t)

    def select_list(self, t: int) -> list[int]:
        return super().select(t)

    def _check_feedback(self, t: int, slate, click: int | None) -> int | None:
        """The click position; ``ValueError`` unless ``None`` or on the slate."""
        if click is None or (isinstance(click, (int, np.integer))
                             and not isinstance(click, bool)
                             and 0 <= click < len(slate)):
            return click
        raise ValueError(
            f"click position for round {t} must be None or in "
            f"[0, {len(slate)}), got {click!r}")

    def _choose(self, t: int) -> list[int]:
        return rank_topk(self._scores(t), self.slate_size)

    def _scores(self, t: int) -> np.ndarray:
        return self.items._scores(t)

    def _learn(self, t: int, slate, click: int | None) -> None:
        learn = self.items._learn
        for pos in range(len(slate) if click is None else click + 1):
            learn(t, slate[pos], 1.0 if pos == click else 0.0)


class _KLUCBAgent(_ArmStatsAgent):
    """Bernoulli KL-UCB indices over the per-arm rewards; unpulled arms score 1."""

    def _scores(self, t: int) -> np.ndarray:
        return np.array([klucb_index(clicks, observations, t)
                         for clicks, observations
                         in zip(self.totals.tolist(), self.pulls.tolist())])


class KLUCBRanker(RankerPolicy):
    """Rank by per-item KL upper confidence bounds."""

    def __init__(self, n_items: int, slate_size: int, horizon: int) -> None:
        super().__init__(n_items, slate_size, horizon)
        self.items = _KLUCBAgent(n_items, self.capacity)


class BernoulliTSRanker(RankerPolicy):
    """Rank by Beta posterior samples of the attraction probabilities."""

    def __init__(self, n_items: int, slate_size: int, horizon: int,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__(n_items, slate_size, horizon)
        self.items = BernoulliTSAgent(n_items, self.capacity, rng)


class BernoulliPHERanker(RankerPolicy):
    """Rank by perturbed-history estimates with fresh coin pseudo rewards."""

    def __init__(self, n_items: int, slate_size: int, horizon: int,
                 a: float = 0.5, rng: np.random.Generator | None = None) -> None:
        super().__init__(n_items, slate_size, horizon)
        self.items = BernoulliPHEAgent(n_items, self.capacity, a, rng)


class RewardPoolRanker(RankerPolicy):
    """Rank by reward-pool perturbed attraction estimates.

    All attraction observations across items feed one shared pool, exactly
    as the multi-armed agent's arms do.  The ranker plays no warm-up, so
    ``z`` plays no part: round 1 has no observation and ranks the leading
    items, and pool draws start at round 2.
    """

    def __init__(self, n_items: int, slate_size: int, horizon: int,
                 params: PoolParams = PoolParams(),
                 rng: np.random.Generator | None = None) -> None:
        super().__init__(n_items, slate_size, horizon)
        self.items = RewardPoolAgent(n_items, self.capacity, params, rng)
