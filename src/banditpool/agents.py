"""Exploration by resampling the agent's own reward history.

The agents here perturb every observed reward with a value drawn from the
centered, scaled pool of all past rewards (see :mod:`banditpool.pool`) before
estimating mean rewards.  Because the pool's variance tracks the empirical
reward variance, the amount of exploration adapts to the problem without any
externally tuned noise scale.

Both agents follow the same schedule: a warm-up of round-robin pulls long
enough to guarantee the pool variance with high probability, then greedy
selection on pool-perturbed estimates with fresh draws every round.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._rules import (all_finite, at_least, feature_matrix, finite,
                     nonnegative_finite, positive_finite, strictly_inside_unit)
from .pool import RewardPool, build_pool, variance_floor_threshold


@dataclass(frozen=True)
class PoolParams:
    """Knobs of the reward pool that every pool agent shares.

    ``alpha`` scales the pool values and therefore the perturbation size;
    ``z`` sets the fraction of the reward variance the warm-up must secure,
    which in turn fixes the warm-up length.  The linear agent takes its
    ridge regularizer as an argument of its own.
    """

    alpha: float = 0.6
    z: float = 0.6

    def __post_init__(self) -> None:
        positive_finite("alpha", self.alpha)
        strictly_inside_unit("z", self.z)


def init_length(horizon: int, z: float, dims: int) -> int:
    """Number of leading round-robin rounds before pool-based selection.

    Returns ``max(dims, ceil(variance_floor_threshold(horizon, z)))``: long
    enough that the empirical reward variance after warm-up stays above a
    ``z/2`` fraction of the true variance with high probability.
    """
    threshold = variance_floor_threshold(horizon, z)
    at_least("dims", dims, 1)
    return max(dims, math.ceil(threshold))


def perturbed_mean_estimates(totals, counts, sums) -> np.ndarray:
    """Per-arm estimates ``(V_i + U_i) / s_i`` with unseen arms forced up.

    ``totals`` are each arm's summed observations ``V_i``, ``counts`` the
    sizes ``s_i`` of the estimates and ``sums`` the noise sums ``U_i``, such
    as a pool agent's ``_arm_noise()``.  An arm with a zero count gets
    ``+inf`` so a greedy argmax selects it first (lowest index wins).
    """
    counts = np.asarray(counts)
    return np.divide(np.add(totals, sums, dtype=float), counts,
                     where=counts > 0, out=np.full(counts.shape, np.inf))


def block_sums(values, sizes) -> np.ndarray:
    """The sum of each contiguous block of ``values``: blocks of ``sizes[i]``
    values, taken in order, that together cover ``values``; exactly 0 for an
    empty block.  It is every perturbed-history agent's per-arm noise sum."""
    sizes = np.asarray(sizes)
    starts = np.add.accumulate(sizes) - sizes
    # reduceat gives ``values[start]`` for an empty block and raises for a
    # start of ``len(values)``, so only the non-empty blocks' starts enter.
    sums = np.zeros(sizes.shape)
    nonempty = sizes > 0
    sums[nonempty] = np.add.reduceat(values, starts[nonempty])
    return sums


@functools.cache
def _lapack():
    """scipy's LAPACK extension module, loaded on the first ridge solve.

    The solves call its ``dpotrf``, ``dpotrs`` and ``dtrtrs``, which
    ``scipy.linalg.lapack`` re-exports.  Only ``scipy`` and this one file are
    loaded, not all of ``scipy.linalg`` (about 23 MB and 0.2 s more), under
    the module's real name, so a ``scipy.linalg`` imported before or after
    shares it.  The MAB, ranking and theory code load neither.
    """
    import scipy

    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    folder = Path(scipy.__file__).parent / "linalg"
    paths = [folder / f"_flapack{suffix}"
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((str(p) for p in paths if p.is_file()), None)
    if path is None:
        raise ImportError(f"no _flapack extension module in {folder}")
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_loader(name, loader))
    sys.modules[name] = module
    loader.exec_module(module)
    return module


def _cholesky_factor(gram: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of an SPD ``gram`` from LAPACK ``potrf``.

    Only the lower triangle of the result is the factor; the upper one keeps
    whatever ``gram`` held there.  On the small systems solved every round,
    scipy's ``cho_factor``/``cho_solve`` wrapper code costs several times the
    LAPACK work; calling LAPACK directly runs the same routines on the same
    arrays, so results are bit-identical.
    """
    all_finite("gram matrix", gram)
    factor, info = _lapack().dpotrf(gram, lower=1, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"gram matrix is not SPD: its leading minor of order {info} is "
            "not positive definite")
    return factor


def _cholesky_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``gram @ x = rhs`` (1-D or one column per system) from a factor."""
    all_finite("right-hand side", rhs)
    # A non-zero info from potrs flags only an illegal argument, and the
    # wrapper already rejects a malformed one with its own exception.
    solution, _ = _lapack().dpotrs(factor, rhs, lower=1)
    return solution


def ridge_solve(gram: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Solve ``gram @ theta = target`` for an SPD gram via Cholesky.

    Raises ``ValueError`` for a non-finite ``gram`` or ``target`` and
    ``np.linalg.LinAlgError`` when ``gram`` is not positive definite.
    """
    return _cholesky_solve(_cholesky_factor(gram), target)


class Agent:
    """Single-run sequential policy: ``select(t)`` then ``update(t, action, feedback)``.

    Subclasses implement ``_scores`` and ``_learn``.  Each round plays
    ``_forced(t)`` when that is not ``None``, and otherwise the argmax of
    ``_scores(t)`` (lowest index on ties).  The base ``_forced`` plays
    round-robin through the first ``init_rounds`` rounds, none by default.
    The base class enforces the round protocol: every selection must be
    answered by exactly one feedback call for the same round and action.
    Feedback that ``_check_feedback`` rejects (here, a reward that is not
    finite) leaves the round pending.  Rankers (:mod:`banditpool.ranking`)
    play slates instead.
    """

    init_rounds = 0

    def __init__(self, n_arms: int, horizon: int) -> None:
        if n_arms < 1:
            raise ValueError(f"need at least one arm, got {n_arms}")
        at_least("horizon", horizon, 1)
        self.n_arms = int(n_arms)
        self.horizon = int(horizon)
        self._pending: tuple[int, object] | None = None

    def select(self, t: int):
        if not 1 <= t <= self.horizon:
            raise ValueError(f"round {t} outside [1, {self.horizon}]")
        if self._pending is not None:
            raise RuntimeError(f"round {self._pending[0]} still awaits feedback")
        action = self._choose(t)
        self._pending = (t, self._key(action))
        return action

    def update(self, t: int, action, feedback) -> None:
        if self._pending != (t, self._key(action)):
            raise RuntimeError(
                f"feedback for round {t}, action {action} does not match the "
                f"pending selection {self._pending}")
        feedback = self._check_feedback(t, action, feedback)
        self._pending = None
        self._learn(t, action, feedback)

    @staticmethod
    def _key(action):
        """``action`` as ``_pending`` holds it."""
        return action

    def _check_feedback(self, t: int, arm: int, reward) -> float:
        """The reward as a float; ``ValueError`` unless it is finite."""
        reward = float(reward)
        # Tested here so that the message is built only for a bad reward.
        if not math.isfinite(reward):
            finite(f"reward for round {t}, arm {arm}", reward)
        return reward

    def _choose(self, t: int):
        forced = self._forced(t)
        if forced is not None:
            return forced
        return int(self._scores(t).argmax())

    def _forced(self, t: int) -> int | None:
        """The action round ``t`` must play whatever the scores, or ``None``."""
        if t <= self.init_rounds:
            return (t - 1) % self.n_arms
        return None

    def _scores(self, t: int) -> np.ndarray:
        """One score per arm; called only in rounds with no forced action."""
        raise NotImplementedError

    def _learn(self, t: int, action, feedback) -> None:
        raise NotImplementedError


class _ArmStatsAgent(Agent):
    """Shared per-arm pull counts and reward totals."""

    def __init__(self, n_arms: int, horizon: int) -> None:
        super().__init__(n_arms, horizon)
        self.pulls = np.zeros(n_arms, dtype=np.int64)
        self.totals = np.zeros(n_arms, dtype=float)

    def _learn(self, t: int, arm: int, reward: float) -> None:
        self.pulls[arm] += 1
        self.totals[arm] += reward

    def _estimate(self, sums: np.ndarray) -> np.ndarray:
        """``(V_i + U_i) / s_i`` for the per-arm noise sums ``U``."""
        return perturbed_mean_estimates(self.totals, self.pulls, sums)


class _PerturbedHistory:
    """The one body of the agents that perturb their history (both pool
    agents and LinPHE), a mixin listed ahead of the ``Agent`` base whose
    ``pulls`` count each arm's observations.  ``_seen`` counts them all;
    ``_arm_noise`` is the one draw site of the noise ``U``, and ``_scores``
    refits with ``_estimate(U)``."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._seen = 0

    def _learn(self, t: int, arm: int, reward: float) -> None:
        super()._learn(t, arm, reward)
        self._seen += 1

    def _arm_noise(self) -> np.ndarray:
        """``U``: one ``_noise(m)`` draw of a value per stored observation,
        cut into contiguous blocks of ``pulls[i]`` values in ascending arm
        order and summed per block; exactly 0 for an arm with no
        observation.  The values are i.i.d., so which one lands on which
        observation does not change the joint law of ``U``."""
        return block_sums(self._noise(self._seen), self.pulls)

    def _scores(self, t: int) -> np.ndarray:
        """Fresh draws every call; all ``+inf``, with nothing drawn, while no
        reward is stored (only in a ranker's first round: no warm-up)."""
        if self._seen == 0:
            return np.full(self.n_arms, np.inf)
        return self._estimate(self._arm_noise())


class _PoolExploration(_PerturbedHistory):
    """The pool agents' noise and the rewards it reads: each round rebuilds
    the pool from all past rewards and draws one value per observation.
    Neither pool agent subclasses the other: perfbench's tracer wraps
    ``select`` and ``update`` of both, and inheritance would nest the spans."""

    def _start_pool(self, params: PoolParams, rng: np.random.Generator | None,
                    dims: int) -> None:
        self.params = params
        self.rng = rng if rng is not None else np.random.default_rng()
        self.init_rounds = init_length(self.horizon, params.z, dims)
        self._rewards = np.empty(self.horizon, dtype=float)

    def _learn(self, t: int, arm: int, reward: float) -> None:
        self._rewards[self._seen] = reward
        super()._learn(t, arm, reward)

    def current_pool(self) -> RewardPool:
        if self._seen == 0:
            raise RuntimeError("no rewards observed yet")
        return build_pool(self._rewards[: self._seen], self.params.alpha)

    def _noise(self, m: int) -> np.ndarray:
        return self.current_pool().draw(m, self.rng)


class RewardPoolAgent(_PoolExploration, _ArmStatsAgent):
    """Multi-armed bandit agent exploring via its own reward pool: it plays
    the argmax of ``(V_i + U_i) / s_i``."""

    def __init__(self, n_arms: int, horizon: int,
                 params: PoolParams = PoolParams(),
                 rng: np.random.Generator | None = None) -> None:
        super().__init__(n_arms, horizon)
        self._start_pool(params, rng, n_arms)


class LinearModelState:
    """A linear agent's ridge statistics ``gram = sum x x^T`` and ``xy_sum =
    sum x y``, kept by rank-one updates; ``regularize`` adds ``lambda * I``
    to ``gram`` once, before the first fit.  No observation is stored."""

    def __init__(self, dim: int) -> None:
        at_least("dim", dim, 1)
        self.dim = dim
        self.ridge_lambda: float | None = None
        self.gram = np.zeros((dim, dim))
        self.xy_sum = np.zeros(dim)

    def regularize(self, ridge_lambda: float) -> None:
        nonnegative_finite("ridge_lambda", ridge_lambda)
        self.ridge_lambda = float(ridge_lambda)
        self.gram += ridge_lambda * np.eye(self.dim)

    def add(self, x: np.ndarray, y: float) -> None:
        self.gram += np.outer(x, x)
        self.xy_sum += y * x


class _LinearAgent(Agent):
    """A ridge fit over a fixed, finite arm-feature matrix: each observation
    joins ``state``.  A ``ridge_lambda`` given here regularizes at once and
    must be positive (a fit in round 1 sees ``lambda * I`` alone); without
    one the subclass regularizes before its first fit."""

    def __init__(self, features: np.ndarray, horizon: int,
                 ridge_lambda: float | None = None) -> None:
        features = feature_matrix(features)
        super().__init__(features.shape[0], horizon)
        self.features = features
        self.dim = features.shape[1]
        self.state = LinearModelState(self.dim)
        if ridge_lambda is not None:
            positive_finite("ridge_lambda", ridge_lambda)
            self.state.regularize(ridge_lambda)

    def _learn(self, t: int, arm: int, reward: float) -> None:
        self.state.add(self.features[arm], reward)

    def _perturbed_fit(self, sums: np.ndarray) -> np.ndarray:
        """Solve ``G theta = sum x y + features^T U``: the ridge fit with each
        past reward shifted by its own noise value, ``U`` summing them per arm."""
        return ridge_solve(self.state.gram,
                           self.state.xy_sum + self.features.T @ sums)

    def _estimate(self, sums: np.ndarray) -> np.ndarray:
        return self.features @ self._perturbed_fit(sums)


class _PerturbedLinearAgent(_LinearAgent):
    """The base of the linear agents that perturb their history: it also
    counts each arm's observations in ``pulls``, the block sizes of their
    noise."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.pulls = np.zeros(self.n_arms, dtype=np.int64)

    def _learn(self, t: int, arm: int, reward: float) -> None:
        self.pulls[arm] += 1
        super()._learn(t, arm, reward)


class LinRewardPoolAgent(_PoolExploration, _PerturbedLinearAgent):
    """Linear bandit agent: pool-perturbed ridge regression, greedy argmax.

    ``ridge_lambda`` regularizes the fit.  Zero is allowed only for
    diagnostics (the one-hot reduction to the multi-armed agent);
    production use keeps it positive.  ``"auto"`` derives it from the
    smallest eigenvalue of the warm-up Gram matrix, which is why the ridge
    term joins the Gram matrix at the first round after the warm-up.
    """

    def __init__(self, features: np.ndarray, horizon: int,
                 params: PoolParams = PoolParams(),
                 rng: np.random.Generator | None = None,
                 ridge_lambda: float | str = 1.0) -> None:
        if ridge_lambda != "auto":
            nonnegative_finite("ridge_lambda", ridge_lambda)
        super().__init__(features, horizon)
        self._start_pool(params, rng, self.dim)
        self._ridge = ridge_lambda

    def _ridge_value(self) -> float:
        if self._ridge != "auto":
            return self._ridge
        smallest = float(np.linalg.eigvalsh(self.state.gram)[0])
        if smallest <= 0:
            raise RuntimeError(
                "warm-up features are rank deficient; ridge_lambda 'auto' "
                "needs a full-rank warm-up Gram matrix")
        # Fixed point of lam = min_eig(G0 + lam I) / 4 for the regularized gram.
        return smallest / 3.0

    def _estimate(self, sums: np.ndarray) -> np.ndarray:
        if self.state.ridge_lambda is None:
            self.state.regularize(self._ridge_value())
        return super()._estimate(sums)
