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
import math
from dataclasses import dataclass

import numpy as np

from .pool import RewardPool, build_pool


@dataclass(frozen=True)
class PoolParams:
    """Knobs of the reward-pool agents.

    ``alpha`` scales the pool values and therefore the perturbation size;
    ``z`` sets the fraction of the reward variance the warm-up must secure,
    which in turn fixes the warm-up length.  ``ridge_lambda`` regularizes the
    linear fit; zero is allowed only for diagnostics (the one-hot reduction),
    production use should keep it positive.  With ``auto_ridge`` the linear
    agent derives the regularizer from the smallest eigenvalue of the warm-up
    Gram matrix instead of using ``ridge_lambda``.
    """

    alpha: float = 0.6
    z: float = 0.6
    ridge_lambda: float = 1.0
    auto_ridge: bool = False

    def __post_init__(self) -> None:
        # Written as range tests so that NaN, which fails every comparison,
        # is rejected along with the out-of-range values.
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(
                f"alpha must be positive and finite, got {self.alpha}")
        if not 0.0 < self.z < 1.0:
            raise ValueError(f"z must lie strictly inside (0, 1), got {self.z}")
        if not 0.0 <= self.ridge_lambda < math.inf:
            raise ValueError(
                f"ridge_lambda must be >= 0 and finite, got {self.ridge_lambda}")


def init_length(horizon: int, z: float, dims: int) -> int:
    """Number of leading round-robin rounds before pool-based selection.

    Returns ``max(dims, ceil(4 * ln(horizon) / (z - 1 - ln z) + 1))``.  The
    denominator is positive for every ``z`` in (0, 1), and the second term is
    sized so the empirical reward variance after warm-up stays above a ``z/2``
    fraction of the true variance with high probability.
    """
    if horizon < 2:
        raise ValueError(f"horizon must be at least 2, got {horizon}")
    if not 0.0 < z < 1.0:
        raise ValueError(f"z must lie strictly inside (0, 1), got {z}")
    if dims < 1:
        raise ValueError(f"dims must be >= 1, got {dims}")
    denom = z - 1.0 - math.log(z)
    return max(dims, math.ceil(4.0 * math.log(horizon) / denom + 1.0))


def perturbed_mean_estimates(totals, counts, noise, owners=None) -> np.ndarray:
    """Per-owner estimates ``(V_i + U_i) / s_i`` with unseen owners forced up.

    ``totals`` are each owner's summed observations and ``counts`` the sizes
    ``s_i`` of the estimates.  ``U_i`` sums the entries of ``noise`` whose
    ``owners`` entry is ``i``; without ``owners``, ``noise`` already holds
    those per-owner sums.  An owner with a zero count gets ``+inf`` so a
    greedy argmax selects it first (lowest index wins).  Once every count is
    positive, as after the pool agent's warm-up, no mask is built.
    """
    totals = np.asarray(totals, dtype=float)
    counts = np.asarray(counts)
    if owners is None:
        sums = np.asarray(noise, dtype=float)
    else:
        sums = np.bincount(owners, weights=noise, minlength=totals.size)
    if counts.all():
        return (totals + sums) / counts
    est = np.full(totals.shape, np.inf)
    seen = counts > 0
    est[seen] = (totals[seen] + sums[seen]) / counts[seen]
    return est


@functools.cache
def _lapack():
    """scipy's LAPACK bindings, imported on the first ridge solve.

    Loading ``scipy.linalg`` takes most of ``import banditpool``'s time, and
    only the linear agents' solves need it, so the MAB, ranking and theory
    code never pay for it.
    """
    from scipy.linalg import lapack

    return lapack


def _cholesky_factor(gram: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of an SPD ``gram`` from LAPACK ``potrf``.

    Only the lower triangle of the result is the factor; the upper one keeps
    whatever ``gram`` held there.  On the small systems solved every round,
    scipy's ``cho_factor``/``cho_solve`` wrapper code costs several times the
    LAPACK work; calling LAPACK directly runs the same routines on the same
    arrays, so results are bit-identical.
    """
    if not np.isfinite(gram).all():
        raise ValueError("gram matrix must be finite")
    factor, info = _lapack().dpotrf(gram, lower=1, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"gram matrix is not SPD: its leading minor of order {info} is "
            "not positive definite")
    return factor


def _cholesky_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``gram @ x = rhs`` (1-D or one column per system) from a factor."""
    if not np.isfinite(rhs).all():
        raise ValueError("right-hand side must be finite")
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


def best_arm(features: np.ndarray, theta: np.ndarray) -> int:
    """Arm maximizing ``x_i . theta`` (lowest index on ties)."""
    return int(np.argmax(features @ theta))


class Agent:
    """Single-run sequential policy: ``select(t)`` then ``update(t, action, feedback)``.

    Subclasses implement ``_choose`` and ``_learn``.  The base class enforces
    the round protocol: every selection must be answered by exactly one
    feedback call for the same round and action.  Feedback that
    ``_check_feedback`` rejects (here, a reward that is not finite) leaves the
    round pending.  Rankers (:mod:`banditpool.ranking`) play slates instead.
    """

    def __init__(self, n_arms: int, horizon: int) -> None:
        if n_arms < 1:
            raise ValueError(f"need at least one arm, got {n_arms}")
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
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
        if not math.isfinite(reward):
            raise ValueError(
                f"reward for round {t}, arm {arm} must be finite, got {reward}")
        return reward

    def _choose(self, t: int):
        raise NotImplementedError

    def _learn(self, t: int, action, feedback) -> None:
        raise NotImplementedError

    def get_params(self) -> dict:
        return {}


class _ArmStatsAgent(Agent):
    """Shared per-arm pull counts and reward totals."""

    def __init__(self, n_arms: int, horizon: int) -> None:
        super().__init__(n_arms, horizon)
        self.pulls = np.zeros(n_arms, dtype=np.int64)
        self.totals = np.zeros(n_arms, dtype=float)
        self._all_pulled = False

    def means(self) -> np.ndarray:
        return self.totals / np.maximum(self.pulls, 1)

    def _unpulled_arm(self) -> int | None:
        """The lowest-numbered arm never pulled, or ``None`` if there is none.

        That is the arm a +inf index for unpulled arms selects.  Pull counts
        never fall, so once every arm has been pulled the counts are not
        scanned again.
        """
        if self._all_pulled:
            return None
        if self.pulls.all():
            self._all_pulled = True
            return None
        return int(self.pulls.argmin())

    def _learn(self, t: int, arm: int, reward: float) -> None:
        self.pulls[arm] += 1
        self.totals[arm] += reward


class RewardPoolAgent(_ArmStatsAgent):
    """Multi-armed bandit agent exploring via its own reward pool.

    After the warm-up, each round rebuilds the pool from all past rewards,
    draws one fresh pool value per past observation, sums the draws per arm,
    and plays the argmax of ``(V_i + U_i) / s_i``.
    """

    def __init__(self, n_arms: int, horizon: int,
                 params: PoolParams = PoolParams(),
                 rng: np.random.Generator | None = None) -> None:
        super().__init__(n_arms, horizon)
        self.params = params
        self.rng = rng if rng is not None else np.random.default_rng()
        self.init_rounds = init_length(horizon, params.z, n_arms)
        self._rewards = np.empty(horizon, dtype=float)
        self._arms = np.empty(horizon, dtype=np.int64)
        self._seen = 0

    def current_pool(self) -> RewardPool:
        if self._seen == 0:
            raise RuntimeError("no rewards observed yet")
        return build_pool(self._rewards[: self._seen], self.params.alpha)

    def perturbed_estimates(self) -> np.ndarray:
        """Fresh pool-perturbed per-arm estimates (new draws every call)."""
        draws = self.current_pool().draw(self._seen, self.rng)
        return perturbed_mean_estimates(self.totals, self.pulls, draws,
                                        self._arms[: self._seen])

    def _choose(self, t: int) -> int:
        if t <= self.init_rounds:
            return (t - 1) % self.n_arms
        return int(self.perturbed_estimates().argmax())

    def _learn(self, t: int, arm: int, reward: float) -> None:
        super()._learn(t, arm, reward)
        self._rewards[self._seen] = reward
        self._arms[self._seen] = arm
        self._seen += 1

    def get_params(self) -> dict:
        return {"alpha": self.params.alpha, "z": self.params.z}


class LinearModelState:
    """Ridge-regression sufficient statistics plus the raw history.

    Keeps the regularized Gram matrix ``lambda * I + sum x x^T``, the
    reward-weighted feature sum, and the full (feature, reward) history so
    per-round re-perturbation can touch every past observation.
    """

    def __init__(self, dim: int, ridge_lambda: float, capacity: int) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if not 0.0 <= ridge_lambda < math.inf:
            raise ValueError(
                f"ridge_lambda must be >= 0 and finite, got {ridge_lambda}")
        self.dim = dim
        self.ridge_lambda = float(ridge_lambda)
        self.gram = ridge_lambda * np.eye(dim)
        self.xy_sum = np.zeros(dim)
        self._x = np.empty((capacity, dim), dtype=float)
        self._y = np.empty(capacity, dtype=float)
        self.count = 0

    @classmethod
    def from_history(cls, xs: np.ndarray, ys: np.ndarray, ridge_lambda: float,
                     capacity: int | None = None) -> "LinearModelState":
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        state = cls(xs.shape[1], ridge_lambda, capacity or xs.shape[0])
        state.gram += xs.T @ xs
        state.xy_sum += xs.T @ ys
        state._x[: xs.shape[0]] = xs
        state._y[: ys.shape[0]] = ys
        state.count = xs.shape[0]
        return state

    @property
    def xs(self) -> np.ndarray:
        return self._x[: self.count]

    @property
    def ys(self) -> np.ndarray:
        return self._y[: self.count]

    def add(self, x: np.ndarray, y: float) -> None:
        if self.count == self._x.shape[0]:
            raise RuntimeError("linear model history capacity exceeded")
        self._x[self.count] = x
        self._y[self.count] = y
        self.count += 1
        self.gram += np.outer(x, x)
        self.xy_sum += y * x

    def mean_fit(self) -> np.ndarray:
        """Unperturbed ridge estimate ``G^{-1} sum x y``."""
        return ridge_solve(self.gram, self.xy_sum)

    def perturbed_fit(self, pool: RewardPool, rng: np.random.Generator) -> np.ndarray:
        """Ridge fit with every past reward shifted by a fresh pool draw.

        Solves ``G theta = sum x_l (y_l + z_l)`` where the ``z_l`` are drawn
        i.i.d. from the pool anew on every call.
        """
        if self.count == 0:
            raise RuntimeError("cannot fit an empty history")
        draws = pool.draw(self.count, rng)
        return ridge_solve(self.gram, self.xy_sum + self.xs.T @ draws)


class LinRewardPoolAgent(Agent):
    """Linear bandit agent: pool-perturbed ridge regression, greedy argmax."""

    def __init__(self, features: np.ndarray, horizon: int,
                 params: PoolParams = PoolParams(),
                 rng: np.random.Generator | None = None) -> None:
        features = np.asarray(features, dtype=float)
        if features.ndim != 2:
            raise ValueError("features must be a (K, d) matrix")
        super().__init__(features.shape[0], horizon)
        self.features = features
        self.dim = features.shape[1]
        self.params = params
        self.rng = rng if rng is not None else np.random.default_rng()
        self.init_rounds = init_length(horizon, params.z, self.dim)
        self._x_hist = np.empty((horizon, self.dim), dtype=float)
        self._y_hist = np.empty(horizon, dtype=float)
        self._seen = 0
        # Built lazily at the first post-warm-up round so auto_ridge can read
        # the warm-up Gram matrix before fixing the regularizer.
        self.state: LinearModelState | None = None

    def _ridge_value(self) -> float:
        if not self.params.auto_ridge:
            return self.params.ridge_lambda
        xs = self._x_hist[: self._seen]
        smallest = float(np.linalg.eigvalsh(xs.T @ xs)[0])
        if smallest <= 0:
            raise RuntimeError(
                "warm-up features are rank deficient; auto_ridge needs a "
                "full-rank warm-up Gram matrix")
        # Fixed point of lam = min_eig(G0 + lam I) / 4 for the regularized gram.
        return smallest / 3.0

    def _ensure_state(self) -> LinearModelState:
        if self.state is None:
            self.state = LinearModelState.from_history(
                self._x_hist[: self._seen], self._y_hist[: self._seen],
                self._ridge_value(), capacity=self.horizon)
        return self.state

    def current_pool(self) -> RewardPool:
        if self._seen == 0:
            raise RuntimeError("no rewards observed yet")
        return build_pool(self._y_hist[: self._seen], self.params.alpha)

    def fit_perturbed(self) -> np.ndarray:
        """One fresh pool-perturbed parameter estimate."""
        return self._ensure_state().perturbed_fit(self.current_pool(), self.rng)

    def _choose(self, t: int) -> int:
        if t <= self.init_rounds:
            return (t - 1) % self.n_arms
        return best_arm(self.features, self.fit_perturbed())

    def _learn(self, t: int, arm: int, reward: float) -> None:
        x = self.features[arm]
        self._x_hist[self._seen] = x
        self._y_hist[self._seen] = reward
        self._seen += 1
        if self.state is not None:
            self.state.add(x, reward)

    def get_params(self) -> dict:
        return {"alpha": self.params.alpha, "z": self.params.z,
                "ridge_lambda": self.params.ridge_lambda,
                "auto_ridge": self.params.auto_ridge}
