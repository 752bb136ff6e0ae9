"""Bandit problem instances: multi-armed, linear, and cascade ranking.

Instances are immutable after generation and safe to share across concurrent
runs; all sampling goes through a caller-owned ``numpy.random.Generator``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from ._rules import all_finite, arms_cover_dim, feature_matrix, finite, slate_fits

FAMILIES = ("bernoulli", "beta", "gaussian")

DEFAULT_BETA_CONCENTRATION = 4.0
DEFAULT_GAUSSIAN_STD = 0.5
DEFAULT_ATTRACTION_LOW = 0.1
DEFAULT_ATTRACTION_HIGH = 0.7


def _in_unit_interval(values: np.ndarray) -> bool:
    """Every value lies in [0, 1]; NaN fails both comparisons."""
    return bool(np.all((values >= 0.0) & (values <= 1.0)))


def _check_family(family: str, means: np.ndarray, v: float, sigma: float) -> None:
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    if not _in_unit_interval(means):
        raise ValueError("mean rewards must lie in [0, 1]")
    finite("beta concentration v", v)
    finite("gaussian reward std sigma", sigma)
    if family == "beta":
        if v <= 0:
            raise ValueError(f"beta concentration v must be positive, got {v}")
        if np.any(means <= 0.0) or np.any(means >= 1.0):
            raise ValueError("beta rewards need means strictly inside (0, 1)")
    if family == "gaussian" and sigma <= 0:
        raise ValueError(f"gaussian reward std must be positive, got {sigma}")


def _draw_reward(mean: float, family: str, v: float, sigma: float,
                 rng: np.random.Generator) -> float:
    if family == "bernoulli":
        return float(rng.random() < mean)
    if family == "beta":
        return float(rng.beta(v * mean, v * (1.0 - mean)))
    return float(rng.normal(mean, sigma))


class _ArmInstance:
    """Arms with one mean reward each, ``means``, in a common reward family:
    sampling and regret accounting shared by the multi-armed and linear
    instances."""

    @property
    def n_arms(self) -> int:
        return self.means.size

    def sample_reward(self, arm: int, rng: np.random.Generator) -> float:
        if not 0 <= arm < self.n_arms:
            raise IndexError(f"arm {arm} out of range [0, {self.n_arms})")
        return _draw_reward(float(self.means[arm]), self.family, self.v,
                            self.sigma, rng)

    def gaps(self) -> np.ndarray:
        """Per-arm suboptimality: best mean minus each arm's mean."""
        return float(self.means.max()) - self.means

    @cached_property
    def _gap_list(self) -> list[float]:
        # A list indexes faster than an array in the per-round ``play``, and
        # each float is its float64 gap exactly.
        return self.gaps().tolist()

    def play(self, arm: int, rng: np.random.Generator) -> tuple[float, float]:
        """One round: a sampled reward of ``arm`` and the arm's gap, its
        expected regret."""
        return self.sample_reward(arm, rng), self._gap_list[arm]


@dataclass(frozen=True, eq=False)
class MabInstance(_ArmInstance):
    """K independent arms with means in [0, 1] and a common reward family."""

    means: np.ndarray
    family: str
    v: float = DEFAULT_BETA_CONCENTRATION       # beta concentration
    sigma: float = DEFAULT_GAUSSIAN_STD         # gaussian reward std

    def __post_init__(self) -> None:
        object.__setattr__(self, "means", np.asarray(self.means, dtype=float))
        if self.means.ndim != 1 or self.means.size < 2:
            raise ValueError("a bandit instance needs at least two arms")
        _check_family(self.family, self.means, self.v, self.sigma)


@dataclass(frozen=True, eq=False)
class LinearInstance(_ArmInstance):
    """Arms with feature vectors; mean reward of arm i is ``x_i . theta``.

    The trailing ``d`` feature rows must form a basis.  ``means`` is one
    product ``features @ theta_star``, taken at construction: rewards are
    drawn around it, and the gaps, and so the regret, are measured from it.
    """

    features: np.ndarray       # (K, d)
    theta_star: np.ndarray     # (d,)
    family: str
    v: float = DEFAULT_BETA_CONCENTRATION
    sigma: float = DEFAULT_GAUSSIAN_STD

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", feature_matrix(self.features))
        object.__setattr__(self, "theta_star", np.asarray(self.theta_star, dtype=float))
        k, d = self.features.shape
        if self.theta_star.shape != (d,):
            raise ValueError("theta_star dimension must match the features")
        all_finite("theta_star", self.theta_star)
        arms_cover_dim(k, d)
        object.__setattr__(self, "means", self.features @ self.theta_star)
        _check_family(self.family, self.means, self.v, self.sigma)
        if np.linalg.matrix_rank(self.features[-d:]) != d:
            raise ValueError("the last d feature vectors must form a basis")


@dataclass(frozen=True, eq=False)
class CascadeInstance:
    """Ranking environment: L items with attraction probabilities, top-down user.

    Each round the agent shows ``slate_size`` items; the simulated user scans
    from the top and clicks the first attracting item, then stops.
    """

    attractions: np.ndarray    # (L,) per-item attraction probabilities
    slate_size: int            # positions shown per round

    def __post_init__(self) -> None:
        object.__setattr__(self, "attractions", np.asarray(self.attractions, dtype=float))
        if self.attractions.ndim != 1 or self.attractions.size < 1:
            raise ValueError("need at least one item")
        if not _in_unit_interval(self.attractions):
            raise ValueError("attraction probabilities must lie in [0, 1]")
        slate_fits(self.slate_size, self.attractions.size)

    @property
    def n_items(self) -> int:
        return self.attractions.size

    def _validate_slate(self, ranked) -> list[int]:
        items = [int(item) for item in ranked]
        if len(items) != self.slate_size:
            raise ValueError(f"slate must contain exactly {self.slate_size} items")
        if min(items) < 0 or max(items) >= self.n_items:
            raise ValueError("slate contains out-of-range item ids")
        if len(set(items)) != len(items):
            raise ValueError("slate contains duplicate items")
        return items

    def expected_clicks(self, ranked) -> float:
        """Probability of at least one click: ``1 - prod(1 - w(item))``.

        The product runs in slate order, the order ``np.prod`` multiplies in.
        """
        weights = self.attractions
        miss = 1.0
        for item in self._validate_slate(ranked):
            miss *= 1.0 - weights[item]
        return float(1.0 - miss)

    def best_slate(self) -> list[int]:
        """Top ``slate_size`` items by attraction (stable, lowest index first)."""
        order = np.argsort(-self.attractions, kind="stable")
        return [int(i) for i in order[: self.slate_size]]

    def step(self, ranked, rng: np.random.Generator) -> int | None:
        """Simulate one user: return the clicked position, or None.

        Positions above the click were examined and did not attract; with no
        click, every shown position was examined.
        """
        for pos, item in enumerate(ranked):
            if rng.random() < self.attractions[item]:
                return pos
        return None

    @cached_property
    def _optimum(self) -> float:
        # At the first play, not at construction: an instance built but never
        # played, as by the runner's up-front agent check, costs nothing.
        return self.expected_clicks(self.best_slate())

    def play(self, ranked, rng: np.random.Generator) -> tuple[int | None, float]:
        """One round: the clicked position (see :meth:`step`) and the slate's
        expected click loss against the best slate."""
        return self.step(ranked, rng), self._optimum - self.expected_clicks(ranked)


def generate_mab(n_arms: int, family: str, rng: np.random.Generator,
                 v: float = DEFAULT_BETA_CONCENTRATION,
                 sigma: float = DEFAULT_GAUSSIAN_STD) -> MabInstance:
    """Draw a random K-armed instance with means i.i.d. Uniform[0.25, 0.75]."""
    if n_arms < 2:
        raise ValueError(f"need at least two arms, got {n_arms}")
    means = rng.uniform(0.25, 0.75, size=n_arms)
    return MabInstance(means=means, family=family, v=v, sigma=sigma)


def generate_linear(n_arms: int, dim: int, family: str, rng: np.random.Generator,
                    v: float = DEFAULT_BETA_CONCENTRATION,
                    sigma: float = DEFAULT_GAUSSIAN_STD) -> LinearInstance:
    """Draw a random linear instance with mean rewards inside [0.25, 0.75].

    Raw coordinates are negated lognormal magnitudes with a positive random
    weight vector, so raw scores are left-skewed: most arms sit near the top
    of the mean range with a thin tail of poor arms.  The raw scores are
    affinely remapped onto [0.25, 0.75], folded into the model by appending a
    constant feature coordinate and rescaling the weights, so the instance is
    exactly linear in ``dim`` dimensions.  One draw suffices: the draws are
    continuous, so a tied score range or a rank-deficient trailing block has
    probability zero, and ``LinearInstance`` owns the basis rule.
    """
    arms_cover_dim(n_arms, dim)
    if dim == 1:
        # No room for a constant coordinate: put the target means into the
        # features directly and keep the parameter at 1.
        features = rng.uniform(0.25, 0.75, size=(n_arms, 1))
        theta = np.ones(1)
    else:
        raw = -rng.lognormal(0.0, 1.0, size=(n_arms, dim - 1))
        theta_raw = rng.uniform(0.0, 1.0, size=dim - 1)
        scores = raw @ theta_raw
        lo, hi = float(scores.min()), float(scores.max())
        scale = 0.5 / (hi - lo)
        features = np.hstack([raw, np.ones((n_arms, 1))])
        theta = np.concatenate([scale * theta_raw, [0.25 - scale * lo]])
    return LinearInstance(features=features, theta_star=theta, family=family,
                          v=v, sigma=sigma)


def generate_cascade(n_items: int, slate_size: int, rng: np.random.Generator,
                     low: float = DEFAULT_ATTRACTION_LOW,
                     high: float = DEFAULT_ATTRACTION_HIGH) -> CascadeInstance:
    """Draw a synthetic cascade instance with Uniform[low, high] attractions."""
    if not 0.0 <= low <= high <= 1.0:
        raise ValueError(f"need 0 <= low <= high <= 1, got {low}, {high}")
    attractions = rng.uniform(low, high, size=n_items)
    return CascadeInstance(attractions=attractions, slate_size=slate_size)


def save_cascade_file(instance: CascadeInstance, path) -> None:
    """Write a cascade model file: header ``L=<int> K=<int>``, then one
    ``item_id<TAB>attraction`` record per line."""
    lines = [f"L={instance.n_items} K={instance.slate_size}"]
    for item, w in enumerate(instance.attractions):
        lines.append(f"{item}\t{float(w)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_cascade_file(path) -> CascadeInstance:
    """Read a cascade model file written by :func:`save_cascade_file`."""
    text = Path(path).read_text().strip().splitlines()
    if not text:
        raise ValueError(f"{path}: empty cascade model file")
    header = text[0].split()
    try:
        keys = dict(part.split("=", 1) for part in header)
        if len(header) != 2 or keys.keys() != {"L", "K"}:
            raise ValueError("expected exactly the keys L and K")
        n_items = int(keys["L"])
        slate = int(keys["K"])
    except ValueError as exc:
        raise ValueError(f"{path}: malformed header {text[0]!r}") from exc
    if len(text) - 1 != n_items:
        raise ValueError(f"{path}: expected {n_items} records, found {len(text) - 1}")
    attractions = np.full(n_items, -1.0)
    for line in text[1:]:
        try:
            item, weight = line.split("\t")
            item, weight = int(item), float(weight)
        except ValueError as exc:
            raise ValueError(f"{path}: malformed record {line!r}") from exc
        if not 0 <= item < n_items:
            raise ValueError(f"{path}: item id {item} out of range")
        if attractions[item] >= 0:
            raise ValueError(f"{path}: duplicate record for item {item}")
        if not 0.0 <= weight <= 1.0:
            raise ValueError(
                f"{path}: attraction of item {item} must lie in [0, 1], "
                f"got {weight}")
        attractions[item] = weight
    try:
        return CascadeInstance(attractions=attractions, slate_size=slate)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
