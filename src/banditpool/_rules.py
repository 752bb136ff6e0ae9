"""The input rules the package shares, each stated once.

Each rule is a range test that NaN, which fails every comparison, fails too.
It raises ``ValueError`` naming the field and builds that message only then,
so a rule on a per-round path costs one call.
"""

import math

import numpy as np


def positive_finite(name: str, value) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def nonnegative_finite(name: str, value) -> None:
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be >= 0 and finite, got {value}")


def at_least(name: str, value, low) -> None:
    if not value >= low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def finite(name: str, value) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def all_finite(name: str, values) -> None:
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite")


def strictly_inside_unit(name: str, value) -> None:
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie strictly inside (0, 1), got {value}")


def slate_fits(slate_size, n_items) -> None:
    if not 1 <= slate_size <= n_items:
        raise ValueError(f"slate size must be in [1, {n_items}], got {slate_size}")


def arms_cover_dim(n_arms, dim) -> None:
    if not n_arms >= dim >= 1:
        raise ValueError(f"need K >= d >= 1, got K={n_arms}, d={dim}")


def feature_matrix(features) -> np.ndarray:
    """``features`` as a finite float (K, d) matrix."""
    features = np.asarray(features, dtype=float)
    if features.ndim != 2:
        raise ValueError("features must be a (K, d) matrix")
    all_finite("features", features)
    return features
