"""The linear numerics that moved by rounding, against copies of the old code.

The linear agents once stored every observation's feature row.  Their
perturbed fits summed ``xs.T @ noise`` over those rows, the pool agent formed
its Gram matrix at the first fit as ``lambda I + xs.T @ xs``, and LinTS drew
its noise through ``np.linalg.cholesky`` and ``np.linalg.solve``.  They now
keep arm indices, sum the noise per arm (``features.T @ U``), build the Gram
matrix by rank-one updates with ``lambda I`` added once, and LinTS solves
with the one LAPACK Cholesky factor.  The same random draws enter both forms,
so each reference below must agree with the new code to 1e-12 relative, from
identical generator states, on generated histories.

The perturbed fits later came to give each arm a contiguous block of the
one noise draw, in ascending arm order, rather than the values at its places
in history order.  The law of the noise is unchanged (see
``tests/test_noise_law.py``), and the two replays here hand the draws to the
stored rows sorted by arm, ``arm_ordered_rows``.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditpool.agents import LinRewardPoolAgent, PoolParams, ridge_solve
from banditpool.baselines import LinPHEAgent, LinTSAgent, lints_sample
from banditpool.pool import build_pool
from test_agents import observe

RTOL = 1e-12


def assert_agrees(new, old):
    """``new`` within ``RTOL`` of ``old``, relative to the largest ``|old|``."""
    new, old = np.asarray(new), np.asarray(old)
    assert new.shape == old.shape
    assert np.max(np.abs(new - old)) <= RTOL * max(np.max(np.abs(old)), 1e-300)


@st.composite
def histories(draw):
    """``(features, arms, rewards)``: K arms in d dimensions, with arms
    played round-robin for the first K rounds and at random after.

    The first d feature rows lie near the unit vectors, so every Gram
    matrix is well conditioned and rounding alone separates the two forms.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 6))
    n_arms = draw(st.integers(dim, 12))
    count = draw(st.integers(n_arms, 80))
    features = rng.normal(size=(n_arms, dim))
    features[:dim] = np.eye(dim) + 0.1 * rng.normal(size=(dim, dim))
    arms = np.concatenate([np.arange(n_arms),
                           rng.integers(0, n_arms, size=count - n_arms)])
    rewards = features[arms] @ rng.normal(size=dim) + rng.normal(size=count)
    return features, arms, rewards


def reference_rank_one(ridge_lambda, xs, ys):
    """Gram and ``sum x y`` as LinUCB, LinTS and LinPHE formed them: from
    ``lambda I``, one stored row at a time."""
    gram = ridge_lambda * np.eye(xs.shape[1])
    xy_sum = np.zeros(xs.shape[1])
    for x, y in zip(xs, ys):
        gram += np.outer(x, x)
        xy_sum += y * x
    return gram, xy_sum


def reference_pool_statistics(ridge_lambda, xs, ys, first_fit):
    """The pool agent's Gram and ``sum x y``: formed from the stored rows at
    the first fit, after ``first_fit`` observations, then updated row by row."""
    gram = ridge_lambda * np.eye(xs.shape[1])
    gram += xs[:first_fit].T @ xs[:first_fit]
    xy_sum = np.zeros(xs.shape[1])
    xy_sum += xs[:first_fit].T @ ys[:first_fit]
    for x, y in zip(xs[first_fit:], ys[first_fit:]):
        gram += np.outer(x, x)
        xy_sum += y * x
    return gram, xy_sum


def reference_auto_ridge(warmup_rows):
    return float(np.linalg.eigvalsh(warmup_rows.T @ warmup_rows)[0]) / 3.0


def arm_ordered_rows(features, arms):
    """The feature rows of the observations ``arms``, sorted by arm: the
    order in which the agents hand out their noise values."""
    return features[np.sort(arms, kind="stable")]


def reference_perturbed_fit(gram, xy_sum, xs, noise):
    return ridge_solve(gram, xy_sum + xs.T @ noise)


def reference_lints_sample(gram, xy_sum, sigma_ts, rng):
    theta_hat = ridge_solve(gram, xy_sum)
    chol = np.linalg.cholesky(gram)
    noise = np.linalg.solve(chol.T, rng.standard_normal(gram.shape[0]))
    return theta_hat + sigma_ts * noise


@pytest.mark.parametrize("ridge_lambda", [1.0, "auto", 0.25],
                         ids=["lambda1", "auto", "lambda0.25"])
@settings(deadline=None, max_examples=40)
@given(history=histories(), split=st.floats(0.0, 1.0))
def test_pool_agent_matches_stored_row_fit(ridge_lambda, history, split):
    """Two fits, at the first-fit split and at the end of the history."""
    features, arms, rewards = history
    first_fit = max(len(features), int(split * len(arms)))
    agent = LinRewardPoolAgent(features, len(arms) + 1, PoolParams(),
                               np.random.default_rng(0), ridge_lambda)
    xs, ys = features[arms], rewards
    fits = 0
    for stop in (first_fit, len(arms)):
        observe(agent, arms[fits:stop], ys[fits:stop], start=fits + 1)
        fits = stop
        if fits == first_fit:
            lam = (reference_auto_ridge(xs[:first_fit])
                   if ridge_lambda == "auto" else ridge_lambda)
        gram, xy_sum = reference_pool_statistics(lam, xs[:stop], ys[:stop],
                                                 first_fit)
        rng = copy.deepcopy(agent.rng)
        scores = agent._scores(stop + 1)
        draws = build_pool(ys[:stop], PoolParams().alpha).draw(stop, rng)
        rows = arm_ordered_rows(features, arms[:stop])
        old = features @ reference_perturbed_fit(gram, xy_sum, rows, draws)
        assert_agrees(scores, old)
        assert_agrees(agent.state.gram, gram)
        assert_agrees(agent.state.xy_sum, xy_sum)
        assert_agrees(agent.state.ridge_lambda, lam)


@pytest.mark.parametrize("pseudo_family", ["bernoulli", "gaussian"])
@settings(deadline=None, max_examples=60)
@given(history=histories())
def test_linphe_matches_stored_row_fit(pseudo_family, history):
    features, arms, rewards = history
    agent = LinPHEAgent(features, len(arms) + 1, a=0.7,
                        pseudo_family=pseudo_family,
                        rng=np.random.default_rng(0))
    observe(agent, arms, rewards)
    xs = features[arms]
    gram, xy_sum = reference_rank_one(1.0, xs, rewards)
    assert np.array_equal(agent.state.gram, gram)
    assert np.array_equal(agent.state.xy_sum, xy_sum)
    rng = copy.deepcopy(agent.rng)
    scores = agent._scores(len(arms) + 1)
    if pseudo_family == "bernoulli":
        noise = 0.7 * (rng.integers(0, 2, size=len(arms)) - 0.5)
    else:
        noise = rng.normal(0.0, 0.7, size=len(arms))
    rows = arm_ordered_rows(features, arms)
    assert_agrees(scores, features @ reference_perturbed_fit(gram, xy_sum, rows, noise))


@settings(deadline=None, max_examples=100)
@given(history=histories(), sigma_ts=st.floats(0.05, 3.0))
def test_lints_sample_matches_numpy_cholesky_draw(history, sigma_ts):
    features, arms, rewards = history
    agent = LinTSAgent(features, len(arms) + 1, sigma_ts=sigma_ts,
                       rng=np.random.default_rng(0))
    observe(agent, arms, rewards)
    gram, xy_sum = reference_rank_one(1.0, features[arms], rewards)
    assert np.array_equal(agent.state.gram, gram)
    assert np.array_equal(agent.state.xy_sum, xy_sum)
    rng = copy.deepcopy(agent.rng)
    theta = lints_sample(agent.state, sigma_ts, agent.rng)
    assert_agrees(theta, reference_lints_sample(gram, xy_sum, sigma_ts, rng))
    # Both forms drew the same normals, so the streams stay in step.
    assert agent.rng.bit_generator.state == rng.bit_generator.state
