"""Bad parameters are rejected where they enter, naming the field.

NaN fails every comparison, so a check written as ``x <= 0`` lets it through;
a NaN ``alpha``, for one, made the MAB pool agent pull arm 0 every round
after its warm-up.  Each entry point below must raise ``ValueError`` instead.
Every table pins the whole message, so the wording of each input rule stays
the same wherever the rule is stated.
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest

import banditpool
from banditpool import theory
from banditpool.agents import (
    Agent,
    LinearModelState,
    LinRewardPoolAgent,
    PoolParams,
    RewardPoolAgent,
    init_length,
    ridge_solve,
)
from banditpool.baselines import (
    BernoulliPHEAgent,
    GaussianPHEAgent,
    GaussianTSAgent,
    LinPHEAgent,
    LinTSAgent,
    LinUCBAgent,
    UCB1Agent,
    UCBVAgent,
)
from banditpool.envs import (
    CascadeInstance,
    LinearInstance,
    MabInstance,
    generate_cascade,
    generate_linear,
    load_cascade_file,
)
from banditpool.pool import build_pool, variance_floor_threshold
from banditpool.ranking import BernoulliPHERanker, exploration_budget

NAN, INF = math.nan, math.inf
FEATURES = np.eye(2)
MC = theory.MIN_MC_TRIALS


def raises_exactly(message, build):
    """``build()`` raises ``ValueError`` whose whole text is ``message``."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def nan_reward():
    agent = UCB1Agent(2, 10)
    agent.update(1, agent.select(1), NAN)


@pytest.mark.parametrize("message, build", [
    ("alpha must be positive and finite, got nan",
     lambda: PoolParams(alpha=NAN)),
    ("alpha must be positive and finite, got inf",
     lambda: PoolParams(alpha=INF)),
    ("z must lie strictly inside (0, 1), got nan", lambda: PoolParams(z=NAN)),
    ("ridge_lambda must be >= 0 and finite, got nan",
     lambda: PoolParams(ridge_lambda=NAN)),
    ("ridge_lambda must be >= 0 and finite, got inf",
     lambda: PoolParams(ridge_lambda=INF)),
    ("alpha must be positive and finite, got nan",
     lambda: build_pool([0.0, 1.0], NAN)),
    ("ridge_lambda must be >= 0 and finite, got nan",
     lambda: LinearModelState(2).regularize(NAN)),
], ids=["pool-alpha-nan", "pool-alpha-inf", "pool-z-nan", "pool-lambda-nan",
        "pool-lambda-inf", "build_pool-alpha", "linear-state-lambda"])
def test_pool_parameters(message, build):
    raises_exactly(message, build)


@pytest.mark.parametrize("message, build", [
    ("mean rewards must lie in [0, 1]",
     lambda: MabInstance(means=[NAN, 0.5], family="bernoulli")),
    ("beta concentration v must be finite, got nan",
     lambda: MabInstance(means=[0.2, 0.5], family="beta", v=NAN)),
    ("beta concentration v must be finite, got inf",
     lambda: MabInstance(means=[0.2, 0.5], family="beta", v=INF)),
    ("gaussian reward std sigma must be finite, got nan",
     lambda: MabInstance(means=[0.2, 0.5], family="gaussian", sigma=NAN)),
    ("theta_star must be finite",
     lambda: LinearInstance(FEATURES, [NAN, 0.5], "bernoulli")),
    ("features must be finite",
     lambda: LinearInstance([[NAN, 0.0], [0.0, 1.0]], [0.5, 0.5],
                            "bernoulli")),
    ("attraction probabilities must lie in [0, 1]",
     lambda: CascadeInstance(attractions=[0.2, NAN], slate_size=1)),
], ids=["mab-means", "mab-v-nan", "mab-v-inf", "mab-sigma", "linear-theta",
        "linear-features", "cascade-attractions"])
def test_environment_parameters(message, build):
    raises_exactly(message, build)


def test_cascade_file_with_a_nan_record(tmp_path):
    path = tmp_path / "q.txt"
    path.write_text("L=2 K=1\n0\t0.3\n1\tnan\n")
    raises_exactly(f"{path}: attraction of item 1 must lie in [0, 1], got nan",
                   lambda: load_cascade_file(path))


@pytest.mark.parametrize("message, build", [
    ("range_bound must be positive and finite, got nan",
     lambda: UCBVAgent(2, 10, range_bound=NAN)),
    ("sigma must be positive and finite, got nan",
     lambda: GaussianTSAgent(2, 10, sigma=NAN)),
    ("prior_mean must be finite, got nan",
     lambda: GaussianTSAgent(2, 10, prior_mean=NAN)),
    ("perturbation scale a must be positive and finite, got nan",
     lambda: BernoulliPHEAgent(2, 10, a=NAN)),
    ("perturbation scale a must be positive and finite, got inf",
     lambda: GaussianPHEAgent(2, 10, a=INF)),
    ("width must be >= 0 and finite, got nan",
     lambda: LinUCBAgent(FEATURES, 10, width=NAN)),
    ("ridge_lambda must be positive and finite, got nan",
     lambda: LinUCBAgent(FEATURES, 10, ridge_lambda=NAN)),
    ("sigma_ts must be >= 0 and finite, got nan",
     lambda: LinTSAgent(FEATURES, 10, sigma_ts=NAN)),
    ("perturbation scale a must be positive and finite, got nan",
     lambda: LinPHEAgent(FEATURES, 10, a=NAN)),
    ("perturbation scale a must be positive and finite, got nan",
     lambda: BernoulliPHERanker(3, 2, 10, a=NAN)),
], ids=["ucbv-range_bound", "gauss_ts-sigma", "gauss_ts-prior_mean",
        "bern_phe-a", "gauss_phe-a", "linucb-width", "linucb-lambda",
        "lints-sigma_ts", "linphe-a", "bern_phe_ranker-a"])
def test_baseline_parameters(message, build):
    raises_exactly(message, build)


@pytest.mark.parametrize("cls", [LinRewardPoolAgent, LinUCBAgent, LinTSAgent,
                                 LinPHEAgent])
def test_linear_agent_features(cls):
    """A NaN feature row is rejected when the agent is built, not rounds
    later by a ridge solve."""
    raises_exactly("features must be finite",
                   lambda: cls(np.array([[NAN, 0.0], [0.0, 1.0]]), 10))


@pytest.mark.parametrize("message, build", [
    # agents
    ("alpha must be positive and finite, got 0.0",
     lambda: PoolParams(alpha=0.0)),
    ("z must lie strictly inside (0, 1), got 1.0", lambda: PoolParams(z=1.0)),
    ("ridge_lambda must be >= 0 and finite, got -1.0",
     lambda: PoolParams(ridge_lambda=-1.0)),
    ("horizon must be >= 1, got 0", lambda: init_length(0, 0.6, 1)),
    ("z must lie strictly inside (0, 1), got 0.0",
     lambda: init_length(100, 0.0, 1)),
    ("dims must be >= 1, got 0", lambda: init_length(100, 0.6, 0)),
    ("horizon must be >= 1, got 0", lambda: Agent(2, 0)),
    ("dim must be >= 1, got 0", lambda: LinearModelState(0)),
    ("ridge_lambda must be >= 0 and finite, got -1.0",
     lambda: LinearModelState(2).regularize(-1.0)),
    ("features must be a (K, d) matrix", lambda: LinUCBAgent(np.ones(3), 10)),
    ("ridge_lambda must be positive and finite, got 0.0",
     lambda: LinTSAgent(FEATURES, 10, ridge_lambda=0.0)),
    ("gram matrix must be finite",
     lambda: ridge_solve(np.array([[NAN]]), np.ones(1))),
    ("right-hand side must be finite",
     lambda: ridge_solve(np.eye(1), np.array([INF]))),
    ("reward for round 1, arm 0 must be finite, got nan", nan_reward),
    # pool
    ("alpha must be positive and finite, got -1.0",
     lambda: build_pool([0.0, 1.0], -1.0)),
    ("draw count must be >= 0, got -1",
     lambda: build_pool([0.0, 1.0], 1.0).draw(-1, np.random.default_rng(0))),
    ("horizon must be >= 1, got 0", lambda: variance_floor_threshold(0, 0.6)),
    ("z must lie strictly inside (0, 1), got nan",
     lambda: variance_floor_threshold(10, NAN)),
    # theory
    ("horizon must be >= 1, got 0", lambda: theory.pool_check_bound(0, 5)),
    ("trials must be >= 1, got 0", lambda: theory.pool_check_bound(5, 0)),
    ("alpha must be positive and finite, got nan",
     lambda: theory.check_value_bound(alpha=NAN)),
    ("sigma must be >= 0 and finite, got -1.0",
     lambda: theory.check_variance_floor(sigma=-1.0)),
    ("trials must be >= 10000, got 9999",
     lambda: theory.check_shifted_ball(np.eye(2), np.zeros(2), 1.0,
                                       trials=MC - 1)),
    ("transform must be finite",
     lambda: theory.check_shifted_ball(np.array([[NAN, 0.0], [0.0, 1.0]]),
                                       np.zeros(2), 1.0, trials=MC)),
    ("shift must be finite",
     lambda: theory.check_shifted_ball(np.eye(2), np.array([0.0, INF]), 1.0,
                                       trials=MC)),
    ("radius must be positive and finite, got inf",
     lambda: theory.check_shifted_ball(np.eye(2), np.zeros(2), INF,
                                       trials=MC)),
    ("trials must be >= 2, got 1",
     lambda: theory.check_posterior_match(trials=1)),
    ("pulls must be >= 0, got -1",
     lambda: theory.check_posterior_match(pulls=-1)),
    ("prior_mean must be finite, got inf",
     lambda: theory.check_posterior_match(prior_mean=INF)),
    ("sigma must be >= 0 and finite, got nan",
     lambda: theory.check_posterior_match(sigma=NAN)),
    ("rewards must be finite",
     lambda: theory.check_posterior_match(pulls=2, rewards=[0.0, NAN])),
    ("std must be positive and finite, got nan",
     lambda: theory.check_tail_mass(std=NAN)),
    ("trials must be >= 1, got 0", lambda: theory.check_tail_mass(trials=0)),
    ("seed must be >= 0, got -1",
     lambda: theory.validate_battery(-1, 1000, 2000, MC)),
    ("mc_trials must be >= 10000, got 9999",
     lambda: theory.validate_battery(0, 1000, 2000, MC - 1)),
    # baselines
    ("range_bound must be positive and finite, got 0.0",
     lambda: UCBVAgent(2, 10, range_bound=0.0)),
    ("sigma must be positive and finite, got -0.5",
     lambda: GaussianTSAgent(2, 10, sigma=-0.5)),
    ("perturbation scale a must be positive and finite, got 0.0",
     lambda: BernoulliPHEAgent(2, 10, a=0.0)),
    ("perturbation scale a must be positive and finite, got -1.0",
     lambda: LinPHEAgent(FEATURES, 10, a=-1.0)),
    ("width must be >= 0 and finite, got inf",
     lambda: LinUCBAgent(FEATURES, 10, width=INF)),
    ("sigma_ts must be >= 0 and finite, got -1.0",
     lambda: LinTSAgent(FEATURES, 10, sigma_ts=-1.0)),
    # ranking
    ("round must be >= 1, got 0", lambda: exploration_budget(0)),
    ("slate size must be in [1, 3], got 4", lambda: BernoulliPHERanker(3, 4, 10)),
    # envs
    ("gaussian reward std sigma must be finite, got inf",
     lambda: MabInstance(means=[0.2, 0.5], family="gaussian", sigma=INF)),
    ("beta concentration v must be finite, got nan",
     lambda: LinearInstance(FEATURES, [0.5, 0.5], "beta", v=NAN)),
    ("features must be a (K, d) matrix",
     lambda: LinearInstance(np.ones(2), [0.5, 0.5], "bernoulli")),
    ("theta_star dimension must match the features",
     lambda: LinearInstance(FEATURES, [0.5, 0.5, 0.5], "bernoulli")),
    ("need K >= d >= 1, got K=1, d=2",
     lambda: LinearInstance(FEATURES[:1], [0.5, 0.5], "bernoulli")),
    ("need K >= d >= 1, got K=2, d=3",
     lambda: generate_linear(2, 3, "bernoulli", np.random.default_rng(0))),
    ("slate size must be in [1, 2], got 0",
     lambda: CascadeInstance(np.array([0.5, 0.2]), 0)),
], ids=["pool-alpha-zero", "pool-z-one", "pool-lambda-negative",
        "init_length-horizon", "init_length-z", "init_length-dims",
        "agent-horizon", "linear-state-dim",
        "linear-state-lambda-negative", "linear-agent-features-shape",
        "linear-agent-lambda-zero", "cholesky-gram", "cholesky-rhs",
        "feedback-reward", "build_pool-alpha-negative", "draw-count",
        "threshold-horizon", "threshold-z", "bound-horizon", "bound-trials",
        "value_bound-alpha", "variance_floor-sigma", "ball-trials",
        "ball-transform", "ball-shift", "ball-radius", "posterior-trials",
        "posterior-pulls", "posterior-prior_mean", "posterior-sigma",
        "posterior-rewards", "tail-std", "tail-trials", "battery-seed",
        "battery-mc_trials", "ucbv-range_bound-zero",
        "gauss_ts-sigma-negative", "bern_phe-a-zero", "linphe-a-negative",
        "linucb-width-inf", "lints-sigma_ts-negative",
        "exploration_budget-round", "ranker-slate-size", "mab-sigma-inf",
        "linear-v-nan", "linear-features-shape", "linear-theta-shape",
        "linear-arms-below-dim", "generate-linear-arms-below-dim",
        "cascade-slate-size"])
def test_rule_messages(message, build):
    raises_exactly(message, build)


RULE_TEMPLATES = ("must be positive and finite, got",
                  "must be >= 0 and finite, got", "must be finite",
                  "must lie strictly inside (0, 1), got",
                  "features must be a (K, d) matrix",
                  "slate size must be in [1, ", "need K >= d >= 1, got")


@pytest.mark.parametrize("template", RULE_TEMPLATES)
def test_each_rule_is_written_only_in_the_rules_module(template):
    """Every other module states a shared rule by calling ``_rules``."""
    package = Path(banditpool.__file__).parent
    owners = [path.name for path in sorted(package.glob("*.py"))
              if template in path.read_text()]
    assert owners == ["_rules.py"]


def rank_deficient_auto_ridge():
    """Warm up a ridge-deriving agent on features whose second column is 0."""
    agent = LinRewardPoolAgent(np.array([[1.0, 0.0], [2.0, 0.0]]), 300,
                               PoolParams(auto_ridge=True), np.random.default_rng(0))
    for t in range(1, 301):
        agent.update(t, agent.select(t), 0.5)


@pytest.mark.parametrize("error, message, build", [
    # envs
    (ValueError, "beta concentration v must be positive, got 0.0",
     lambda: MabInstance(means=[0.2, 0.5], family="beta", v=0.0)),
    (ValueError, "beta rewards need means strictly inside (0, 1)",
     lambda: MabInstance(means=[0.0, 0.5], family="beta")),
    (ValueError, "beta rewards need means strictly inside (0, 1)",
     lambda: MabInstance(means=[0.5, 1.0], family="beta")),
    (ValueError, "gaussian reward std must be positive, got -1.0",
     lambda: MabInstance(means=[0.2, 0.5], family="gaussian", sigma=-1.0)),
    (ValueError, "a bandit instance needs at least two arms",
     lambda: MabInstance(means=[0.5], family="bernoulli")),
    (ValueError, "need at least one item",
     lambda: CascadeInstance(attractions=[], slate_size=1)),
    (ValueError, "need 0 <= low <= high <= 1, got 0.6, 0.4",
     lambda: generate_cascade(5, 2, np.random.default_rng(0), low=0.6,
                              high=0.4)),
    # agents
    (ValueError, "need at least one arm, got 0", lambda: Agent(0, 10)),
    (RuntimeError, "no rewards observed yet",
     lambda: RewardPoolAgent(2, 10).current_pool()),
    (RuntimeError, "warm-up features are rank deficient; auto_ridge needs a "
     "full-rank warm-up Gram matrix", rank_deficient_auto_ridge),
], ids=["beta-v-zero", "beta-mean-zero", "beta-mean-one",
        "gaussian-sigma-negative", "mab-one-arm", "cascade-no-items",
        "generate-cascade-low-above-high", "agent-no-arms",
        "pool-before-any-reward", "auto-ridge-rank-deficient"])
def test_other_error_messages(error, message, build):
    """Error paths no other test runs, each pinned by its whole message."""
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()
