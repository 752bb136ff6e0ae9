"""Non-finite parameters are rejected where they enter, naming the field.

NaN fails every comparison, so a check written as ``x <= 0`` lets it through;
a NaN ``alpha``, for one, made the MAB pool agent pull arm 0 every round
after its warm-up.  Each entry point below must raise ``ValueError`` instead.
"""

import math

import numpy as np
import pytest

from banditpool.agents import LinearModelState, PoolParams
from banditpool.baselines import (
    BernoulliPHEAgent,
    GaussianPHEAgent,
    GaussianTSAgent,
    LinPHEAgent,
    LinTSAgent,
    LinUCBAgent,
    UCBVAgent,
)
from banditpool.envs import (
    CascadeInstance,
    LinearInstance,
    MabInstance,
    load_cascade_file,
)
from banditpool.pool import build_pool
from banditpool.ranking import BernoulliPHERanker

NAN, INF = math.nan, math.inf
FEATURES = np.eye(2)


@pytest.mark.parametrize("field, build", [
    ("alpha", lambda: PoolParams(alpha=NAN)),
    ("alpha", lambda: PoolParams(alpha=INF)),
    ("z", lambda: PoolParams(z=NAN)),
    ("ridge_lambda", lambda: PoolParams(ridge_lambda=NAN)),
    ("ridge_lambda", lambda: PoolParams(ridge_lambda=INF)),
    ("alpha", lambda: build_pool([0.0, 1.0], NAN)),
    ("ridge_lambda", lambda: LinearModelState(2, NAN, capacity=4)),
], ids=["pool-alpha-nan", "pool-alpha-inf", "pool-z-nan", "pool-lambda-nan",
        "pool-lambda-inf", "build_pool-alpha", "linear-state-lambda"])
def test_pool_parameters(field, build):
    with pytest.raises(ValueError, match=field):
        build()


@pytest.mark.parametrize("field, build", [
    ("mean rewards", lambda: MabInstance(means=[NAN, 0.5], family="bernoulli")),
    ("v", lambda: MabInstance(means=[0.2, 0.5], family="beta", v=NAN)),
    ("v", lambda: MabInstance(means=[0.2, 0.5], family="beta", v=INF)),
    ("sigma", lambda: MabInstance(means=[0.2, 0.5], family="gaussian",
                                  sigma=NAN)),
    ("theta_star", lambda: LinearInstance(FEATURES, [NAN, 0.5], "bernoulli")),
    ("features", lambda: LinearInstance([[NAN, 0.0], [0.0, 1.0]], [0.5, 0.5],
                                        "bernoulli")),
    ("attraction", lambda: CascadeInstance(attractions=[0.2, NAN],
                                           slate_size=1)),
], ids=["mab-means", "mab-v-nan", "mab-v-inf", "mab-sigma", "linear-theta",
        "linear-features", "cascade-attractions"])
def test_environment_parameters(field, build):
    with pytest.raises(ValueError, match=field):
        build()


def test_cascade_file_with_a_nan_record(tmp_path):
    path = tmp_path / "q.txt"
    path.write_text("L=2 K=1\n0\t0.3\n1\tnan\n")
    with pytest.raises(ValueError, match="attraction of item 1"):
        load_cascade_file(path)


@pytest.mark.parametrize("field, build", [
    ("range_bound", lambda: UCBVAgent(2, 10, range_bound=NAN)),
    ("sigma", lambda: GaussianTSAgent(2, 10, sigma=NAN)),
    ("prior_mean", lambda: GaussianTSAgent(2, 10, prior_mean=NAN)),
    ("scale a", lambda: BernoulliPHEAgent(2, 10, a=NAN)),
    ("scale a", lambda: GaussianPHEAgent(2, 10, a=INF)),
    ("width", lambda: LinUCBAgent(FEATURES, 10, width=NAN)),
    ("ridge_lambda", lambda: LinUCBAgent(FEATURES, 10, ridge_lambda=NAN)),
    ("sigma_ts", lambda: LinTSAgent(FEATURES, 10, sigma_ts=NAN)),
    ("scale a", lambda: LinPHEAgent(FEATURES, 10, a=NAN)),
    ("scale a", lambda: BernoulliPHERanker(3, 2, 10, a=NAN)),
], ids=["ucbv-range_bound", "gauss_ts-sigma", "gauss_ts-prior_mean",
        "bern_phe-a", "gauss_phe-a", "linucb-width", "linucb-lambda",
        "lints-sigma_ts", "linphe-a", "bern_phe_ranker-a"])
def test_baseline_parameters(field, build):
    with pytest.raises(ValueError, match=field):
        build()
