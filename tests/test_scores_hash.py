"""Per-round scores gate: SHA-256 of every score vector an agent decides on.

Each kind in ``bench.AGENTS`` plays one seeded episode (n = 300) through
``make_env``, ``make_agent`` and the harness's round loop.  The test wraps
the agent's ``_scores`` and hashes the bytes of every vector it returns, in
order, so one hash per kind sees each score bit of each round that is not
forced.  The golden CSV hashes of ``tests/test_golden.py`` see only regret,
which a last-bit change to a pool value can leave alone; these hashes
cannot.

The expected values were recorded before the decision code was unified
into ``Agent._choose``, by hashing the vector each kind's former ``_choose``
took the argmax of on the same episodes.  Like the golden hashes, they are
tied to the numpy, scipy and BLAS/LAPACK builds they were recorded with
(numpy 2.4.6, scipy 1.17.1, OpenBLAS on x86-64).
"""

import hashlib

import pytest

from banditpool import bench
from banditpool.bench import AgentSpec, RunConfig, make_agent, make_env, run_streams

SEED = 20261
HORIZON = 300

ENVS = {
    "mab": {"family": "gaussian", "K": 5},
    "linear": {"family": "gaussian", "K": 20, "d": 5},
    "ranking": {"L": 8, "K": 3},
}

SCORES_SHA256 = {
    ("mab", "pool"): "afdef96ad217b2abeb24a34f0bef0289e5c7b1c64a8786dc69fd5bbbd22a4c4f",
    ("mab", "ucb1"): "f6b8db0f196893bba71a9dc668ba7fadc2f50f5aaf27a140588dd7053e3eae7c",
    ("mab", "ucbv"): "61debeb65d623ebaa4457523d51aeda77502b7c8dc4e6ae46081ce27db3aa2a2",
    ("mab", "bern_ts"): "95afa3bae948ed0b55b12fbe34b8e10b6e344ea83cead20ba5128a2c91ed8462",
    ("mab", "gauss_ts"): "1afe13fe886e2a566b312dc71c52f377f9e5eb25274a30d9a389e297489f934a",
    ("mab", "bern_phe"): "0bdebc528c5b1130ea9c907130af1cbea893e98beff93606ef4da499b5a4aa4b",
    ("mab", "gauss_phe"): "2f36d895666f56cfbdfd3f8804b13188e71ce9162158cc97d9ce5677cb4527a0",
    ("linear", "pool"): "a49f8cabcea4cb6fbd2648e1d63f16ae6fe8e704933613b908fe4bb7004a61db",
    ("linear", "linucb"): "109eecc3b5b9a6edcb269611d5b7c7db9f33a2fbd8c4b0edd8ffce4e64a10f1e",
    ("linear", "lints"): "7cf69339619663a93f30266053be8f4eb2cd6ed1f58f87b5657e16f1b182a635",
    ("linear", "linphe"): "39bb09ee17d682cd1e4b836e14fcf2b5406b91c40a7099e258f9bd3519451ea4",
    ("ranking", "pool"): "0ecac3456e0820dfcdb47f7c421d004248ceacdc62f41f1b519756d77c08314c",
    ("ranking", "klucb"): "6201f47dbd0d5c8424d7b36cd4b3813ed3a8fd6b54a9653539ff5973bff3de28",
    ("ranking", "bern_ts"): "2cb898c2c06ce84fb8bca09c7fe3e78fbdb904b83f7fa781980e73ae57435214",
    ("ranking", "bern_phe"): "43fc04b9fd91c8736daae667a25808368fb9de9d5b46e464a972a41a4927c925",
}


def scores_digest(experiment: str, kind: str) -> str:
    """SHA-256 over the bytes of every ``_scores`` vector of one episode."""
    spec = AgentSpec(kind, kind, {})
    config = RunConfig(experiment=experiment, env=ENVS[experiment],
                       agents=(spec,), horizon=HORIZON, instances=1, runs=1,
                       seed=SEED, out_dir="unused")
    env = make_env(config, 0)
    env_rng, agent_rng = run_streams(SEED, 0, kind, 0)
    agent = make_agent(spec, config, env, agent_rng)
    digest = hashlib.sha256()
    scores = agent._scores

    def hashed(t):
        vector = scores(t)
        digest.update(vector.tobytes())
        return vector

    agent._scores = hashed
    bench._simulate(env, agent, HORIZON, env_rng)
    return digest.hexdigest()


def test_every_kind_is_gated():
    assert set(SCORES_SHA256) == set(bench.AGENTS)


@pytest.mark.parametrize("experiment, kind", list(SCORES_SHA256))
def test_scores_unchanged(experiment, kind):
    assert scores_digest(experiment, kind) == SCORES_SHA256[experiment, kind]
