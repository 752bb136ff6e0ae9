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

A second table gates the linear paths that default parameters never run
(``lambda = auto``, a zero ridge, Bernoulli LinPHE pseudo rewards); its values
were recorded before the four linear kinds came to share one linear model.

Six linear values were re-recorded on top of commit c17c7d7, when the linear
agents came to keep arm indices in place of feature rows: ``pool``,
``lints`` and ``linphe`` here, and ``pool_auto``, ``pool_lambda0`` and
``linphe_bern`` in the second table.  That change moves the arithmetic by
rounding only, so it followed a fixed protocol: test-local copies of the old
formulas (``tests/test_linear_references.py``) agree with the new code to
1e-12 relative from identical generator states, and only then were the
hashes re-recorded, in the same commit.  The MAB, ranking and ``linucb``
values did not move.

Nine values were re-recorded on top of commit 12acb0a, when the pool agents,
the pool ranker and LinPHE came to give each arm a contiguous block of one
noise draw, ``build_pool`` came to centre on a shifted mean and to write its
values in two halves, and ``LinearInstance`` came to draw every reward around
its one ``features @ theta_star`` product: ``mab``/``pool``,
``linear``/``pool``, ``linear``/``linphe``, ``ranking``/``pool``, and
``linear``/``lints`` and ``linear``/``linucb``, whose reward streams moved,
here; ``pool_auto``, ``pool_lambda0`` and ``linphe_bern`` in the second
table.  That change moves how noise is assigned, not its law: the law is
gated by ``tests/test_noise_law.py``, and the old centring by a tolerance
reference in ``tests/test_bit_identity.py``.

``mab``/``gauss_phe`` was re-recorded on top of commit 6bcf939, when the PHE
agents came to sum their pseudo rewards in contiguous blocks through
``agents.block_sums`` in place of ``np.bincount``.  The same draws meet the
same arms; only the summation order, and so the rounding, moved, against a
tolerance reference in ``tests/test_bit_identity.py``.  Bernoulli pseudo
rewards sum exactly in any order, so ``bern_phe`` and the PHE ranker held.
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
    ("mab", "pool"): "0a1181b3b2ab7096b108ceeacb3c0205f2915424e2fdc57603e1e1763e0499af",
    ("mab", "ucb1"): "f6b8db0f196893bba71a9dc668ba7fadc2f50f5aaf27a140588dd7053e3eae7c",
    ("mab", "ucbv"): "61debeb65d623ebaa4457523d51aeda77502b7c8dc4e6ae46081ce27db3aa2a2",
    ("mab", "bern_ts"): "95afa3bae948ed0b55b12fbe34b8e10b6e344ea83cead20ba5128a2c91ed8462",
    ("mab", "gauss_ts"): "1afe13fe886e2a566b312dc71c52f377f9e5eb25274a30d9a389e297489f934a",
    ("mab", "bern_phe"): "0bdebc528c5b1130ea9c907130af1cbea893e98beff93606ef4da499b5a4aa4b",
    ("mab", "gauss_phe"): "8177351b03ff51469203cd914feeda63e6af4cba4fa132f36fdc9654449bf07a",
    ("linear", "pool"): "cafa0e704478c74513ba8e1f4845c59a1c5e07647502bb2d03dcafff2f87e5e1",
    ("linear", "linucb"): "c136c83b6123a357c226aaa698a69ee33c94542267828a7a900abde196be4d24",
    ("linear", "lints"): "069fb0174ec96848a635bd9c626df6438652e47bc4433c1cbed334cc528bcd40",
    ("linear", "linphe"): "58842f1028987b1305e981c41acc5780904999ed83a6777d8b402ab09be48207",
    ("ranking", "pool"): "b3f226253c31ff1273d4d392328f21db666e354ae6b0c9f958888ce787c1a51a",
    ("ranking", "klucb"): "6201f47dbd0d5c8424d7b36cd4b3813ed3a8fd6b54a9653539ff5973bff3de28",
    ("ranking", "bern_ts"): "2cb898c2c06ce84fb8bca09c7fe3e78fbdb904b83f7fa781980e73ae57435214",
    ("ranking", "bern_phe"): "43fc04b9fd91c8736daae667a25808368fb9de9d5b46e464a972a41a4927c925",
}

# Linear paths the default parameters leave untouched, on the same episode:
# name (the agent name that seeds its stream) -> (kind, params, SHA-256).
LINEAR_VARIANT_SHA256 = {
    "pool_auto": ("pool", {"lambda": "auto"},
                  "9d993695de1b258bfd80d5949099e7a8ea7535377e1882925731e439286c7721"),
    "pool_lambda0": ("pool", {"lambda": 0.0},
                     "8e249ec32eb374714852e90e4d806615200d99ade1329afc8e087a8d2fae3de1"),
    "linphe_bern": ("linphe", {"pseudo": "bernoulli"},
                    "57d57d1c6bd9aeb3d09aa09608fb7f9d03fec7c99fa2d55c64ecb6a097c15bda"),
}


def scores_digest(experiment: str, kind: str, params=None, name=None) -> str:
    """SHA-256 over the bytes of every ``_scores`` vector of one episode.

    The agent is named ``name`` (by default its kind), which seeds its stream.
    """
    name = name or kind
    spec = AgentSpec(name, kind, params or {})
    config = RunConfig(experiment=experiment, env=ENVS[experiment],
                       agents=(spec,), horizon=HORIZON, instances=1, runs=1,
                       seed=SEED, out_dir="unused")
    env = make_env(config, 0)
    env_rng, agent_rng = run_streams(SEED, 0, name, 0)
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


@pytest.mark.parametrize("name", list(LINEAR_VARIANT_SHA256))
def test_linear_variant_scores_unchanged(name):
    kind, params, expected = LINEAR_VARIANT_SHA256[name]
    assert scores_digest("linear", kind, params, name) == expected
