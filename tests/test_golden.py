"""Golden-output gate: SHA-256 of the trace and aggregate CSVs of small runs.

One config per experiment runs every agent kind ``make_agent`` accepts for
it (n = 2000, 2 instances, fixed seed); the MAB agents also run on the
Bernoulli and beta reward families, so every MAB family is gated.  A change
that leaves the RNG consumption and the arithmetic of every agent alone must
leave each hash unchanged; a change that moves one has changed some run's
output.

The hashes are tied to the numpy, scipy and BLAS/LAPACK builds they were
recorded with (numpy 2.4.6, scipy 1.17.1, OpenBLAS on x86-64): a different
build may round a dot product or a Cholesky factor differently and so move
them without any change to this package.

No value here has been re-recorded.  On top of commit c17c7d7 the linear
agents came to keep arm indices in place of feature rows, which moves the
linear pool agent, LinTS and LinPHE by rounding only; that change followed
the protocol in ``tests/test_scores_hash.py``, and the ``linear`` pair here
kept its recorded value, because every linear kind still played the same
arms in these episodes.
"""

import hashlib

import pytest

from banditpool.bench import AgentSpec, RunConfig, run_experiment

SEED = 20260
HORIZON = 2000

AGENTS = {
    "mab": (
        AgentSpec("pool", "pool", {}),
        AgentSpec("ucb1", "ucb1", {}),
        AgentSpec("ucbv", "ucbv", {}),
        AgentSpec("bern_ts", "bern_ts", {}),
        AgentSpec("gauss_ts", "gauss_ts", {}),
        AgentSpec("bern_phe", "bern_phe", {}),
        AgentSpec("gauss_phe", "gauss_phe", {}),
    ),
    "linear": (
        AgentSpec("pool", "pool", {}),
        AgentSpec("pool_auto", "pool", {"auto_ridge": True}),
        AgentSpec("linucb", "linucb", {}),
        AgentSpec("lints", "lints", {}),
        AgentSpec("linphe", "linphe", {}),
        AgentSpec("linphe_bern", "linphe", {"pseudo": "bernoulli"}),
    ),
    "ranking": (
        AgentSpec("pool", "pool", {}),
        AgentSpec("klucb", "klucb", {}),
        AgentSpec("bern_ts", "bern_ts", {}),
        AgentSpec("bern_phe", "bern_phe", {}),
    ),
}

ENVS = {
    "mab": {"family": "gaussian", "K": 5},
    "linear": {"family": "gaussian", "K": 20, "d": 5},
    "ranking": {"L": 8, "K": 3},
}

GOLDEN = {
    "mab": ("f15bddbdfe92e767213a1c3715f748dbb4e20db55c7a72ca3847b1253f58f066",
            "dcfe3fb64d266ebd4adc6ac95999a6fac05bcb9ea84d69469bd5e5afc2c46d67"),
    "linear": ("7a40c6832bf753128a9c57c487624f2cb65ab952a4c04f3ad6a393da34a3f283",
               "2a947713578dc4f0c750d4125288e851efd7b79f3c22d2f668c11ce9e50caaeb"),
    "ranking": ("b86daad3c9add0f42aac2b64ab2421dad7b817b5e6d849564f5c80a30c7c0734",
                "af2b74c3395135db2a5a5003b8e272db31e2432a9aa7bcbe6f13c3b12e1d90bf"),
}

MAB_FAMILY_GOLDEN = {
    "bernoulli": ("238432240412e1bdb88dc0ef4097a3c1a1f514f356960ba9255799c284cd915c",
                  "e067a0ccb7ee5025ce9657c34fee29620e1180af9f4552d48fcf47233c9bffb1"),
    "beta": ("652d8eb3c888bfd57b65923737dca6fc48eed499f2236c5406f212c7fac5bc8b",
             "004433d3cfa0517841e90f1b694c0c88f0409852a5dcd0623f092c70b78336f7"),
}


def digests(experiment: str, out_dir, env: dict | None = None) -> tuple[str, str]:
    config = RunConfig(experiment=experiment, env=env or ENVS[experiment],
                       agents=AGENTS[experiment], horizon=HORIZON, instances=2,
                       runs=1, seed=SEED, out_dir=str(out_dir), stride=50)
    paths = run_experiment(config)
    return tuple(hashlib.sha256(paths[key].read_bytes()).hexdigest()
                 for key in ("trace", "aggregate"))


@pytest.mark.parametrize("experiment", sorted(GOLDEN))
def test_csv_hashes_unchanged(experiment, tmp_path):
    assert digests(experiment, tmp_path) == GOLDEN[experiment]


@pytest.mark.parametrize("family", sorted(MAB_FAMILY_GOLDEN))
def test_mab_family_hashes_unchanged(family, tmp_path):
    env = {**ENVS["mab"], "family": family}
    assert digests("mab", tmp_path, env) == MAB_FAMILY_GOLDEN[family]
