"""Golden-output gate: SHA-256 of the trace and aggregate CSVs of small runs,
and of the ``check_report.csv`` of the theory check battery.

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

On top of commit c17c7d7 the linear agents came to keep arm indices in
place of feature rows, which moves the linear pool agent, LinTS and LinPHE
by rounding only; that change followed the protocol in
``tests/test_scores_hash.py``, and the ``linear`` pair here kept its
recorded value, because every linear kind still played the same arms in
these episodes.

The five CSV pairs (``mab``, ``linear``, ``ranking``, and the Bernoulli and
beta families) were re-recorded on top of commit 12acb0a, with the change
that moved nine scores hashes (see ``tests/test_scores_hash.py``): each
contains a pool agent or a linear env.  The check-report hashes did not
move.

The check-report hashes were recorded at commit 5741698, where each Monte
Carlo check still drew all of its trials in one array, and hold for the
blocked draws that followed.  The second input's ``mc_trials`` is a count no
block size divides.
"""

import hashlib

import pytest

from banditpool.bench import AgentSpec, RunConfig, run_experiment
from banditpool.theory import default_checks, write_check_report

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
        AgentSpec("pool_auto", "pool", {"lambda": "auto"}),
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
    "mab": ("bb4726c69cb0ddf92b898bc48dd2e2a603b71b018f1c7eca649a9702cc356254",
            "e27b3c33c8121d34770dec22c5852cd477dc8d58e9c9555de8a196aecb8d5dc3"),
    "linear": ("47bf6dff65f70a3bd8b85ab82fed77a8c3e19448cb7f5477dba93965b774ea9b",
               "6513c8510bcf12b2462ac36e9a18b941cfc6e72b34993dd76935bd52ec1d84c0"),
    "ranking": ("9355fa32d0fdb3e7afb64b41914e5db309e752b0359b138c1476e9f8663763e4",
                "d4375736f66531c627eeba051e380a461a26ebf8a757f11099d62ac1c5a248af"),
}

MAB_FAMILY_GOLDEN = {
    "bernoulli": ("6bae52a93ce2e503ab27672f4b85a703439303d7b78d92591c78a08934a83010",
                  "812fbc10bf52ac8a2de06aa254347ae4552e0712395a9b3b0d1edb55148d093d"),
    "beta": ("97948c7dab417327128c77f4b8d2b40768349b786fd71b9328f331980b0243f8",
             "75e835010aecda73df7efb0c1fe0b8351d8b393b7b2703c09e5a82ed46a087be"),
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

CHECK_REPORT_GOLDEN = [
    (dict(seed=0),
     "5a59aed9e21874a619525460e717cb0395d76932c8d4be35c41ba07be309a4a5"),
    (dict(seed=3, pool_trials=200, mc_trials=123_457),
     "cc823fa569d1150a09ce19c13eda2cfaaaf42ea9798eece00f9b64a240dcc4e4"),
]


@pytest.mark.parametrize("kwargs, expected", CHECK_REPORT_GOLDEN)
def test_check_report_hash_unchanged(kwargs, expected, tmp_path):
    path = tmp_path / "check_report.csv"
    write_check_report(default_checks(**kwargs), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == expected
