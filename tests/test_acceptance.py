"""End-to-end acceptance suite.

Every benchmark-level claim is exercised at its stated tolerance and prints
one PASS/FAIL line (run pytest with ``-s`` to see the lines as they happen).
Heavy benchmarks execute once in module-scoped fixtures and are shared by the
criteria that read them.  All runs are seeded and therefore reproducible.
"""

import dataclasses

import numpy as np
import pytest

from banditpool.agents import LinRewardPoolAgent, PoolParams, RewardPoolAgent
from banditpool.bench import (
    AgentSpec,
    RunConfig,
    collect_runs,
    make_env,
    run_experiment,
)
from banditpool.envs import generate_cascade, save_cascade_file
from banditpool.pool import build_pool
from banditpool.theory import (
    check_posterior_match,
    check_value_bound,
    check_variance_floor,
)

BASE_SEED = 20260809


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------
# Shared benchmark fixtures
# ---------------------------------------------------------------------------
# They run on two worker processes: collect_runs output is byte-identical for
# any worker count (criterion 9), so this changes no figure, only wall time.


@pytest.fixture(scope="module")
def mab_benchmark(tmp_path_factory):
    """Bernoulli, beta, and Gaussian bandits: pool vs UCB1 vs UCB-V.

    K = 10 arms, means Uniform[0.25, 0.75], horizon 10,000, 20 instances.
    """
    out = {}
    for family in ("bernoulli", "beta", "gaussian"):
        config = RunConfig(
            experiment="mab",
            env={"family": family, "K": 10},
            agents=(AgentSpec("pool", "pool", {}),
                    AgentSpec("ucb1", "ucb1", {}),
                    AgentSpec("ucbv", "ucbv", {})),
            horizon=10_000, instances=20, runs=1, seed=BASE_SEED,
            out_dir=str(tmp_path_factory.mktemp(f"mab_{family}")), stride=500,
            workers=2)
        out[family] = run_experiment(config)["aggregates"]
    return out


@pytest.fixture(scope="module")
def linear_benchmark(tmp_path_factory):
    """Easy (sigma 0.2) and hard (sigma 1.0) linear Gaussian problems.

    K = 50, d = 10, horizon 5,000, 12 instances; the pool agent runs with
    fixed alpha = z = 0.6 against LinTS tuned for each problem.
    """
    out = {}
    for label, sigma in (("easy", 0.2), ("hard", 1.0)):
        config = RunConfig(
            experiment="linear",
            env={"family": "gaussian", "K": 50, "d": 10, "sigma": sigma},
            agents=(AgentSpec("pool", "pool", {}),
                    AgentSpec("lints_easy", "lints", {"sigma_ts": 0.2}),
                    AgentSpec("lints_hard", "lints", {"sigma_ts": 1.0})),
            horizon=5_000, instances=12, runs=1, seed=BASE_SEED,
            out_dir=str(tmp_path_factory.mktemp(f"linear_{label}")), stride=500,
            workers=2)
        out[label] = run_experiment(config)["aggregates"]
    return out


@pytest.fixture(scope="module")
def ranking_benchmark(tmp_path_factory):
    """Ten synthetic cascade queries, L = 10, K = 5, horizon 20,000.

    Query models go through the cascade file format on disk, exercising the
    loader on the benchmark path.
    """
    queries = tmp_path_factory.mktemp("queries")
    gen_rng = np.random.default_rng(np.random.SeedSequence([BASE_SEED, 5]))
    for q in range(10):
        save_cascade_file(generate_cascade(10, 5, gen_rng), queries / f"q{q:02d}.txt")
    config = RunConfig(
        experiment="ranking",
        env={"queries_dir": str(queries)},
        agents=(AgentSpec("pool", "pool", {}),
                AgentSpec("klucb", "klucb", {})),
        horizon=20_000, instances=10, runs=1, seed=BASE_SEED,
        out_dir=str(tmp_path_factory.mktemp("ranking")), stride=1000,
        workers=2)
    return run_experiment(config)["aggregates"]


def final_mean(aggregates, agent):
    return float(aggregates[agent]["mean"][-1])


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion1_pool_variance_floor():
    """Pool variance floor holds jointly past the warm-up threshold."""
    rep = check_variance_floor(horizon=1000, z=0.6, alpha=1.0, sigma=0.5,
                               trials=2000,
                               rng=np.random.default_rng(BASE_SEED))
    report("1 pool variance floor", rep.passed,
           f"failure rate {rep.empirical:.5f} <= {rep.bound:.5f}")
    assert rep.passed


def test_criterion2_pool_value_bound():
    """Pool magnitudes stay below the high-probability bound."""
    rep = check_value_bound(horizon=1000, alpha=1.0, sigma=0.5, trials=2000,
                            rng=np.random.default_rng(BASE_SEED))
    report("2 pool value bound", rep.passed,
           f"failure rate {rep.empirical:.5f} <= {rep.bound:.5f}")
    assert rep.passed


def test_criterion3_posterior_equivalence():
    """Perturb-and-average sampling matches the Gaussian posterior moments
    within four standard errors for ten random configurations."""
    rng = np.random.default_rng(BASE_SEED)
    worst = 0.0
    for _ in range(10):
        prior_mean = float(rng.uniform(0.0, 1.0))
        sigma = float(rng.uniform(0.1, 1.0))
        pulls = int(rng.integers(0, 20))
        rep = check_posterior_match(prior_mean, sigma, pulls, trials=100_000,
                                    rng=rng)
        worst = max(worst, rep.empirical)
        assert rep.passed, (prior_mean, sigma, pulls)
    report("3 posterior equivalence", True,
           f"10 settings, worst deviation {worst:.2f} of 4 allowed SEs")


def test_criterion4_one_hot_reduction():
    """With identity features and zero ridge, the linear agent reproduces the
    multi-armed agent's action sequence exactly, round for round."""
    n_arms, horizon, seeds = 5, 500, 20
    mismatches = 0
    for seed in range(seeds):
        instance_rng = np.random.default_rng(np.random.SeedSequence([BASE_SEED, seed]))
        means = instance_rng.uniform(0.25, 0.75, size=n_arms)
        noise = instance_rng.standard_normal((horizon, n_arms))
        sequences = []
        for agent in (
            RewardPoolAgent(n_arms, horizon, PoolParams(),
                            np.random.default_rng(seed)),
            LinRewardPoolAgent(np.eye(n_arms), horizon, PoolParams(),
                               np.random.default_rng(seed), ridge_lambda=0.0),
        ):
            actions = []
            for t in range(1, horizon + 1):
                arm = agent.select(t)
                agent.update(t, arm, means[arm] + 0.5 * noise[t - 1, arm])
                actions.append(arm)
            sequences.append(actions)
        mismatches += sequences[0] != sequences[1]
    report("4 one-hot reduction", mismatches == 0,
           f"{seeds - mismatches}/{seeds} seeds matched exactly over {horizon} rounds")
    assert mismatches == 0


def test_criterion5_mab_orderings(mab_benchmark):
    """Pool exploration beats UCB1 and UCB-V in all three reward families."""
    passed = True
    details = []
    for family, aggregates in mab_benchmark.items():
        pool = final_mean(aggregates, "pool")
        ucb1 = final_mean(aggregates, "ucb1")
        ucbv = final_mean(aggregates, "ucbv")
        ok = pool < ucb1 and pool < ucbv
        passed &= ok
        details.append(f"{family}: pool {pool:.0f} vs ucb1 {ucb1:.0f}, "
                       f"ucbv {ucbv:.0f}")
    report("5 reward-family orderings", passed, "; ".join(details))
    assert passed


def test_criterion6_sublinear_growth(mab_benchmark):
    """Gaussian benchmark: regret at 10,000 rounds grows less than 1.9x the
    regret at 5,000 rounds."""
    aggregates = mab_benchmark["gaussian"]["pool"]
    rounds = aggregates["rounds"]
    at_half = float(aggregates["mean"][np.searchsorted(rounds, 5_000)])
    at_full = float(aggregates["mean"][np.searchsorted(rounds, 10_000)])
    ratio = at_full / at_half
    report("6 sublinear growth", ratio < 1.9,
           f"regret {at_half:.0f} -> {at_full:.0f}, ratio {ratio:.2f} < 1.9")
    assert ratio < 1.9


def test_criterion7a_pool_tracks_tuned_lints_easy(linear_benchmark):
    """Fixed-parameter pool agent lands within 2x of easy-tuned LinTS."""
    pool = final_mean(linear_benchmark["easy"], "pool")
    tuned = final_mean(linear_benchmark["easy"], "lints_easy")
    report("7a pool vs tuned LinTS (easy)", pool <= 2.0 * tuned,
           f"pool {pool:.0f} <= 2 x {tuned:.0f}")
    assert pool <= 2.0 * tuned


def test_criterion7b_pool_tracks_tuned_lints_hard(linear_benchmark):
    """Fixed-parameter pool agent lands within 2x of hard-tuned LinTS."""
    pool = final_mean(linear_benchmark["hard"], "pool")
    tuned = final_mean(linear_benchmark["hard"], "lints_hard")
    report("7b pool vs tuned LinTS (hard)", pool <= 2.0 * tuned,
           f"pool {pool:.0f} <= 2 x {tuned:.0f}")
    assert pool <= 2.0 * tuned


def test_criterion7c_mistuned_lints_penalty(linear_benchmark):
    """Easy-tuned LinTS on the hard problem pays more than 3x the regret of
    its hard-tuned counterpart."""
    mistuned = final_mean(linear_benchmark["hard"], "lints_easy")
    tuned = final_mean(linear_benchmark["hard"], "lints_hard")
    ratio = mistuned / tuned
    report("7c mistuned LinTS penalty", ratio > 3.0,
           f"mistuned {mistuned:.0f} vs tuned {tuned:.0f}, ratio {ratio:.2f} > 3")
    assert ratio > 3.0


def test_criterion8_ranking_vs_klucb(ranking_benchmark):
    """Pool-based reranking does not lose to the KL confidence-bound ranker
    on the synthetic cascade benchmark."""
    pool = final_mean(ranking_benchmark, "pool")
    klucb = final_mean(ranking_benchmark, "klucb")
    report("8 ranking vs KL-UCB", pool <= klucb,
           f"pool {pool:.1f} <= klucb {klucb:.1f} over 10 queries")
    assert pool <= klucb


def test_criterion9_property_suite(tmp_path):
    """Structural invariants: pool symmetry, zero mean, variance identity,
    SPD Gram, monotone regret, determinism, serial/parallel identity."""
    rng = np.random.default_rng(BASE_SEED)

    for _ in range(200):
        rewards = rng.normal(rng.uniform(0, 1), rng.uniform(0.1, 2),
                             size=rng.integers(1, 80))
        alpha = float(rng.uniform(0.1, 2.0))
        pool = build_pool(rewards, alpha)
        assert abs(pool.values.mean()) <= 1e-12 * max(np.abs(pool.values).max(), 1.0)
        np.testing.assert_array_equal(np.sort(pool.values), np.sort(-pool.values))
        direct = alpha ** 2 / rewards.size * np.sum((rewards - rewards.mean()) ** 2)
        assert pool.variance() == pytest.approx(direct, rel=1e-10)

    features = rng.normal(size=(6, 3))
    agent = LinRewardPoolAgent(features, 300, PoolParams(),
                               np.random.default_rng(1))
    env_rng = np.random.default_rng(2)
    theta = np.array([0.2, 0.1, 0.05])
    for t in range(1, 301):
        arm = agent.select(t)
        agent.update(t, arm, float(features[arm] @ theta)
                     + 0.3 * env_rng.standard_normal())
    assert np.linalg.eigvalsh(agent.state.gram)[0] >= 1.0 - 1e-9

    config = RunConfig(
        experiment="mab", env={"family": "gaussian", "K": 4},
        agents=(AgentSpec("pool", "pool", {}),),
        horizon=200, instances=2, runs=2, seed=BASE_SEED,
        out_dir=str(tmp_path / "a"), stride=10)
    first = run_experiment(config)
    for result in collect_runs(config):
        assert np.all(np.diff(result.cum_regret) >= -1e-12)
        env = make_env(config, result.instance)
        assert result.cum_regret[-1] <= config.horizon * env.gaps().max() + 1e-9
    again = run_experiment(dataclasses.replace(config, out_dir=str(tmp_path / "b")))
    parallel = run_experiment(dataclasses.replace(
        config, out_dir=str(tmp_path / "c"), workers=2))
    identical = (first["aggregate"].read_bytes() == again["aggregate"].read_bytes()
                 == parallel["aggregate"].read_bytes())
    assert identical
    report("9 property suite", True,
           "pool invariants, SPD Gram, monotone regret, determinism, "
           "serial == parallel")
