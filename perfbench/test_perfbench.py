"""Tests of the benchmark's per-task runner, tracer and output checks.

Run from the root of the repository with ``python -m pytest perfbench``.
"""

import dataclasses
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import tracing  # noqa: E402
from banditpool import agents, baselines, bench, envs, pool, ranking, theory  # noqa: E402

PATCHED = (pool, agents, baselines, bench, envs, ranking, theory,
           pool.RewardPool, envs.MabInstance, envs.LinearInstance,
           envs.CascadeInstance, *tracing.POOL_AGENT_CLASSES,
           *tracing.BASELINE_CLASSES.values(), *tracing.RANKER_CLASSES)


def small(workload: str, tmp_path: Path) -> harness.Prepared:
    """The workload's config at a short horizon, with two runs per task."""
    config = harness.make_config(workload, seed=5, out_dir=tmp_path / "runner")
    config = dataclasses.replace(config, horizon=300, instances=2, runs=2)
    return harness.prepare(workload, config)


@pytest.mark.parametrize("workload", ["mab", "linear", "ranking"])
def test_runner_writes_what_run_experiment_writes(tmp_path, workload):
    prep = small(workload, tmp_path)
    result = harness.run_pass(prep)
    assert result.failures == []
    assert result.attempted == 2 * 2 * len(prep.config.agents)

    reference = dataclasses.replace(prep.config, out_dir=str(tmp_path / "reference"))
    bench.run_experiment(reference)
    for name in ("trace.csv", "aggregate.csv"):
        assert result.outputs[name] == (tmp_path / "reference" / name).read_bytes()


@pytest.mark.parametrize("workload", ["mab", "linear", "ranking"])
def test_traced_pass_changes_nothing_and_counts_exactly(tmp_path, workload):
    prep = small(workload, tmp_path)
    plain = harness.run_pass(prep)
    before = [dict(vars(obj)) for obj in PATCHED]

    with tracing.Tracer() as tracer:
        traced = harness.run_pass(prep)

    assert [dict(vars(obj)) for obj in PATCHED] == before
    assert traced.outputs == plain.outputs
    metrics = tracing.layer_metrics(tracer)
    assert harness.check_counts(metrics, harness.expected_counts(prep)) == []
    assert metrics["pool.build.calls"][0] > 0
    assert metrics["bench.csv.bytes"][0] == sum(map(len, plain.outputs.values()))
    assert metrics["bench.loop.self_s"][0] > 0


def test_traced_theory_counts_variance_floor_builds(tmp_path):
    prep = harness.setup("theory", 3, tmp_path)
    with tracing.Tracer() as tracer:
        result = harness.run_pass(prep)
    assert result.failures == []
    metrics = tracing.layer_metrics(tracer)
    # No trial of the floor check failed early, so every round built a pool.
    assert metrics["theory.variance_floor.pool_builds"][0] == harness.variance_floor_rounds()
    assert metrics["pool.draw.calls"][0] == 0
    assert metrics["agents.select.self_s"][0] == 0


def test_kl_bernoulli_is_counted_not_timed(tmp_path):
    prep = small("ranking", tmp_path)
    with tracing.Tracer() as tracer:
        harness.run_pass(prep)
    metrics = tracing.layer_metrics(tracer)
    assert all(name != "ranking.kl_bernoulli" for _, name in tracer.stats)
    calls = metrics["ranking.kl_bernoulli.calls"][0]
    assert calls > metrics["ranking.klucb_index.calls"][0] > 0
    assert metrics["ranking.kl_per_index"][0] == calls / metrics["ranking.klucb_index.calls"][0]


def regret(values):
    return bench.RunResult(agent="pool", instance=0, run=0,
                           rounds=np.arange(1, len(values) + 1) * 10,
                           cum_regret=np.asarray(values, dtype=float))


@pytest.mark.parametrize("values, problem", [
    ([0.0, 1.0, 2.0], None),
    ([0.0, math.nan, 2.0], "non-finite"),
    ([0.0, 2.0, 1.0], "decreases"),
    ([-0.5, 1.0, 2.0], "outside"),
    ([0.0, 1.0, 31.0], "outside"),
])
def test_check_regret(values, problem):
    found = harness.check_regret(regret(values), horizon=30, max_loss=1.0)
    assert (found is None) if problem is None else (problem in found)


def test_max_round_loss_of_a_cascade():
    env = envs.CascadeInstance(attractions=np.array([0.5, 0.1, 0.4]), slate_size=2)
    best = 1 - 0.5 * 0.6
    worst = 1 - 0.9 * 0.6
    assert harness.max_round_loss(env) == pytest.approx(best - worst)


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "harness.py", "tracing.py"):
        shutil.copy(ROOT / "perfbench" / name, tmp_path / "perfbench" / name)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mab", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
