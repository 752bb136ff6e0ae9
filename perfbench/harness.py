"""Workloads, the per-task runner, output checks and metrics of the benchmark.

A workload is a fixed ``RunConfig`` (or, for ``theory``, the default check
battery) generated from the benchmark seed.  One *pass* runs the whole
workload through banditpool's public API exactly as ``bench.run_experiment``
does at ``workers = 1``: one ``execute_run`` call per (instance, agent, run)
task, then ``aggregate_results`` and the two CSV writers.  The runner times
each call from outside the package.  Passes repeat with identical inputs, so
their output files must agree byte for byte.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from banditpool import agents, bench, envs, theory
from banditpool.bench import AgentSpec, RunConfig

import tracing


STRIDE = 10  # divides every horizon below, so the last logged round is n
CASCADE_ITEMS, CASCADE_SLATE = 10, 5

# theory: check_variance_floor rebuilds the pool at each of ~750 rounds of
# every trial; 100 trials keep one pass near 2 s (the CLI default is 2000).
THEORY_HORIZON = 1000
THEORY_POOL_TRIALS = 100
THEORY_MC_TRIALS = 100_000


def make_config(workload: str, seed: int, out_dir: Path) -> RunConfig:
    """The fixed simulation config of ``workload`` at ``seed``."""
    def spec(*kinds):
        return tuple(AgentSpec(kind, kind, {}) for kind in kinds)

    common = dict(runs=1, seed=seed, out_dir=str(out_dir), stride=STRIDE,
                  workers=1)
    if workload == "mab":
        return RunConfig(experiment="mab", env={"family": "gaussian", "K": 10},
                         agents=spec("pool", "ucb1", "ucbv"), horizon=10_000,
                         instances=2, **common)
    if workload == "linear":
        return RunConfig(experiment="linear",
                         env={"family": "gaussian", "K": 50, "d": 10, "sigma": 1.0},
                         agents=spec("pool", "lints", "linucb"), horizon=5_000,
                         instances=2, **common)
    if workload == "ranking":
        return RunConfig(experiment="ranking",
                         env={"queries_dir": str(out_dir / "queries")},
                         agents=spec("pool", "klucb"), horizon=20_000,
                         instances=1, **common)
    raise ValueError(f"no simulation config for workload {workload!r}")


def write_queries(config: RunConfig) -> None:
    """Write one cascade model file per instance, drawn from the seed.

    Every query has the same attraction profile, evenly spaced over the
    generator's default range [0.1, 0.7], in an order drawn from the seed.
    The pool ranker's history grows by the positions a user examines, so
    its cost follows the attraction profile: with independent uniform
    attractions the final history ranged over 30.1k-33.0k values across
    four seeds, against 29.6k-30.5k with this profile.  The seed still
    drives item order and every random stream.
    """
    queries = Path(config.env["queries_dir"])
    queries.mkdir(parents=True, exist_ok=True)
    profile = np.linspace(0.1, 0.7, CASCADE_ITEMS)
    for instance in range(config.instances):
        rng = bench.instance_rng(config.seed, instance)
        model = envs.CascadeInstance(attractions=rng.permutation(profile),
                                     slate_size=CASCADE_SLATE)
        envs.save_cascade_file(model, queries / f"q{instance:02d}.txt")


@dataclass
class Prepared:
    """What set-up leaves for the timed passes."""

    workload: str
    seed: int
    out_dir: Path
    config: RunConfig | None = None
    max_loss: list[float] = field(default_factory=list)  # per instance


def max_round_loss(env) -> float:
    """Largest expected loss any single round can incur on ``env``."""
    if isinstance(env, envs.CascadeInstance):
        worst = np.argsort(env.attractions, kind="stable")[: env.slate_size]
        return env.expected_clicks(env.best_slate()) - env.expected_clicks(worst)
    return float(np.max(env.gaps()))


def setup(workload: str, seed: int, out_dir: Path) -> Prepared:
    """Everything the workload does before its first round."""
    if workload == "theory":
        return Prepared(workload, seed, out_dir)
    return prepare(workload, make_config(workload, seed, out_dir))


def prepare(workload: str, config: RunConfig) -> Prepared:
    """Generate the instances and build every agent once, before round 1."""
    prep = Prepared(workload, config.seed, Path(config.out_dir), config)
    if config.experiment == "ranking":
        write_queries(config)
    for instance in range(config.instances):
        env = bench.make_env(config, instance)
        prep.max_loss.append(max_round_loss(env))
        for spec in config.agents:
            for run in range(config.runs):
                _, agent_rng = bench.run_streams(config.seed, instance, spec.name, run)
                bench.make_agent(spec, config, env, agent_rng)
    return prep


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


@dataclass
class PassResult:
    wall_s: float
    episodes: list[tuple[str, float]]       # (agent kind, seconds)
    outputs: dict[str, bytes]               # file name -> contents
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    pool_regret: float = math.nan
    variance_floor_s: float = math.nan


def check_regret(result, horizon: int, max_loss: float) -> str | None:
    """Why a logged cumulative-regret trace is impossible, or None."""
    cum = result.cum_regret
    label = f"{result.agent} instance {result.instance} run {result.run}"
    if not np.all(np.isfinite(cum)):
        return f"{label}: non-finite regret"
    if np.any(np.diff(cum) < 0):
        return f"{label}: regret decreases"
    if cum[0] < 0 or cum[-1] > horizon * max_loss:
        return f"{label}: regret outside [0, {horizon} x {max_loss!r}]"
    return None


def simulation_pass(prep: Prepared) -> PassResult:
    """Run every task of the workload once and write its CSVs."""
    config = prep.config
    out = prep.out_dir
    episodes, results, failures = [], [], []
    start = time.perf_counter()
    for instance in range(config.instances):
        for spec in config.agents:
            for run in range(config.runs):
                t0 = time.perf_counter()
                try:
                    res = bench.execute_run(config, instance, spec, run)
                except Exception as exc:  # counted in failed, the pass goes on
                    failures.append(f"{spec.name} instance {instance}: {exc!r}")
                    continue
                episodes.append((spec.kind, time.perf_counter() - t0))
                results.append(res)
                problem = check_regret(res, config.horizon, prep.max_loss[instance])
                if problem:
                    failures.append(problem)
    order = {spec.name: i for i, spec in enumerate(config.agents)}
    results.sort(key=lambda r: (order[r.agent], r.instance, r.run))
    written, pool_regret = (), math.nan
    if not failures:
        aggregates = bench.aggregate_results(config, results)
        bench.write_trace_csv(out / "trace.csv", results)
        bench.write_aggregate_csv(out / "aggregate.csv", aggregates)
        written = ("trace.csv", "aggregate.csv")
        pool_regret = float(aggregates["pool"]["mean"][-1])
    wall = time.perf_counter() - start
    outputs = {name: (out / name).read_bytes() for name in written}
    n_tasks = config.instances * len(config.agents) * config.runs
    return PassResult(wall, episodes, outputs, attempted=n_tasks,
                      failures=failures, pool_regret=pool_regret)


def theory_pass(prep: Prepared) -> PassResult:
    """Run the default check battery and write its report."""
    timed = {}
    floor_check = theory.check_variance_floor

    def timed_floor(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return floor_check(*args, **kwargs)
        finally:
            timed["s"] = time.perf_counter() - t0

    start = time.perf_counter()
    theory.check_variance_floor = timed_floor
    try:
        reports = theory.default_checks(seed=prep.seed, horizon=THEORY_HORIZON,
                                        pool_trials=THEORY_POOL_TRIALS,
                                        mc_trials=THEORY_MC_TRIALS)
    finally:
        theory.check_variance_floor = floor_check
    path = prep.out_dir / "check_report.csv"
    theory.write_check_report(reports, path)
    wall = time.perf_counter() - start
    failures = [f"{r.check} ({r.params}) did not pass" for r in reports
                if not r.passed]
    return PassResult(wall, [], {"check_report.csv": path.read_bytes()},
                      attempted=len(reports), failures=failures,
                      variance_floor_s=timed["s"])


def run_pass(prep: Prepared) -> PassResult:
    if prep.workload == "theory":
        return theory_pass(prep)
    return simulation_pass(prep)


def digest(outputs: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(outputs):
        h.update(name.encode() + b"\0" + outputs[name])
    return h.hexdigest()


def variance_floor_rounds() -> int:
    """Pool-rebuilding rounds check_variance_floor simulates when no trial
    fails early (a failing trial stops at its first violation)."""
    z = 0.6  # the z default_checks passes to check_variance_floor
    first = math.floor(theory.variance_floor_threshold(THEORY_HORIZON, z)) + 1
    return THEORY_POOL_TRIALS * (THEORY_HORIZON - first + 1)


# ---------------------------------------------------------------------------
# Exact counts of the traced run
# ---------------------------------------------------------------------------


def expected_counts(prep: Prepared) -> dict[str, int]:
    """Counts a traced pass must reproduce exactly, derived from the config."""
    if prep.workload == "theory":
        return {"pool.draw.calls": 0}
    config = prep.config
    n = config.horizon
    pool_episodes = sum(1 for s in config.agents if s.kind == "pool") \
        * config.instances * config.runs
    if config.experiment == "ranking":
        # The ranker has no warm-up; it builds a pool from round 2 on.
        warm = 1
    else:
        dims = config.env["K" if config.experiment == "mab" else "d"]
        warm = min(agents.init_length(n, agents.PoolParams().z, dims), n)
    counts = {
        "pool.build.calls": pool_episodes * (n - warm),
        "pool.draw.calls": pool_episodes * (n - warm),
    }
    if config.experiment == "ranking":
        klucb_episodes = sum(1 for s in config.agents if s.kind == "klucb") \
            * config.instances * config.runs
        # One expected_clicks per round plus the optimum, per episode.
        counts["envs.expected_clicks.calls"] = (
            len(config.agents) * config.instances * config.runs * (n + 1))
        counts["ranking.klucb_index.calls"] = klucb_episodes * n * CASCADE_ITEMS
    else:
        # A pool built from t - 1 rewards holds 2(t - 1) values and is drawn
        # t - 1 times, at every round t past the warm-up.
        counts["pool.draw.values"] = pool_episodes * sum(range(warm, n))
        counts["pool.build.values"] = 2 * counts["pool.draw.values"]
    return counts


def check_counts(metrics: dict, expected: dict[str, int]) -> list[str]:
    return [f"{name}: counted {metrics[name][0]}, expected {want}"
            for name, want in expected.items() if metrics[name][0] != want]


# ---------------------------------------------------------------------------
# Verdicts and metrics over the passes of one run
# ---------------------------------------------------------------------------


def check_passes(plain, traced) -> tuple[int, list[str]]:
    """Failures the passes reported, plus any pass whose files differ."""
    attempted, failures = 0, []
    passes = plain + traced
    for p in passes:
        attempted += p.attempted
        failures += p.failures
    # Every pass has the same inputs, so every pass must write the same files.
    reference = digest(passes[0].outputs)
    for i, p in enumerate(passes[1:], start=1):
        attempted += 1
        kind = "traced" if i >= len(plain) else "untraced"
        if not p.outputs or digest(p.outputs) != reference:
            failures.append(f"{kind} pass {i} wrote other output files than pass 0")
    return attempted, failures


def per_round(prep, plain) -> tuple[dict, dict]:
    """Median microseconds per round of each agent kind, and sample counts."""
    episodes = {}
    for p in plain:
        for kind, secs in p.episodes:
            episodes.setdefault(kind, []).append(secs)
    if prep.workload == "theory":
        rounds = variance_floor_rounds()
        episodes["pool"] = [p.variance_floor_s for p in plain]
    else:
        rounds = prep.config.horizon
    return ({kind: median(v) / rounds * 1e6 for kind, v in episodes.items()},
            {kind: len(v) for kind, v in episodes.items()})


def traced_metrics(prep, tracers, attempted, failures) -> tuple[dict, int]:
    """Per-layer metrics (medians over traced passes) after the count checks."""
    layers = [tracing.layer_metrics(tr) for tr in tracers]
    # Everything but a time is a count or a ratio of counts, and must repeat.
    exact = {k: v for k, v in layers[0].items() if v[1] != "s"}
    for i, other in enumerate(layers[1:], start=1):
        attempted += 1
        if {k: other[k] for k in exact} != exact:
            failures.append(f"traced pass {i} counted differently from pass 0")
    expected = expected_counts(prep)
    attempted += len(expected)
    failures += check_counts(layers[0], expected)
    metrics = {name: (median([layer[name][0] for layer in layers]), unit)
               if unit == "s" else exact[name]
               for name, (_, unit) in layers[0].items()}
    return metrics, attempted


# ---------------------------------------------------------------------------
# Context
# ---------------------------------------------------------------------------


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def context(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


def median(values) -> float:
    return statistics.median(values) if values else math.nan
