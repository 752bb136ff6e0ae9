"""Experiment runner: seeded agent-environment loops, aggregation, CSV output.

Configs are INI files with three kinds of sections::

    [run]                     # experiment, n, instances, runs, seed, out_dir,
                              # stride, workers
    [env]                     # per-experiment environment parameters
    [agent.<name>]            # kind plus agent parameters, one section each
    [sweep]                   # optional alpha/z grids for parameter_sweep

Every run is reproducible: the run executed for (instance, agent, run) seeds a
PCG64 generator from ``SeedSequence([seed, 2, instance, digest(agent), run])``
where ``digest`` is the first 8 bytes of BLAKE2s of the agent name; problem
instances come from ``SeedSequence([seed, 1, instance])``.  Results are
aggregated after sorting, so serial and parallel execution produce identical
files.
"""

from __future__ import annotations

import configparser
import csv
import dataclasses
import hashlib
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import agents as agents_mod
from . import baselines, envs, ranking

TRACE_COLUMNS = ["agent", "instance", "run", "round", "cum_regret"]
AGGREGATE_COLUMNS = ["agent", "round", "mean_regret", "std_regret", "n_runs"]
SWEEP_COLUMNS = ["alpha", "z", "mean_final_regret", "std_final_regret", "n_runs"]

EXPERIMENTS = ("mab", "linear", "ranking")


class ConfigError(ValueError):
    """Invalid run configuration; the message carries the field path."""


@dataclass(frozen=True)
class AgentSpec:
    name: str
    kind: str
    params: dict


@dataclass(frozen=True)
class RunConfig:
    experiment: str
    env: dict
    agents: tuple[AgentSpec, ...]
    horizon: int
    instances: int
    runs: int
    seed: int
    out_dir: str
    stride: int = 10
    workers: int = 1
    sweep: dict | None = None

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"run.experiment: must be one of {EXPERIMENTS}")
        if self.horizon < 1:
            raise ConfigError("run.n: must be >= 1")
        if self.instances < 1:
            raise ConfigError("run.instances: must be >= 1")
        if self.runs < 1:
            raise ConfigError("run.runs: must be >= 1")
        if self.stride < 1 or self.stride > self.horizon:
            raise ConfigError("run.stride: must be in [1, n]")
        if self.workers < 1:
            raise ConfigError("run.workers: must be >= 1")
        if not self.agents:
            raise ConfigError("agent.*: at least one agent section is required")
        names = [a.name for a in self.agents]
        if len(set(names)) != len(names):
            raise ConfigError("agent.*: agent names must be unique")
        for spec in self.agents:
            # A kind the table lacks is reported where the agent is built.
            entry = AGENTS.get((self.experiment, spec.kind))
            for key in spec.params:
                if entry is not None and key not in entry.params:
                    raise _unknown_field(f"agent.{spec.name}", key,
                                         self.experiment, spec.kind)


@dataclass(frozen=True)
class RunResult:
    agent: str
    instance: int
    run: int
    rounds: np.ndarray
    cum_regret: np.ndarray


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def _coerce(raw: str, path: str, kind: type):
    try:
        if kind is bool:
            lowered = raw.strip().lower()
            if lowered in ("true", "yes", "1"):
                return True
            if lowered in ("false", "no", "0"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{path}: cannot parse {raw!r} as {kind.__name__}") from exc


def _section_dict(parser: configparser.ConfigParser, section: str,
                  types: dict) -> dict:
    """The section's values coerced to ``types``; any other key is an error."""
    out = {}
    for key, raw in parser.items(section):
        if key not in types:
            raise ConfigError(
                f"{section}.{key}: unknown field; expected one of "
                f"{', '.join(types)}")
        out[key] = _coerce(raw, f"{section}.{key}", types[key])
    return out


_RUN_FIELD_TYPES = {
    "experiment": str, "n": int, "instances": int, "runs": int, "seed": int,
    "out_dir": str, "stride": int, "workers": int,
}

_ENV_PARAM_TYPES = {
    "family": str, "K": int, "d": int, "v": float, "sigma": float,
    "L": int, "low": float, "high": float, "queries_dir": str,
}

_SWEEP_FIELD_TYPES = {"alpha": str, "z": str, "agent": str}


def parse_config(path) -> RunConfig:
    """Parse an INI run configuration; raises ConfigError with a field path.

    A section or key the runner does not read is rejected rather than
    ignored, so a misspelt field cannot silently fall back to its default.
    """
    parser = configparser.ConfigParser()
    parser.optionxform = str
    read = parser.read(path)
    if not read:
        raise ConfigError(f"{path}: cannot read config file")
    for section in parser.sections():
        if section not in ("run", "env", "sweep") and not section.startswith("agent."):
            raise ConfigError(
                f"{section}: unknown section; expected run, env, sweep or "
                "agent.<name>")
    if not parser.has_section("run"):
        raise ConfigError("run: missing section")
    if not parser.has_section("env"):
        raise ConfigError("env: missing section")

    run = _section_dict(parser, "run", _RUN_FIELD_TYPES)
    required = ("experiment", "n", "instances", "runs", "seed", "out_dir")
    for key in required:
        if key not in run:
            raise ConfigError(f"run.{key}: missing required field")

    agent_specs = []
    for section in parser.sections():
        if not section.startswith("agent."):
            continue
        name = section[len("agent."):]
        if not name:
            raise ConfigError(f"{section}: agent name must be non-empty")
        params = dict(parser.items(section))
        kind = params.pop("kind", None)
        if kind is None:
            raise ConfigError(f"{section}.kind: missing required field")
        # Keys the kind reads take its types; any other key stays a string
        # for RunConfig to reject.
        types = AGENTS.get((run["experiment"], kind), AgentEntry(None, {})).params
        params = {key: _coerce(raw, f"{section}.{key}", types[key][0])
                  if key in types else raw for key, raw in params.items()}
        agent_specs.append(AgentSpec(name=name, kind=kind, params=params))

    sweep = None
    if parser.has_section("sweep"):
        sweep = {}
        raw = _section_dict(parser, "sweep", _SWEEP_FIELD_TYPES)
        for axis in ("alpha", "z"):
            if axis not in raw:
                raise ConfigError(f"sweep.{axis}: missing required field")
            try:
                sweep[axis] = [float(v) for v in raw[axis].split(",") if v.strip()]
            except ValueError as exc:
                raise ConfigError(f"sweep.{axis}: cannot parse grid {raw[axis]!r}") from exc
            if not sweep[axis]:
                raise ConfigError(f"sweep.{axis}: grid must be nonempty")
        if "agent" in raw:
            sweep["agent"] = raw["agent"]

    return RunConfig(
        experiment=run["experiment"],
        env=_section_dict(parser, "env", _ENV_PARAM_TYPES),
        agents=tuple(agent_specs),
        horizon=run["n"],
        instances=run["instances"],
        runs=run["runs"],
        seed=run["seed"],
        out_dir=run["out_dir"],
        stride=run.get("stride", 10),
        workers=run.get("workers", 1),
        sweep=sweep,
    )


# ---------------------------------------------------------------------------
# Seeding
# ---------------------------------------------------------------------------


def _agent_digest(name: str) -> int:
    return int.from_bytes(
        hashlib.blake2s(name.encode(), digest_size=8).digest(), "big")


def instance_rng(seed: int, instance: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, 1, instance]))


def run_streams(seed: int, instance: int, agent_name: str,
                run: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Independent (environment, agent) generators for one run."""
    root = np.random.SeedSequence(
        [seed, 2, instance, _agent_digest(agent_name), run])
    env_seq, agent_seq = root.spawn(2)
    return np.random.default_rng(env_seq), np.random.default_rng(agent_seq)


# ---------------------------------------------------------------------------
# Environment and agent construction
# ---------------------------------------------------------------------------


def _env_field(config: RunConfig, key: str, default=None):
    if key in config.env:
        return config.env[key]
    if default is None:
        raise ConfigError(f"env.{key}: missing required field")
    return default


def make_env(config: RunConfig, instance: int):
    """Deterministically build environment ``instance`` for this config."""
    rng = instance_rng(config.seed, instance)
    if config.experiment == "mab":
        return envs.generate_mab(
            _env_field(config, "K"), _env_field(config, "family"), rng,
            v=_env_field(config, "v", envs.DEFAULT_BETA_CONCENTRATION),
            sigma=_env_field(config, "sigma", envs.DEFAULT_GAUSSIAN_STD))
    if config.experiment == "linear":
        return envs.generate_linear(
            _env_field(config, "K"), _env_field(config, "d"),
            _env_field(config, "family"), rng,
            v=_env_field(config, "v", envs.DEFAULT_BETA_CONCENTRATION),
            sigma=_env_field(config, "sigma", envs.DEFAULT_GAUSSIAN_STD))
    if "queries_dir" in config.env:
        files = sorted(Path(config.env["queries_dir"]).glob("*.txt"))
        if instance >= len(files):
            raise ConfigError(
                f"run.instances: only {len(files)} query files in "
                f"{config.env['queries_dir']}")
        return envs.load_cascade_file(files[instance])
    return envs.generate_cascade(
        _env_field(config, "L"), _env_field(config, "K"), rng,
        low=_env_field(config, "low", 0.1), high=_env_field(config, "high", 0.7))


# One entry per (experiment, kind): ``factory(env, horizon, rng, values)``
# builds the agent, and ``params`` maps each config key the factory reads to
# ``(type, default)``, where a callable default is a function of the env.
# ``make_agent`` passes every key in ``values``, as configured or defaulted.
AgentEntry = namedtuple("AgentEntry", "factory params")

_POOL_KEYS = {"alpha": (float, 0.6), "z": (float, 0.6)}
_LAMBDA = {"lambda": (float, 1.0)}

AGENTS = {
    ("mab", "pool"): AgentEntry(lambda env, n, rng, p: agents_mod.RewardPoolAgent(
        env.n_arms, n, agents_mod.PoolParams(p["alpha"], p["z"]), rng), _POOL_KEYS),
    ("mab", "ucb1"): AgentEntry(lambda env, n, rng, p: baselines.UCB1Agent(
        env.n_arms, n), {}),
    ("mab", "ucbv"): AgentEntry(lambda env, n, rng, p: baselines.UCBVAgent(
        env.n_arms, n, p["b"]), {"b": (float, lambda env: (
            1.0 + 4.0 * env.sigma if env.family == "gaussian" else 1.0))}),
    ("mab", "bern_ts"): AgentEntry(lambda env, n, rng, p: baselines.BernoulliTSAgent(
        env.n_arms, n, rng), {}),
    ("mab", "gauss_ts"): AgentEntry(lambda env, n, rng, p: baselines.GaussianTSAgent(
        env.n_arms, n, p["sigma"], p["prior_mean"], rng),
        {"sigma": (float, lambda env: env.sigma if env.family == "gaussian" else 0.5),
         "prior_mean": (float, 0.5)}),
    ("mab", "bern_phe"): AgentEntry(lambda env, n, rng, p: baselines.BernoulliPHEAgent(
        env.n_arms, n, p["a"], rng), {"a": (float, 1.0)}),
    ("mab", "gauss_phe"): AgentEntry(lambda env, n, rng, p: baselines.GaussianPHEAgent(
        env.n_arms, n, p["a"], rng), {"a": (float, 1.0)}),
    ("linear", "pool"): AgentEntry(lambda env, n, rng, p: agents_mod.LinRewardPoolAgent(
        env.features, n, agents_mod.PoolParams(
            p["alpha"], p["z"], p["lambda"], p["auto_ridge"]), rng),
        {**_POOL_KEYS, **_LAMBDA, "auto_ridge": (bool, False)}),
    ("linear", "linucb"): AgentEntry(lambda env, n, rng, p: baselines.LinUCBAgent(
        env.features, n, p["c"], p["lambda"]), {"c": (float, 1.0), **_LAMBDA}),
    ("linear", "lints"): AgentEntry(lambda env, n, rng, p: baselines.LinTSAgent(
        env.features, n, p["sigma_ts"], p["lambda"], rng),
        {"sigma_ts": (float, 1.0), **_LAMBDA}),
    ("linear", "linphe"): AgentEntry(lambda env, n, rng, p: baselines.LinPHEAgent(
        env.features, n, p["a"], p["pseudo"], p["lambda"], rng),
        {"a": (float, 1.0), "pseudo": (str, lambda env: (
            "gaussian" if env.family == "gaussian" else "bernoulli")), **_LAMBDA}),
    ("ranking", "pool"): AgentEntry(lambda env, n, rng, p: ranking.RewardPoolRanker(
        env.n_items, env.slate_size, n, agents_mod.PoolParams(p["alpha"]), rng),
        {"alpha": (float, 0.6)}),
    ("ranking", "klucb"): AgentEntry(lambda env, n, rng, p: ranking.KLUCBRanker(
        env.n_items, env.slate_size, n), {}),
    ("ranking", "bern_ts"): AgentEntry(lambda env, n, rng, p: ranking.BernoulliTSRanker(
        env.n_items, env.slate_size, n, rng), {}),
    ("ranking", "bern_phe"): AgentEntry(lambda env, n, rng, p: ranking.BernoulliPHERanker(
        env.n_items, env.slate_size, n, p["a"], rng), {"a": (float, 0.5)}),
}


def _unknown_field(path: str, key: str, experiment: str, kind: str) -> ConfigError:
    expected = ", ".join(AGENTS[experiment, kind].params) or "(none)"
    return ConfigError(
        f"{path}.{key}: unknown field for kind {kind!r} in experiment "
        f"{experiment!r}; expected one of {expected}")


def make_agent(spec: AgentSpec, config: RunConfig, env,
               rng: np.random.Generator):
    """Instantiate the policy named by ``spec`` for one run."""
    entry = AGENTS.get((config.experiment, spec.kind))
    if entry is None:
        kinds = ", ".join(k for e, k in AGENTS if e == config.experiment)
        raise ConfigError(
            f"agent.{spec.name}.kind: {spec.kind!r} is not valid for "
            f"experiment {config.experiment!r}; expected one of {kinds}")
    values = {key: spec.params[key] if key in spec.params
              else default(env) if callable(default) else default
              for key, (_, default) in entry.params.items()}
    return entry.factory(env, config.horizon, rng, values)


# ---------------------------------------------------------------------------
# Simulation loops
# ---------------------------------------------------------------------------


def regret_trace(gaps: np.ndarray, arms) -> np.ndarray:
    """Cumulative expected regret after each round of a pulled-arm sequence."""
    return np.cumsum(np.asarray(gaps, dtype=float)[np.asarray(arms, dtype=int)])


def _log_points(horizon: int, stride: int) -> np.ndarray:
    """Every ``stride``-th round, and always the final round."""
    points = np.arange(stride, horizon + 1, stride, dtype=np.int64)
    if horizon % stride:
        points = np.append(points, horizon)
    return points


def _simulate_bandit(env, agent, horizon, env_rng) -> np.ndarray:
    arms = np.empty(horizon, dtype=np.int64)
    for t in range(1, horizon + 1):
        arm = agent.select(t)
        reward = env.sample_reward(arm, env_rng)
        agent.update(t, arm, reward)
        arms[t - 1] = arm
    return regret_trace(env.gaps(), arms)


def _simulate_ranking(env, ranker, horizon, env_rng) -> np.ndarray:
    optimal = env.expected_clicks(env.best_slate())
    losses = np.empty(horizon, dtype=float)
    for t in range(1, horizon + 1):
        slate = ranker.select_list(t)
        click = env.step(slate, env_rng)
        ranker.update(t, slate, click)
        losses[t - 1] = optimal - env.expected_clicks(slate)
    return np.cumsum(losses)


def execute_run(config: RunConfig, instance: int, spec: AgentSpec,
                run: int) -> RunResult:
    """Run one seeded (instance, agent, run) episode and log its regret."""
    env = make_env(config, instance)
    env_rng, agent_rng = run_streams(config.seed, instance, spec.name, run)
    agent = make_agent(spec, config, env, agent_rng)
    if config.experiment == "ranking":
        cum = _simulate_ranking(env, agent, config.horizon, env_rng)
    else:
        cum = _simulate_bandit(env, agent, config.horizon, env_rng)
    points = _log_points(config.horizon, config.stride)
    return RunResult(agent=spec.name, instance=instance, run=run,
                     rounds=points, cum_regret=cum[points - 1])


def _execute_task(args) -> RunResult:
    return execute_run(*args)


def collect_runs(config: RunConfig) -> list[RunResult]:
    """Execute every (instance, agent, run) combination, sorted for determinism.

    Every agent is first built once on instance 0 with a throwaway generator,
    so a bad agent value fails, naming the agent, before any task runs.
    """
    env = make_env(config, 0)
    for spec in config.agents:
        try:
            make_agent(spec, config, env, np.random.default_rng(0))
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"agent.{spec.name}: {exc}") from exc
    tasks = [(config, instance, spec, run)
             for instance in range(config.instances)
             for spec in config.agents
             for run in range(config.runs)]
    if config.workers == 1:
        results = [_execute_task(task) for task in tasks]
    else:
        # Imported here so serial runs, the common case, skip its load time.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(_execute_task, tasks, chunksize=1))
    order = {spec.name: i for i, spec in enumerate(config.agents)}
    results.sort(key=lambda r: (order[r.agent], r.instance, r.run))
    return results


def aggregate_results(config: RunConfig, results: list[RunResult]) -> dict:
    """Per-agent mean and std of the regret traces over all (instance, run)."""
    out = {}
    for spec in config.agents:
        traces = [r for r in results if r.agent == spec.name]
        stacked = np.vstack([r.cum_regret for r in traces])
        out[spec.name] = {
            "rounds": traces[0].rounds,
            "mean": stacked.mean(axis=0),
            "std": stacked.std(axis=0),
            "n_runs": stacked.shape[0],
        }
    return out


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_trace_csv(path: Path, results: list[RunResult]) -> None:
    rows = []
    for res in results:
        for t, value in zip(res.rounds, res.cum_regret):
            rows.append([res.agent, res.instance, res.run, int(t), repr(float(value))])
    _write_csv(path, TRACE_COLUMNS, rows)


def write_aggregate_csv(path: Path, aggregates: dict) -> None:
    rows = []
    for agent, agg in aggregates.items():
        for t, mean, std in zip(agg["rounds"], agg["mean"], agg["std"]):
            rows.append([agent, int(t), repr(float(mean)), repr(float(std)),
                         agg["n_runs"]])
    _write_csv(path, AGGREGATE_COLUMNS, rows)


def run_experiment(config: RunConfig) -> dict:
    """Execute the configured experiment and write trace and aggregate CSVs.

    Returns the output paths together with the in-memory aggregates.
    """
    results = collect_runs(config)
    aggregates = aggregate_results(config, results)
    out_dir = Path(config.out_dir)
    trace_path = out_dir / "trace.csv"
    aggregate_path = out_dir / "aggregate.csv"
    write_trace_csv(trace_path, results)
    write_aggregate_csv(aggregate_path, aggregates)
    return {"trace": trace_path, "aggregate": aggregate_path,
            "aggregates": aggregates}


def parameter_sweep(config: RunConfig) -> list[dict]:
    """Run the experiment grid over (alpha, z) for one pool agent.

    Each cell reruns the full (instances x runs) experiment with the target
    agent's alpha and z replaced; seeds depend only on the agent name, so a
    standalone run with the same name and parameters reproduces any cell.
    Writes ``sweep.csv`` and returns its rows.
    """
    if not config.sweep:
        raise ConfigError("sweep: missing section")
    target = config.sweep.get("agent")
    pool_agents = [s for s in config.agents if s.kind == "pool"]
    if target is None:
        if len(pool_agents) != 1:
            raise ConfigError("sweep.agent: required when the pool agent is ambiguous")
        target = pool_agents[0].name
    if target not in {s.name for s in config.agents}:
        raise ConfigError(f"sweep.agent: no agent section named {target!r}")

    spec = next(s for s in config.agents if s.name == target)
    if spec.kind != "pool":
        raise ConfigError(
            f"sweep.agent: {target!r} has kind {spec.kind!r}, which takes "
            "no alpha or z; the sweep needs a pool agent")
    # Every axis and cell is checked before the first one runs, so a bad
    # value late in a grid cannot fail the sweep after the earlier cells' work.
    for axis in ("alpha", "z"):
        if axis not in AGENTS[config.experiment, spec.kind].params:
            raise _unknown_field("sweep", axis, config.experiment, spec.kind)
        for value in config.sweep[axis]:
            try:
                agents_mod.PoolParams(**{axis: value})
            except ValueError as exc:
                raise ConfigError(f"sweep.{axis}: {exc}") from exc
    rows = []
    for alpha in config.sweep["alpha"]:
        for z in config.sweep["z"]:
            # Seeds derive from the agent name alone, so running the target
            # agent by itself reproduces its runs from any larger config.
            cell_spec = dataclasses.replace(
                spec, params={**spec.params, "alpha": alpha, "z": z})
            cell = dataclasses.replace(config, agents=(cell_spec,), sweep=None)
            results = collect_runs(cell)
            finals = np.array([r.cum_regret[-1] for r in results])
            rows.append({"alpha": alpha, "z": z,
                         "mean_final_regret": float(finals.mean()),
                         "std_final_regret": float(finals.std()),
                         "n_runs": finals.size})
    path = Path(config.out_dir) / "sweep.csv"
    _write_csv(path, SWEEP_COLUMNS,
               [[r["alpha"], r["z"], repr(r["mean_final_regret"]),
                 repr(r["std_final_regret"]), r["n_runs"]] for r in rows])
    return rows
