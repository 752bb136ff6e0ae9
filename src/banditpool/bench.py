"""Experiment runner: seeded agent-environment loops, aggregation, CSV output.

Configs are INI files with three kinds of sections::

    [run]                     # experiment, n, instances, runs, seed, out_dir,
                              # stride, workers
    [env]                     # per-experiment environment parameters
    [agent.<name>]            # kind plus agent parameters, one section each
    [sweep]                   # alpha (and z) grids for parameter_sweep

Every run is reproducible: the run executed for (instance, agent, run) seeds a
PCG64 generator from ``SeedSequence([seed, 2, instance, digest(agent), run])``
where ``digest`` is the first 8 bytes of BLAKE2s of the agent name; problem
instances come from ``SeedSequence([seed, 1, instance])``.  Runs are
collected in (agent, instance, run) order, so serial and parallel execution
produce identical files.
"""

from __future__ import annotations

import configparser
import csv
import dataclasses
import hashlib
import itertools
import numbers
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import agents as agents_mod
from . import baselines, envs, ranking

TRACE_COLUMNS = ["agent", "instance", "run", "round", "cum_regret"]
AGGREGATE_COLUMNS = ["agent", "round", "mean_regret", "std_regret", "n_runs"]
SWEEP_STATS = ["mean_final_regret", "std_final_regret", "n_runs"]


class ConfigError(ValueError):
    """Invalid run configuration; the message carries the field path."""


REQUIRED = object()  # the default of a key that has none


class _Resolved(dict):
    """A table entry's keys, as configured or defaulted.  A required key
    that was not configured is absent, and reading it fails naming it, so a
    key is required only where the factory reads it."""

    def __init__(self, path: str, given: dict, params: dict, env=None):
        super().__init__(
            (key, given[key] if key in given
             else default(env) if callable(default) else default)
            for key, (_, default) in params.items()
            if key in given or default is not REQUIRED)
        self.path = path

    def __missing__(self, key):
        raise ConfigError(f"{self.path}.{key}: missing required field")


def _check_fields(path: str, given, params, owner: str = "") -> None:
    """Reject a key in ``given`` that ``params`` does not list."""
    for key in given:
        if key not in params:
            raise ConfigError(
                f"{path}.{key}: unknown field{owner}; expected one of "
                f"{', '.join(params) or '(none)'}")


def _check_values(path: str, given, params, owner: str) -> None:
    """Reject a key ``params`` does not list, or a value of a type its
    coercer does not produce, as a config built in Python may hold."""
    _check_fields(path, given, params, owner)
    for key, value in given.items():
        what, accepts = _VALUE_TYPES[params[key][0]]
        if not accepts(value):
            raise ConfigError(f"{path}.{key}: must be {what}, got {value!r}")


def _owner(experiment: str, kind: str | None = None) -> str:
    """Whose keys a field was checked against, for the error message."""
    kind_part = f"kind {kind!r} in " if kind else ""
    return f" for {kind_part}experiment {experiment!r}"


@dataclass(frozen=True)
class AgentSpec:
    name: str
    kind: str
    params: dict


@dataclass(frozen=True)
class RunConfig:
    """A run's values, checked here however they are built; only the rules
    on the swept agent's kind wait for ``parameter_sweep``."""

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
        if self.experiment not in ENVS:
            raise ConfigError(f"run.experiment: must be one of {tuple(ENVS)}")
        for key, value, least in (
                ("n", self.horizon, 1), ("instances", self.instances, 1),
                ("runs", self.runs, 1), ("workers", self.workers, 1),
                ("seed", self.seed, 0)):
            if value < least:
                raise ConfigError(f"run.{key}: must be >= {least}")
        if self.stride < 1 or self.stride > self.horizon:
            raise ConfigError("run.stride: must be in [1, n]")
        if not self.agents:
            raise ConfigError("agent.*: at least one agent section is required")
        names = [a.name for a in self.agents]
        if len(set(names)) != len(names):
            raise ConfigError("agent.*: agent names must be unique")
        for spec in self.agents:
            if not spec.name:
                raise ConfigError("agent.: agent name must be non-empty")
            if (self.experiment, spec.kind) not in AGENTS:
                kinds = ", ".join(k for e, k in AGENTS if e == self.experiment)
                raise ConfigError(
                    f"agent.{spec.name}.kind: {spec.kind!r} is not valid for "
                    f"experiment {self.experiment!r}; expected one of {kinds}")
            _check_values(f"agent.{spec.name}", spec.params,
                          AGENTS[self.experiment, spec.kind].params,
                          _owner(self.experiment, spec.kind))
        _check_values("env", self.env, ENVS[self.experiment].params,
                      _owner(self.experiment))
        extra = [key for key in self.env if key != "queries_dir"]
        if "queries_dir" in self.env and extra:
            raise ConfigError(f"env.{extra[0]}: not read with env.queries_dir, "
                              "whose files give the whole instance")
        if self.sweep is not None:
            _check_fields("sweep", self.sweep, ("alpha", "z", "agent"))
            for axis in ("alpha", "z"):
                if axis in self.sweep and not self.sweep[axis]:
                    raise ConfigError(f"sweep.{axis}: grid must be nonempty")


@dataclass(frozen=True)
class RunResult:
    agent: str
    instance: int
    run: int
    rounds: np.ndarray
    cum_regret: np.ndarray


def _coerce(raw: str, path: str, kind):
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{path}: cannot parse {raw!r} as {kind.__name__}") from exc


def _typed(section: str, items, params: dict) -> dict:
    """Type each key ``params`` lists; leave any other for RunConfig to reject."""
    return {key: _coerce(raw, f"{section}.{key}", params[key][0])
            if key in params else raw for key, raw in items}


_RUN_FIELDS = {
    "experiment": (str, REQUIRED), "n": (int, REQUIRED),
    "instances": (int, REQUIRED), "runs": (int, REQUIRED),
    "seed": (int, REQUIRED), "out_dir": (str, REQUIRED),
    "stride": (int, RunConfig.stride), "workers": (int, RunConfig.workers),
}


def _read_error(exc: configparser.Error) -> str:
    """The line and the fault of an INI file configparser cannot read.

    Built from the exception's fields: its message names the file, once or
    twice, and puts a parsing error's line number on a second line.
    """
    if isinstance(exc, configparser.MissingSectionHeaderError):
        return f"line {exc.lineno}: {exc.line!r} comes before any section header"
    if isinstance(exc, configparser.ParsingError):
        (lineno, line), count = exc.errors[0], len(exc.errors)
        return f"line {lineno}: cannot parse {line}" + (
            f" (first of {count} such lines)" if count > 1 else "")
    what = (f"option {exc.option!r} in section {exc.section!r}"
            if isinstance(exc, configparser.DuplicateOptionError)
            else f"section {exc.section!r}")
    return f"line {exc.lineno}: {what} already exists"


def parse_config(path) -> RunConfig:
    """Parse an INI run configuration; raises ConfigError with a field path.

    A section or key the runner does not read is rejected rather than
    ignored, so a misspelt field cannot silently fall back to its default.
    Only what needs the INI text is checked here; RunConfig checks values.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        read = parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {_read_error(exc)}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: cannot decode byte "
                          f"{exc.object[exc.start]:#04x}") from exc
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

    run = dict(parser.items("run"))
    _check_fields("run", run, _RUN_FIELDS)
    run = _Resolved("run", _typed("run", run.items(), _RUN_FIELDS), _RUN_FIELDS)
    agent_specs = []
    for section in parser.sections():
        if not section.startswith("agent."):
            continue
        params = dict(parser.items(section))
        kind = params.pop("kind", None)
        if kind is None:
            raise ConfigError(f"{section}.kind: missing required field")
        entry = AGENTS.get((run["experiment"], kind), AgentEntry(None, {}))
        agent_specs.append(AgentSpec(section[len("agent."):], kind, _typed(
            section, params.items(), entry.params)))

    sweep = None
    if parser.has_section("sweep"):
        sweep = dict(parser.items("sweep"))
        for axis in [axis for axis in ("alpha", "z") if axis in sweep]:
            raw = sweep[axis]
            try:
                sweep[axis] = [float(v) for v in raw.split(",") if v.strip()]
            except ValueError as exc:
                raise ConfigError(f"sweep.{axis}: cannot parse grid {raw!r}") from exc

    return RunConfig(
        env=_typed("env", parser.items("env"), ENVS.get(
            run["experiment"], EnvEntry(None, {})).params),
        agents=tuple(agent_specs), sweep=sweep,
        **{"horizon" if key == "n" else key: run[key] for key in _RUN_FIELDS})


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


def _cascade_env(p: dict, rng: np.random.Generator, instance: int):
    if p["queries_dir"] is None:
        return envs.generate_cascade(p["L"], p["K"], rng, low=p["low"],
                                     high=p["high"])
    files = sorted(Path(p["queries_dir"]).glob("*.txt"))
    if instance >= len(files):
        raise ConfigError(f"run.instances: only {len(files)} query files in "
                          f"{p['queries_dir']}")
    return envs.load_cascade_file(files[instance])


# One entry per experiment: ``factory(values, rng, instance)`` builds env
# ``instance`` from ``instance_rng(seed, instance)``, and ``params`` maps each
# [env] key it reads to ``(type, default)``.  Factories look ``envs``
# functions up when called, so a tracer that replaces them sees every call.
EnvEntry = namedtuple("EnvEntry", "factory params")

_ARM_KEYS = {"family": (str, REQUIRED), "K": (int, REQUIRED),
             "v": (float, envs.DEFAULT_BETA_CONCENTRATION),
             "sigma": (float, envs.DEFAULT_GAUSSIAN_STD)}

ENVS = {
    "mab": EnvEntry(lambda p, rng, i: envs.generate_mab(
        p["K"], p["family"], rng, v=p["v"], sigma=p["sigma"]), _ARM_KEYS),
    "linear": EnvEntry(lambda p, rng, i: envs.generate_linear(
        p["K"], p["d"], p["family"], rng, v=p["v"], sigma=p["sigma"]),
        {**_ARM_KEYS, "d": (int, REQUIRED)}),
    # Query files, when given, replace every other key (RunConfig checks).
    "ranking": EnvEntry(_cascade_env, {
        "L": (int, REQUIRED), "K": (int, REQUIRED),
        "low": (float, envs.DEFAULT_ATTRACTION_LOW),
        "high": (float, envs.DEFAULT_ATTRACTION_HIGH),
        "queries_dir": (str, None)}),
}


def make_env(config: RunConfig, instance: int):
    """Deterministically build environment ``instance`` for this config."""
    entry = ENVS[config.experiment]
    return entry.factory(_Resolved("env", config.env, entry.params),
                         instance_rng(config.seed, instance), instance)


# One entry per (experiment, kind): ``factory(env, horizon, rng, values)``
# builds the agent, and ``params`` maps each config key the factory reads to
# ``(type, default)``, where a callable default is a function of the env.
# ``make_agent`` passes every key in ``values``, as configured or defaulted.
AgentEntry = namedtuple("AgentEntry", "factory params")

_POOL_KEYS = {"alpha": (float, 0.6), "z": (float, 0.6)}
_LAMBDA = {"lambda": (float, 1.0)}


def float_or_auto(raw: str) -> float | str:
    """The linear pool agent's ``lambda``: a float, or ``auto`` to derive it
    from the warm-up Gram matrix."""
    return raw if raw == "auto" else float(raw)


def _number(value, kind=numbers.Real) -> bool:
    """Whether ``value`` is a ``kind`` number; a bool is not one here."""
    return isinstance(value, kind) and not isinstance(value, bool)


# What each table type's coercer produces, and so what a config built in
# Python may give a key of that type.
_VALUE_TYPES = {
    int: ("an int", lambda v: _number(v, numbers.Integral)),
    float: ("a number", _number),
    float_or_auto: ("a number or 'auto'",
                    lambda v: _number(v) or isinstance(v, str) and v == "auto"),
    str: ("a string", lambda v: isinstance(v, str)),
}

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
        env.features, n, agents_mod.PoolParams(p["alpha"], p["z"]), rng,
        p["lambda"]), {**_POOL_KEYS, "lambda": (float_or_auto, 1.0)}),
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


def make_agent(spec: AgentSpec, config: RunConfig, env,
               rng: np.random.Generator):
    """Instantiate the policy named by ``spec`` for one run."""
    entry = AGENTS[config.experiment, spec.kind]
    return entry.factory(env, config.horizon, rng, _Resolved(
        f"agent.{spec.name}", spec.params, entry.params, env))


def _log_points(horizon: int, stride: int) -> np.ndarray:
    """Every ``stride``-th round, and always the final round."""
    points = np.arange(stride, horizon + 1, stride, dtype=np.int64)
    if horizon % stride:
        points = np.append(points, horizon)
    return points


def _simulate(env, agent, horizon, env_rng) -> np.ndarray:
    """Cumulative expected regret after each round of one episode."""
    losses = np.empty(horizon, dtype=float)
    for t in range(1, horizon + 1):
        action = agent.select(t)
        feedback, losses[t - 1] = env.play(action, env_rng)
        agent.update(t, action, feedback)
    return np.cumsum(losses)


def execute_run(config: RunConfig, instance: int, spec: AgentSpec,
                run: int) -> RunResult:
    """Run one seeded (instance, agent, run) episode and log its regret."""
    env = make_env(config, instance)
    env_rng, agent_rng = run_streams(config.seed, instance, spec.name, run)
    agent = make_agent(spec, config, env, agent_rng)
    cum = _simulate(env, agent, config.horizon, env_rng)
    points = _log_points(config.horizon, config.stride)
    return RunResult(agent=spec.name, instance=instance, run=run,
                     rounds=points, cum_regret=cum[points - 1])


def collect_runs(config: RunConfig) -> list[RunResult]:
    """Execute every (agent, instance, run) combination, in that order.

    Every instance, and every agent on instance 0 with a throwaway
    generator, are first built once, so a bad env or agent value fails,
    naming its section, before any task runs.
    """
    path = "env"
    try:
        env, *_ = [make_env(config, i) for i in range(config.instances)]
        for spec in config.agents:
            path = f"agent.{spec.name}"
            make_agent(spec, config, env, np.random.default_rng(0))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    # Agent-major, the order the results are returned in.
    specs, instances, runs = zip(*itertools.product(
        config.agents, range(config.instances), range(config.runs)))
    columns = ([config] * len(runs), instances, specs, runs)
    if config.workers == 1:
        return list(map(execute_run, *columns))
    # Imported here so serial runs, the common case, skip its load time.
    from concurrent.futures import ProcessPoolExecutor

    # Executor.map yields in input order, whatever order the tasks finish in.
    with ProcessPoolExecutor(max_workers=config.workers) as pool:
        return list(pool.map(execute_run, *columns, chunksize=1))


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


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


# The writers stream their rows, so no list of every row is ever held.
# ``tolist`` gives Python ints and floats, which ``csv`` writes as
# ``str(int)`` and ``repr(float)``.
def write_trace_csv(path: Path, results: list[RunResult]) -> None:
    _write_csv(path, TRACE_COLUMNS, (
        (res.agent, res.instance, res.run, t, value) for res in results
        for t, value in zip(res.rounds.tolist(), res.cum_regret.tolist())))


def write_aggregate_csv(path: Path, aggregates: dict) -> None:
    _write_csv(path, AGGREGATE_COLUMNS, (
        (agent, t, mean, std, agg["n_runs"])
        for agent, agg in aggregates.items()
        for t, mean, std in zip(agg["rounds"].tolist(), agg["mean"].tolist(),
                                agg["std"].tolist())))


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
    """Run the experiment grid over one pool agent's alpha, and its z where
    its kind reads one.

    Each cell reruns the full (instances x runs) experiment with the target
    agent's swept keys replaced; seeds depend only on the agent name, so a
    standalone run with the same name and parameters reproduces any cell.
    Writes ``sweep.csv`` (the swept axes, then ``SWEEP_STATS``) and returns
    its rows.
    """
    if config.sweep is None:
        raise ConfigError("sweep: missing section")
    pool_agents = [s.name for s in config.agents if s.kind == "pool"]
    target = config.sweep.get(
        "agent", pool_agents[0] if len(pool_agents) == 1 else None)
    if target is None:
        raise ConfigError("sweep.agent: required when the pool agent is ambiguous")
    spec = next((s for s in config.agents if s.name == target), None)
    if spec is None:
        raise ConfigError(f"sweep.agent: no agent section named {target!r}")
    if spec.kind != "pool":
        raise ConfigError(
            f"sweep.agent: {target!r} has kind {spec.kind!r}, which takes "
            "no alpha or z; the sweep needs a pool agent")
    # Every axis and cell is checked before the first one runs, so a bad
    # value late in a grid cannot fail the sweep after the earlier cells' work.
    params = AGENTS[config.experiment, spec.kind].params
    _check_fields("sweep", [axis for axis in ("alpha", "z") if axis in config.sweep],
                  params, _owner(config.experiment, spec.kind))
    axes = [axis for axis in ("alpha", "z") if axis in params]
    for axis in axes:
        if axis not in config.sweep:
            raise ConfigError(f"sweep.{axis}: missing required field")
        for value in config.sweep[axis]:
            try:
                agents_mod.PoolParams(**{axis: value})
            except ValueError as exc:
                raise ConfigError(f"sweep.{axis}: {exc}") from exc
    rows = []
    for values in itertools.product(*(config.sweep[axis] for axis in axes)):
        swept = dict(zip(axes, values))
        # Seeds derive from the agent name alone, so running the target
        # agent by itself reproduces its runs from any larger config.
        cell_spec = dataclasses.replace(spec, params={**spec.params, **swept})
        cell = dataclasses.replace(config, agents=(cell_spec,), sweep=None)
        finals = np.array([r.cum_regret[-1] for r in collect_runs(cell)])
        rows.append({**swept, "mean_final_regret": float(finals.mean()),
                     "std_final_regret": float(finals.std()),
                     "n_runs": finals.size})
    path = Path(config.out_dir) / "sweep.csv"
    # csv writes str(x), which for a float is its round-trip repr.
    _write_csv(path, axes + SWEEP_STATS, [row.values() for row in rows])
    return rows
