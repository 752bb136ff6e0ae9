"""Experiment runner: configs, seeding, traces, aggregation, sweeps, CLI."""

import csv
import dataclasses
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from banditpool import bench, cli, envs
from banditpool.agents import Agent
from banditpool.bench import (
    AGGREGATE_COLUMNS,
    TRACE_COLUMNS,
    AgentSpec,
    ConfigError,
    RunConfig,
    aggregate_results,
    collect_runs,
    make_env,
    parameter_sweep,
    parse_config,
    run_experiment,
    run_streams,
    write_trace_csv,
)
from banditpool.envs import MabInstance, generate_cascade, save_cascade_file

BASE_CONFIG = """
[run]
experiment = mab
n = 120
instances = 2
runs = 2
seed = 77
out_dir = {out}
stride = 10

[env]
family = gaussian
K = 4

[agent.pool]
kind = pool
alpha = 0.6
z = 0.6

[agent.ucb1]
kind = ucb1
"""


def write_config(tmp_path, text=None, **extra):
    path = tmp_path / "run.ini"
    body = (text or BASE_CONFIG).format(out=tmp_path / "out")
    for section, lines in extra.items():
        body += f"\n[{section}]\n" + "\n".join(lines) + "\n"
    path.write_text(body)
    return path


class TestParseConfig:
    def test_round_trip(self, tmp_path):
        config = parse_config(write_config(tmp_path))
        assert config.experiment == "mab"
        assert config.horizon == 120
        assert config.instances == 2
        assert config.runs == 2
        assert config.seed == 77
        assert config.stride == 10
        assert [a.name for a in config.agents] == ["pool", "ucb1"]
        assert config.agents[0].params == {"alpha": 0.6, "z": 0.6}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.ini")

    @pytest.mark.parametrize("mutation, field", [
        ("n = 120", "run.n"),
        ("experiment = mab", "run.experiment"),
        ("kind = pool", "agent.pool.kind"),
    ])
    def test_missing_required_field(self, tmp_path, mutation, field):
        body = BASE_CONFIG.replace(mutation, "")
        with pytest.raises(ConfigError, match=field.split(".")[-1]):
            parse_config(write_config(tmp_path, text=body))

    def test_unparsable_value_names_the_field(self, tmp_path):
        body = BASE_CONFIG.replace("n = 120", "n = soon")
        with pytest.raises(ConfigError, match="run.n"):
            parse_config(write_config(tmp_path, text=body))

    def test_bad_stride_rejected(self, tmp_path):
        body = BASE_CONFIG.replace("stride = 10", "stride = 500")
        with pytest.raises(ConfigError, match="stride"):
            parse_config(write_config(tmp_path, text=body))

    def test_values_are_literal(self, tmp_path):
        """``%`` has no meaning in a value: it is read as written."""
        body = BASE_CONFIG.replace("out_dir = {out}", "out_dir = {out}%x")
        config = parse_config(write_config(tmp_path, text=body))
        assert config.out_dir == f"{tmp_path / 'out'}%x"

    def test_sweep_section(self, tmp_path):
        path = write_config(tmp_path, sweep=["alpha = 0.4,0.6", "z = 0.5"])
        config = parse_config(path)
        assert config.sweep == {"alpha": [0.4, 0.6], "z": [0.5]}

    @pytest.mark.parametrize("section, line, field", [
        ("agent.pool", "alpah = 5.0", "agent.pool.alpah"),
        ("env", "sgima = 3.0", "env.sgima"),
        ("run", "sede = 3", "run.sede"),
        ("sweep", "beta = 0.5", "sweep.beta"),
    ])
    def test_unknown_key_rejected(self, tmp_path, section, line, field):
        body = BASE_CONFIG + "\n[sweep]\nalpha = 0.6\nz = 0.6\n"
        body = body.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
        with pytest.raises(ConfigError, match=f"^{field}: unknown field"):
            parse_config(write_config(tmp_path, text=body))

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path, **{"agnet.ucbv": ["kind = ucbv"]})
        with pytest.raises(ConfigError, match="^agnet.ucbv: unknown section"):
            parse_config(path)

    def test_readme_config_parses(self, tmp_path):
        """The README's example config and [sweep] section are valid input."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```ini\n(.*?)```", readme, re.S)
        path = tmp_path / "readme.ini"
        path.write_text("\n".join(blocks))
        config = parse_config(path)
        assert [a.kind for a in config.agents] == ["pool", "ucb1", "ucbv"]
        assert config.stride == 10 and config.workers == 1
        assert config.sweep == {"alpha": [0.4, 0.6, 0.8], "z": [0.5, 0.6, 0.7]}

    def test_readme_agent_table_lists_the_table_keys(self):
        """The README's kinds-and-keys table matches ``bench.AGENTS``."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| (.*) \|$", readme, re.M)
        listed = {(experiment, kind): set(re.findall(r"`(\w+)`", keys))
                  for experiment, kind, keys in rows}
        assert listed == {key: set(entry.params)
                          for key, entry in bench.AGENTS.items()}

    def test_readme_python_quick_start_prints_one_finite_number(self, capsys):
        """The README's Python quick start runs as written."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block, = re.findall(r"## Quick start \(Python\)\n\n```python\n(.*?)```",
                            readme, re.S)
        exec(compile(block, "README.md", "exec"), {})
        printed = capsys.readouterr().out.split()
        assert len(printed) == 1 and math.isfinite(float(printed[0]))


def foreign_key(experiment, kind):
    """A key some other kind reads but ``kind`` does not."""
    return next(key for entry in bench.AGENTS.values() for key in entry.params
                if key not in bench.AGENTS[experiment, kind].params)


class TestAgentKeys:
    def test_key_of_another_kind_rejected_with_the_kinds_keys(self, tmp_path):
        body = BASE_CONFIG.replace("z = 0.6", "z = 0.6\nc = 2")
        with pytest.raises(ConfigError) as info:
            parse_config(write_config(tmp_path, text=body))
        assert str(info.value) == (
            "agent.pool.c: unknown field for kind 'pool' in experiment 'mab'; "
            "expected one of alpha, z")

    @pytest.mark.parametrize("experiment, kind", sorted(bench.AGENTS))
    def test_every_kind_rejects_a_foreign_key(self, tmp_path, experiment, kind):
        key = foreign_key(experiment, kind)
        field = f"^agent.a.{key}: unknown field for kind '{kind}' in experiment "
        path = tmp_path / "run.ini"
        path.write_text(f"[run]\nexperiment = {experiment}\nn = 10\n"
                        f"instances = 1\nruns = 1\nseed = 1\nout_dir = out\n"
                        f"[env]\n[agent.a]\nkind = {kind}\n{key} = 1\n")
        with pytest.raises(ConfigError, match=field):
            parse_config(path)
        with pytest.raises(ConfigError, match=field):
            dataclasses.replace(small_config(tmp_path), experiment=experiment,
                                agents=(AgentSpec("a", kind, {key: 1.0}),))

    def test_keys_typed_by_kind(self, tmp_path):
        body = BASE_CONFIG.replace("[agent.ucb1]\nkind = ucb1", (
            "[agent.ucbv]\nkind = ucbv\nb = 2\n"
            "[agent.gauss_ts]\nkind = gauss_ts\nprior_mean = 1"))
        config = parse_config(write_config(tmp_path, text=body))
        assert [spec.params for spec in config.agents] == [
            {"alpha": 0.6, "z": 0.6}, {"b": 2.0}, {"prior_mean": 1.0}]

    @pytest.mark.parametrize("line, field", [
        ("alpha = nan", "^agent.pool: alpha must be positive and finite"),
        ("lambda = 5", "^agent.pool.lambda: unknown field"),
        ("c = 2", "^agent.pool.c: unknown field"),
        pytest.param("[env]\nfamily = gaussian\nK = 1",
                     "^env: need at least two arms, got 1$", id="env-one-arm"),
        pytest.param("[run]\nexperiment = ranking\nn = 120\ninstances = 1\n"
                     "runs = 1\nseed = 77\nout_dir = {out}\n[env]\n"
                     "queries_dir = queries\n[agent.ucb1]\nkind = klucb",
                     r"^env: queries/q0\.txt: attraction of item 1 must lie in "
                     r"\[0, 1\], got nan$", id="env-nan-attraction"),
        pytest.param("[run]\nexperiment = mab\nn = 120\ninstances = 2\n"
                     "runs = 2\nseed = -1\nout_dir = {out}",
                     "^run.seed: must be >= 0$", id="run-negative-seed"),
    ])
    def test_bad_agent_fails_before_the_first_task(self, tmp_path, monkeypatch,
                                                   capsys, line, field):
        """A bad run or env value, or a bad value in a later agent section,
        stops the run before any task runs, with a one-line error and exit status
        2, and no CSV is written.  ``line`` joins a pool agent section that
        follows the others, unless it opens sections of its own, which then
        replace the base config's sections of those names."""
        def no_task(*args):
            raise AssertionError("a task ran before every agent was checked")

        (tmp_path / "queries").mkdir()
        (tmp_path / "queries" / "q0.txt").write_text("L=2 K=1\n0\t0.5\n1\tnan\n")
        monkeypatch.chdir(tmp_path)
        body = BASE_CONFIG.replace(
            "[agent.pool]\nkind = pool\nalpha = 0.6\nz = 0.6\n", "")
        if not line.startswith("["):
            line = f"[agent.pool]\nkind = pool\n{line}"
        for section in re.findall(r"^\[(.+)\]$", line, re.M):
            body = re.sub(rf"^\[{re.escape(section)}\]\n(?:[^\[\n].*\n|\n)*",
                          "", body, flags=re.M)
        path = write_config(tmp_path, text=f"{body}\n{line}\n")
        monkeypatch.setattr(bench, "execute_run", no_task)
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert re.match(field, err.removeprefix("error: "))
        assert not (tmp_path / "out").exists()


def foreign_env_key(experiment):
    """A key some other experiment's env reads but ``experiment``'s does not."""
    return next(key for entry in bench.ENVS.values() for key in entry.params
                if key not in bench.ENVS[experiment].params)


class TestEnvKeys:
    @pytest.mark.parametrize("experiment", sorted(bench.ENVS))
    def test_every_experiment_rejects_a_foreign_key(self, tmp_path, experiment):
        key = foreign_env_key(experiment)
        field = (f"^env.{key}: unknown field for experiment '{experiment}'; "
                 f"expected one of {', '.join(bench.ENVS[experiment].params)}$")
        path = tmp_path / "run.ini"
        path.write_text(f"[run]\nexperiment = {experiment}\nn = 10\n"
                        f"instances = 1\nruns = 1\nseed = 1\nout_dir = out\n"
                        f"[env]\n{key} = 1\n[agent.a]\nkind = pool\n")
        with pytest.raises(ConfigError, match=field):
            parse_config(path)
        with pytest.raises(ConfigError, match=field):
            dataclasses.replace(small_config(tmp_path), experiment=experiment,
                                env={key: 1}, agents=(AgentSpec("a", "pool", {}),))

    @pytest.mark.parametrize("experiment", sorted(bench.ENVS))
    def test_every_required_key_is_named_when_missing(self, tmp_path, experiment):
        params = bench.ENVS[experiment].params
        required = [key for key, (_, default) in params.items()
                    if default is bench.REQUIRED]
        assert required
        for key in required:
            env = {k: v for k, v in TABLE_ENVS[experiment].items() if k != key}
            config = small_config(tmp_path, experiment=experiment, env=env,
                                  agents=(AgentSpec("a", "pool", {}),))
            with pytest.raises(ConfigError,
                               match=f"^env.{key}: missing required field$"):
                make_env(config, 0)

    def test_queries_dir_excludes_the_generated_instance_keys(self, tmp_path):
        field = "^env.L: not read with env.queries_dir"
        path = tmp_path / "run.ini"
        path.write_text("[run]\nexperiment = ranking\nn = 10\ninstances = 1\n"
                        "runs = 1\nseed = 1\nout_dir = out\n[env]\n"
                        "queries_dir = queries\nL = 6\n[agent.a]\nkind = pool\n")
        with pytest.raises(ConfigError, match=field):
            parse_config(path)
        with pytest.raises(ConfigError, match=field):
            small_config(tmp_path, experiment="ranking",
                         env={"queries_dir": "queries", "L": 6},
                         agents=(AgentSpec("a", "pool", {}),))

    def test_too_few_query_files_names_the_run_field(self, tmp_path):
        """A ConfigError raised while the instances are built keeps its own
        field path; only a plain ValueError is given the section's."""
        queries = tmp_path / "queries"
        queries.mkdir()
        (queries / "q0.txt").write_text("L=2 K=1\n0\t0.5\n1\t0.2\n")
        config = small_config(tmp_path, experiment="ranking",
                              env={"queries_dir": str(queries)},
                              agents=(AgentSpec("a", "klucb", {}),))
        with pytest.raises(ConfigError, match=(
                f"^run.instances: only 1 query files in {re.escape(str(queries))}$")):
            collect_runs(config)

    def test_bad_later_instance_fails_before_the_first_task(
            self, tmp_path, monkeypatch, capsys):
        """A bad env in instance 1 is reported before instance 0's tasks."""
        def no_task(*args):
            raise AssertionError("a task ran before every instance was built")

        queries = tmp_path / "queries"
        queries.mkdir()
        (queries / "q0.txt").write_text("L=2 K=1\n0\t0.5\n1\t0.2\n")
        (queries / "q1.txt").write_text("L=2 K=1\n0\t0.5\n1\tnan\n")
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "run.ini"
        path.write_text("[run]\nexperiment = ranking\nn = 20\ninstances = 2\n"
                        "runs = 1\nseed = 1\nout_dir = out\n[env]\n"
                        "queries_dir = queries\n[agent.a]\nkind = klucb\n")
        monkeypatch.setattr(bench, "execute_run", no_task)
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert re.match(r"^error: env: queries/q1\.txt: attraction of item 1 "
                        r"must lie in \[0, 1\], got nan$", err)
        assert not (tmp_path / "out").exists()


class TestSeeding:
    def test_streams_differ_between_runs(self):
        a_env, a_agent = run_streams(7, 0, "pool", 0)
        b_env, b_agent = run_streams(7, 0, "pool", 1)
        assert a_env.random() != b_env.random()
        assert a_agent.random() != b_agent.random()

    def test_streams_reproducible(self):
        first = run_streams(7, 3, "ucb1", 2)[0].random(4)
        second = run_streams(7, 3, "ucb1", 2)[0].random(4)
        np.testing.assert_array_equal(first, second)


class ScriptedAgent(Agent):
    """Plays a fixed arm sequence and learns nothing."""

    def __init__(self, n_arms, arms):
        super().__init__(n_arms, len(arms))
        self.arms = arms

    def _choose(self, t):
        return int(self.arms[t - 1])

    def _learn(self, t, arm, reward):
        pass


def scripted_regret(gaps, arms):
    """The loop's cumulative regret for ``arms`` on an instance with ``gaps``."""
    env = MabInstance(means=0.5 - np.asarray(gaps), family="gaussian")
    return bench._simulate(env, ScriptedAgent(len(gaps), arms), len(arms),
                           np.random.default_rng(0))


class TestRegretTrace:
    def test_running_sum_example(self):
        trace = scripted_regret([0.0, 0.3], [0, 1, 0])
        np.testing.assert_allclose(trace, [0.0, 0.3, 0.3])

    def test_always_optimal_is_zero(self):
        trace = scripted_regret([0.0, 0.2, 0.4], [0] * 10)
        np.testing.assert_array_equal(trace, np.zeros(10))

    def test_uniform_random_policy_rate(self):
        """Uniform play on gaps (0, 0.3) accrues about 0.15 per round."""
        rng = np.random.default_rng(1)
        n = 200_000
        arms = rng.integers(0, 2, size=n)
        final = scripted_regret([0.0, 0.3], arms)[-1]
        se = 0.15 * math.sqrt(n)  # per-round variance is 0.15^2
        assert abs(final - 0.15 * n) < 4 * se


TABLE_ENVS = {
    "mab": {"family": "gaussian", "K": 4},
    "linear": {"family": "gaussian", "K": 6, "d": 3},
    "ranking": {"L": 6, "K": 3},
}


def table_agent(experiment, kind, horizon, agent_rng):
    """Instance 0 of a small env of ``experiment`` and a ``kind`` agent on
    it, built by ``make_agent`` with its default parameters."""
    config = RunConfig(experiment=experiment, env=TABLE_ENVS[experiment],
                       agents=(AgentSpec(kind, kind, {}),), horizon=horizon,
                       instances=1, runs=1, seed=3, out_dir="unused",
                       stride=horizon)
    env = make_env(config, 0)
    return env, bench.make_agent(config.agents[0], config, env, agent_rng)


@pytest.mark.parametrize("experiment", sorted(bench.ENVS))
def test_env_factories_look_up_envs_when_called(monkeypatch, experiment):
    """A tracer that replaces a generator on ``envs`` sees ``make_env`` call it."""
    calls = []
    for name in ("generate_mab", "generate_linear", "generate_cascade"):
        real = getattr(envs, name)
        monkeypatch.setattr(envs, name, lambda *args, real=real, **kwargs: (
            calls.append(real.__name__) or real(*args, **kwargs)))
    config = RunConfig(experiment=experiment, env=TABLE_ENVS[experiment],
                       agents=(AgentSpec("a", "pool", {}),), horizon=5,
                       instances=1, runs=1, seed=3, out_dir="unused", stride=5)
    make_env(config, 0)
    assert len(calls) == 1


@pytest.mark.parametrize("experiment, kind", list(bench.AGENTS))
def test_round_protocol(experiment, kind):
    """Every kind in the agent table keeps the one round protocol."""
    env, agent = table_agent(experiment, kind, 5, np.random.default_rng(0))
    for t in (0, 6):
        with pytest.raises(ValueError, match=f"round {t} outside"):
            agent.select(t)
    action = agent.select(1)
    with pytest.raises(RuntimeError, match="round 1 still awaits feedback"):
        agent.select(2)
    feedback, _ = env.play(action, np.random.default_rng(1))
    other = action[::-1] if experiment == "ranking" else (action + 1) % env.n_arms
    for t, wrong in ((2, action), (1, other)):
        with pytest.raises(RuntimeError, match="does not match"):
            agent.update(t, wrong, feedback)
    bad = len(action) if experiment == "ranking" else math.nan
    with pytest.raises(ValueError, match="round 1"):
        agent.update(1, action, bad)
    agent.update(1, action, feedback)
    agent.select(2)


BERNOULLI_ENVS = {**TABLE_ENVS,
                  "mab": {"family": "bernoulli", "K": 4},
                  "linear": {"family": "bernoulli", "K": 6, "d": 3}}
# Allocated with np.empty: only the first ``_seen`` entries (none yet) hold
# data.
HISTORY_BUFFERS = ("_rewards",)


def assert_same_state(made, plain, where):
    """``made`` and ``plain`` agree attribute by attribute, generators by
    type."""
    assert type(made) is type(plain), where
    assert vars(made).keys() == vars(plain).keys(), where
    for name, value in vars(made).items():
        other, at = vars(plain)[name], f"{where}.{name}"
        if isinstance(value, np.random.Generator):
            assert isinstance(other, np.random.Generator), at
        elif isinstance(value, np.ndarray):
            assert (value.dtype, value.shape) == (other.dtype, other.shape), at
            assert name in HISTORY_BUFFERS or np.array_equal(value, other), at
        elif dataclasses.is_dataclass(value) or not hasattr(value, "__dict__"):
            assert value == other, at
        else:
            assert_same_state(value, other, at)


@pytest.mark.parametrize("experiment, kind", list(bench.AGENTS))
def test_table_defaults_match_the_constructor_defaults(experiment, kind):
    """A ``make_agent`` agent from an empty section equals one its class
    builds with no optional argument.  On a Bernoulli env the env-dependent
    defaults (``ucbv.b``, ``gauss_ts.sigma``, ``linphe.pseudo``) are the
    constructors' too, so no default has a second owner that disagrees."""
    horizon = 50
    config = RunConfig(experiment=experiment, env=BERNOULLI_ENVS[experiment],
                       agents=(AgentSpec(kind, kind, {}),), horizon=horizon,
                       instances=1, runs=1, seed=3, out_dir="unused",
                       stride=horizon)
    env = make_env(config, 0)
    made = bench.make_agent(config.agents[0], config, env,
                            np.random.default_rng(0))
    required = {"mab": lambda: (env.n_arms, horizon),
                "linear": lambda: (env.features, horizon),
                "ranking": lambda: (env.n_items, env.slate_size, horizon)}
    plain = type(made)(*required[experiment]())
    assert_same_state(made, plain, kind)


def reference_regret_trace(gaps, arms):
    """The loss accounting the MAB and linear loop used before ``env.play``."""
    return np.cumsum(np.asarray(gaps, dtype=float)[np.asarray(arms, dtype=int)])


def reference_simulate_bandit(env, agent, horizon, env_rng):
    arms = np.empty(horizon, dtype=np.int64)
    for t in range(1, horizon + 1):
        arm = agent.select(t)
        reward = env.sample_reward(arm, env_rng)
        agent.update(t, arm, reward)
        arms[t - 1] = arm
    return reference_regret_trace(env.gaps(), arms)


def reference_simulate_ranking(env, ranker, horizon, env_rng):
    optimal = env.expected_clicks(env.best_slate())
    losses = np.empty(horizon, dtype=float)
    for t in range(1, horizon + 1):
        slate = ranker.select_list(t)
        click = env.step(slate, env_rng)
        ranker.update(t, slate, click)
        losses[t - 1] = optimal - env.expected_clicks(slate)
    return np.cumsum(losses)


@pytest.mark.parametrize("experiment, kind", list(bench.AGENTS))
def test_loop_matches_the_old_loops_at_every_round(experiment, kind):
    """The one loop gives the old per-experiment loops' regret bit for bit,
    at every round, not only the logged ones the golden CSVs hold.  The
    horizon takes the pool agents past their warm-up."""
    horizon = 400

    def episode(simulate):
        env_rng, agent_rng = run_streams(3, 0, kind, 0)
        env, agent = table_agent(experiment, kind, horizon, agent_rng)
        return simulate(env, agent, horizon, env_rng)

    old = (reference_simulate_ranking if experiment == "ranking"
           else reference_simulate_bandit)
    assert np.array_equal(episode(bench._simulate), episode(old))


def small_config(tmp_path, **overrides):
    config = RunConfig(
        experiment="mab",
        env={"family": "gaussian", "K": 4},
        agents=(AgentSpec("pool", "pool", {}), AgentSpec("ucb1", "ucb1", {})),
        horizon=120, instances=2, runs=3, seed=7,
        out_dir=str(tmp_path / "out"), stride=10)
    return dataclasses.replace(config, **overrides) if overrides else config


class TestRunExperiment:
    def test_bookkeeping(self, tmp_path):
        config = small_config(tmp_path)
        outcome = run_experiment(config)
        points = config.horizon // config.stride
        with open(outcome["trace"]) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == TRACE_COLUMNS
        assert len(rows) - 1 == 2 * 2 * 3 * points
        with open(outcome["aggregate"]) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == AGGREGATE_COLUMNS
        assert len(rows) - 1 == 2 * points
        assert all(row[4] == "6" for row in rows[1:])

    def test_final_round_logged_when_stride_does_not_divide(self, tmp_path):
        """n = 105, stride 10: rounds 10, ..., 100 are logged, then 105."""
        config = small_config(tmp_path, horizon=105)
        every_round = collect_runs(dataclasses.replace(config, stride=1))
        results = collect_runs(config)
        for full, strided in zip(every_round, results):
            assert strided.rounds.tolist() == list(range(10, 101, 10)) + [105]
            assert strided.cum_regret[-1] == full.cum_regret[104]
        outcome = run_experiment(config)
        finals = [r.cum_regret[-1] for r in results if r.agent == "pool"]
        assert outcome["aggregates"]["pool"]["rounds"][-1] == 105
        assert outcome["aggregates"]["pool"]["mean"][-1] == pytest.approx(
            np.mean(finals))
        cell = parameter_sweep(dataclasses.replace(
            config, agents=config.agents[:1], sweep={"alpha": [0.6], "z": [0.6]}))
        assert cell[0]["mean_final_regret"] == pytest.approx(np.mean(finals))

    def test_reruns_byte_identical(self, tmp_path):
        paths = []
        for sub in ("a", "b"):
            config = small_config(tmp_path, out_dir=str(tmp_path / sub))
            paths.append(run_experiment(config))
        assert (paths[0]["trace"].read_bytes() == paths[1]["trace"].read_bytes())
        assert (paths[0]["aggregate"].read_bytes()
                == paths[1]["aggregate"].read_bytes())

    def test_trace_writer_streams_its_rows(self, tmp_path):
        """100k rows are written with a heap peak under 1 MB.  A list of
        every row, at about 200 bytes a row, would need about 20 MB."""
        config = small_config(tmp_path, horizon=1000, stride=1, instances=1,
                              runs=1)
        results = collect_runs(config) * 50
        path = tmp_path / "trace.csv"
        tracemalloc.start()
        try:
            write_trace_csv(path, results)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_bytes().count(b"\n") == 1 + 100_000
        assert peak < 1_000_000

    def test_serial_and_parallel_agree(self, tmp_path):
        serial = run_experiment(small_config(tmp_path, out_dir=str(tmp_path / "s")))
        parallel = run_experiment(
            small_config(tmp_path, out_dir=str(tmp_path / "p"), workers=3))
        assert (serial["trace"].read_bytes() == parallel["trace"].read_bytes())
        assert (serial["aggregate"].read_bytes()
                == parallel["aggregate"].read_bytes())

    def test_aggregate_matches_per_run_mean(self, tmp_path):
        config = small_config(tmp_path)
        results = collect_runs(config)
        aggregates = aggregate_results(config, results)
        pool_traces = np.vstack([r.cum_regret for r in results if r.agent == "pool"])
        np.testing.assert_allclose(aggregates["pool"]["mean"],
                                   pool_traces.mean(axis=0))
        np.testing.assert_allclose(aggregates["pool"]["std"],
                                   pool_traces.std(axis=0))

    def test_traces_monotone_and_bounded(self, tmp_path):
        config = small_config(tmp_path)
        for result in collect_runs(config):
            diffs = np.diff(np.concatenate([[0.0], result.cum_regret]))
            assert np.all(diffs >= -1e-12)
            env = make_env(config, result.instance)
            assert result.cum_regret[-1] <= config.horizon * env.gaps().max() + 1e-9

    def test_ranking_experiment_with_query_files(self, tmp_path):
        queries = tmp_path / "queries"
        queries.mkdir()
        rng = np.random.default_rng(3)
        for q in range(2):
            save_cascade_file(generate_cascade(6, 3, rng), queries / f"q{q}.txt")
        config = RunConfig(
            experiment="ranking",
            env={"queries_dir": str(queries)},
            agents=(AgentSpec("klucb", "klucb", {}),),
            horizon=50, instances=2, runs=1, seed=5,
            out_dir=str(tmp_path / "out"), stride=5)
        outcome = run_experiment(config)
        assert outcome["aggregates"]["klucb"]["n_runs"] == 2
        with pytest.raises(ConfigError, match="instances"):
            make_env(dataclasses.replace(config, instances=3), 2)


class TestParameterSweep:
    def test_single_cell_matches_plain_run(self, tmp_path):
        config = small_config(tmp_path, runs=1,
                              sweep={"alpha": [0.6], "z": [0.6]})
        rows = parameter_sweep(config)
        assert len(rows) == 1
        outcome = run_experiment(config)
        assert rows[0]["mean_final_regret"] == pytest.approx(
            float(outcome["aggregates"]["pool"]["mean"][-1]))

    def test_grid_shape_and_reproducibility(self, tmp_path):
        config = small_config(
            tmp_path, runs=1, sweep={"alpha": [0.4, 0.8], "z": [0.5, 0.7]})
        rows = parameter_sweep(config)
        assert len(rows) == 4
        assert (tmp_path / "out" / "sweep.csv").exists()
        # Each cell reproduces a standalone run with the same agent name.
        cell = rows[2]
        standalone = dataclasses.replace(
            config, sweep=None,
            agents=(AgentSpec("pool", "pool",
                              {"alpha": cell["alpha"], "z": cell["z"]}),
                    config.agents[1]),
            out_dir=str(tmp_path / "standalone"))
        outcome = run_experiment(standalone)
        assert cell["mean_final_regret"] == pytest.approx(
            float(outcome["aggregates"]["pool"]["mean"][-1]))

    def test_sweep_requires_section(self, tmp_path):
        with pytest.raises(ConfigError, match="sweep"):
            parameter_sweep(small_config(tmp_path))

    @pytest.mark.parametrize("grid, field", [
        ({"alpha": [0.6, -1.0], "z": [0.6]}, "sweep.alpha"),
        ({"alpha": [0.6], "z": [0.5, 1.0]}, "sweep.z"),
        ({"alpha": [0.6, math.nan], "z": [0.6]}, "sweep.alpha"),
        ({"alpha": [0.6]}, "sweep.z"),
    ])
    def test_bad_grid_rejected_before_the_first_cell(self, tmp_path,
                                                     monkeypatch, grid, field):
        def no_cell(config):
            raise AssertionError("a sweep cell ran before the grid was checked")

        monkeypatch.setattr(bench, "collect_runs", no_cell)
        with pytest.raises(ConfigError, match=f"^{field}: "):
            parameter_sweep(small_config(tmp_path, sweep=grid))
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_axis_the_target_does_not_read_rejected(self, tmp_path,
                                                    monkeypatch):
        def no_cell(config):
            raise AssertionError("a sweep cell ran before the grid was checked")

        config = small_config(
            tmp_path, experiment="ranking", env={"L": 6, "K": 2},
            agents=(AgentSpec("pool", "pool", {}),),
            sweep={"alpha": [0.6], "z": [0.6]})
        monkeypatch.setattr(bench, "collect_runs", no_cell)
        with pytest.raises(ConfigError, match=(
                "^sweep.z: unknown field for kind 'pool' in experiment "
                "'ranking'; expected one of alpha$")):
            parameter_sweep(config)

    def test_alpha_only_ranking_sweep(self, tmp_path, capsys):
        """A ranking pool agent reads no z, so it is swept over alpha alone."""
        body = (BASE_CONFIG.replace("experiment = mab", "experiment = ranking")
                .replace("family = gaussian\nK = 4", "L = 6\nK = 2")
                .replace("z = 0.6\n", "").replace("kind = ucb1", "kind = klucb"))
        path = write_config(tmp_path, text=body, sweep=["alpha = 0.4,0.6,0.8"])
        assert cli.main(["sweep", str(path)]) == 0
        with open(tmp_path / "out" / "sweep.csv") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["alpha", "mean_final_regret", "std_final_regret",
                           "n_runs"]
        assert [row[0] for row in rows[1:]] == ["0.4", "0.6", "0.8"]
        assert all(row[3] == "4" for row in rows[1:])
        out = capsys.readouterr().out
        assert out.count("alpha=") == 3 and "z=" not in out

    def test_sweep_target_must_be_a_pool_agent(self, tmp_path):
        config = small_config(
            tmp_path, sweep={"alpha": [0.6], "z": [0.6], "agent": "ucb1"})
        with pytest.raises(ConfigError, match="^sweep.agent: 'ucb1' has kind"):
            parameter_sweep(config)


class TestCli:
    def test_run_command(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert cli.main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "final mean regret" in out
        assert (tmp_path / "out" / "aggregate.csv").exists()

    def test_run_overrides(self, tmp_path):
        path = write_config(tmp_path)
        cli.main(["run", str(path), "--out", str(tmp_path / "other"),
                  "--stride", "20", "--seed", "1", "--workers", "2"])
        with open(tmp_path / "other" / "aggregate.csv") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) - 1 == 2 * (120 // 20)

    @pytest.mark.parametrize("flags, field, value", [
        ([], None, None),
        (["--seed", "7"], "seed", 7),
        (["--out", "elsewhere"], "out_dir", "elsewhere"),
        (["--workers", "2"], "workers", 2),
        (["--stride", "20"], "stride", 20),
    ], ids=["none", "seed", "out", "workers", "stride"])
    def test_each_override_sets_only_its_field(self, tmp_path, monkeypatch,
                                               flags, field, value):
        """The run gets the config file's values, with only the flag's
        field replaced by the flag's value."""
        path = write_config(tmp_path)
        ran = []

        def run_experiment(config):
            ran.append(config)
            return {"aggregates": {}, "trace": "t", "aggregate": "a"}

        monkeypatch.setattr(bench, "run_experiment", run_experiment)
        assert cli.main(["run", str(path), *flags]) == 0
        want = bench.parse_config(path)
        if field is not None:
            assert getattr(want, field) != value
            want = dataclasses.replace(want, **{field: value})
        assert ran == [want]

    @pytest.mark.parametrize("old, new, message", [
        ("[agent.ucb1]\n", "[agent.ucb1]\nkind = ucb1\n[agent.ucb1]\n",
         "line 22: section 'agent.ucb1' already exists"),
        ("\n[run]\n", "n = 120\n[run]\n",
         "line 1: 'n = 120\\n' comes before any section header"),
        ("seed = 77\n", "seed = 77\nseed = 78\n",
         "line 8: option 'seed' in section 'run' already exists"),
        ("[env]\n", "[env]\n  K\n", "line 12: cannot parse '  K\\n'"),
        ("[env]\n", "[env]\nK\nL\n",
         "line 12: cannot parse 'K\\n' (first of 2 such lines)"),
        ("family = gaussian", "family = gaussian # \xe9t\xe9",
         "not UTF-8 text: cannot decode byte 0xe9"),
    ], ids=["repeated-section", "key-before-header", "repeated-key",
            "indented-line", "two-unparsable-lines", "not-utf-8"])
    def test_malformed_file_is_one_error_line(self, tmp_path, capsys, old, new,
                                              message):
        """A file configparser cannot read, or cannot decode as UTF-8, ends
        the run like a bad value: one line naming the file once, then the
        line number, where configparser gives one, and the fault, and exit
        status 2, with no traceback."""
        assert old in BASE_CONFIG
        path = tmp_path / "run.ini"
        # Latin-1 writes the ASCII cases as they are, and "\xe9" as the one
        # byte 0xE9, which is not UTF-8.
        path.write_text(BASE_CONFIG.replace(old, new, 1).format(
            out=tmp_path / "out"), encoding="latin-1")
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_sweep_command(self, tmp_path, capsys):
        path = write_config(tmp_path, sweep=["alpha = 0.5,0.7", "z = 0.6"])
        assert cli.main(["sweep", str(path)]) == 0
        assert (tmp_path / "out" / "sweep.csv").exists()
        assert capsys.readouterr().out.count("alpha=") == 2

    def test_check_command(self, tmp_path, capsys):
        rc = cli.main(["check", "--out", str(tmp_path), "--seed", "1",
                       "--horizon", "191", "--trials", "60",
                       "--mc-trials", "10000"])
        assert rc == 0
        report = (tmp_path / "check_report.csv").read_text().splitlines()
        assert report[0] == "check,params,trials,failures,bound,empirical,pass"
        assert len(report) == 6
        assert capsys.readouterr().out.count("PASS") == 5

    @pytest.mark.parametrize("flag, value, least", [
        ("--horizon", "0", 1),
        ("--horizon", "-3", 1),
        ("--trials", "0", 1),
        ("--mc-trials", "5", 10_000),
        ("--seed", "-1", 0),
    ])
    def test_check_rejects_bad_numeric_flags(self, tmp_path, capsys,
                                             monkeypatch, flag, value, least):
        """One ``error:`` line, theory's, and status 2 before any check runs."""
        def no_checks(**kwargs):
            raise AssertionError("a check ran before the flags were checked")

        monkeypatch.setattr(cli.theory, "default_checks", no_checks)
        rc = cli.main(["check", "--out", str(tmp_path), flag, value])
        assert rc == 2
        out = capsys.readouterr()
        field = flag[2:].replace("-", "_")
        assert out.err == f"error: {field} must be >= {least}, got {value}\n"
        assert out.out == ""
        assert not (tmp_path / "check_report.csv").exists()

    @pytest.mark.parametrize("horizon, trials, bound", [
        ("1", "3", "1"),
        ("1", "2000", "1"),
        ("2", "3", "1.36603"),
    ])
    def test_check_rejects_pairs_whose_checks_cannot_fail(
            self, tmp_path, capsys, monkeypatch, horizon, trials, bound):
        """A pool check bound of 1 or more passes any failure rate: the pair
        is rejected with one ``error:`` line and status 2 before any check."""
        def no_checks(**kwargs):
            raise AssertionError("a check ran before the flags were checked")

        monkeypatch.setattr(cli.theory, "default_checks", no_checks)
        rc = cli.main(["check", "--out", str(tmp_path), "--horizon", horizon,
                       "--trials", trials])
        assert rc == 2
        out = capsys.readouterr()
        assert out.err == (
            f"error: horizon {horizon} with trials {trials} gives a passing "
            f"bound of {bound}, so the check cannot fail\n")
        assert out.out == ""
        assert not (tmp_path / "check_report.csv").exists()

    @pytest.mark.parametrize("horizon, first", [("150", 182), ("190", 191)])
    def test_check_rejects_horizons_that_check_no_round(
            self, tmp_path, capsys, monkeypatch, horizon, first):
        """Up to n = 190 the warm-up at z = 0.6 outlasts the horizon and the
        variance-floor check would check nothing: one ``error:`` line and
        status 2 before any check."""
        def no_checks(**kwargs):
            raise AssertionError("a check ran before the flags were checked")

        monkeypatch.setattr(cli.theory, "default_checks", no_checks)
        rc = cli.main(["check", "--out", str(tmp_path), "--horizon", horizon])
        assert rc == 2
        out = capsys.readouterr()
        assert out.err == (
            f"error: horizon {horizon} ends before round {first}, the first "
            f"checked, so no round is checked\n")
        assert out.out == ""
        assert not (tmp_path / "check_report.csv").exists()

    @pytest.mark.parametrize("argv", [[], ["--horizon", "191"]])
    def test_check_runs_pairs_whose_checks_can_fail(self, tmp_path,
                                                    monkeypatch, argv):
        """The pre-check reads the flags: the defaults (n = 1000, 2000 trials)
        run, and so does n = 191, the shortest horizon at which the
        variance-floor check checks a round (bound 0.0101 at 2000 trials)."""
        calls = []
        monkeypatch.setattr(cli.theory, "default_checks",
                            lambda **kwargs: calls.append(kwargs) or [])
        assert cli.main(["check", "--out", str(tmp_path), *argv]) == 0
        assert calls == [{"seed": 0, "horizon": int(argv[-1]) if argv else 1000,
                          "pool_trials": 2000, "mc_trials": 100_000}]
