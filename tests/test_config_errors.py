"""Each rule on a run config raises the same whole message from an INI file
and from a ``RunConfig`` built in Python.

A rule on the values lives on ``RunConfig``, so both paths meet it; a rule
that needs the INI text (a section, a spelling, a grid's syntax) has no
Python form.  A config with a sweep is also handed to ``parameter_sweep``,
which checks what depends on the swept agent's kind before any cell runs.
"""

import re

import numpy as np
import pytest

from banditpool import bench
from banditpool.bench import (
    AgentSpec,
    ConfigError,
    RunConfig,
    parameter_sweep,
    parse_config,
)

INI = """
[run]
experiment = mab
n = 120
instances = 2
runs = 2
seed = 77
out_dir = {out}

[env]
family = gaussian
K = 4

[agent.pool]
kind = pool

[agent.ucb1]
kind = ucb1
"""

POOL, UCB1 = AgentSpec("pool", "pool", {}), AgentSpec("ucb1", "ucb1", {})
FIELDS = dict(experiment="mab", env={"family": "gaussian", "K": 4},
              agents=(POOL, UCB1), horizon=120, instances=2, runs=2, seed=77)


def with_sweep(*lines):
    """An INI edit that adds a [sweep] section holding ``lines``."""
    return ("[agent.pool]", "\n".join(["[sweep]", *lines, "", "[agent.pool]"]))


def ini_file(tmp_path, edits):
    text = INI.format(out=tmp_path / "out")
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "run.ini"
    path.write_text(text)
    return path


def python_config(tmp_path, fields):
    return RunConfig(**{**FIELDS, "out_dir": str(tmp_path / "out"), **fields})


def accept(build, monkeypatch):
    """Build a config, then check its sweep, if it has one, as a sweep run
    would; no cell may run."""
    def no_cell(config):
        raise AssertionError("a sweep cell ran before the grid was checked")

    config = build()
    if config.sweep is not None:
        monkeypatch.setattr(bench, "collect_runs", no_cell)
        parameter_sweep(config)


# (message, INI edits as (old, new) replacements or None where the INI
# cannot say it, RunConfig fields or None where the rule needs INI text)
CASES = {
    # Rules on the values: RunConfig's, met by both paths.
    "experiment": ("run.experiment: must be one of ('mab', 'linear', 'ranking')",
                   [("= mab", "= bandit")], {"experiment": "bandit"}),
    "n": ("run.n: must be >= 1", [("n = 120", "n = 0")], {"horizon": 0}),
    "instances": ("run.instances: must be >= 1",
                  [("instances = 2", "instances = 0")], {"instances": 0}),
    "runs": ("run.runs: must be >= 1", [("runs = 2", "runs = 0")], {"runs": 0}),
    "workers": ("run.workers: must be >= 1",
                [("seed = 77", "seed = 77\nworkers = 0")], {"workers": 0}),
    "seed": ("run.seed: must be >= 0", [("seed = 77", "seed = -1")], {"seed": -1}),
    "stride": ("run.stride: must be in [1, n]",
               [("seed = 77", "seed = 77\nstride = 121")], {"stride": 121}),
    "no-agent": ("agent.*: at least one agent section is required",
                 [("[agent.pool]\nkind = pool\n", ""),
                  ("[agent.ucb1]\nkind = ucb1\n", "")], {"agents": ()}),
    # An INI file cannot repeat a section, so only Python can repeat a name.
    "duplicate-names": ("agent.*: agent names must be unique", None,
                        {"agents": (POOL, UCB1, POOL)}),
    "empty-name": ("agent.: agent name must be non-empty",
                   [("[agent.ucb1]", "[agent.]")],
                   {"agents": (POOL, AgentSpec("", "ucb1", {}))}),
    "unknown-kind": ("agent.ucb1.kind: 'oracle' is not valid for experiment "
                     "'mab'; expected one of pool, ucb1, ucbv, bern_ts, "
                     "gauss_ts, bern_phe, gauss_phe",
                     [("kind = ucb1", "kind = oracle")],
                     {"agents": (POOL, AgentSpec("ucb1", "oracle", {}))}),
    "agent-key": ("agent.ucb1.c: unknown field for kind 'ucb1' in experiment "
                  "'mab'; expected one of (none)",
                  [("kind = ucb1", "kind = ucb1\nc = 1.0")],
                  {"agents": (POOL, AgentSpec("ucb1", "ucb1", {"c": 1.0}))}),
    "env-key": ("env.d: unknown field for experiment 'mab'; expected one of "
                "family, K, v, sigma", [("K = 4", "K = 4\nd = 2")],
                {"env": {"family": "gaussian", "K": 4, "d": 2}}),
    "sweep-key": ("sweep.bogus: unknown field; expected one of alpha, z, agent",
                  [with_sweep("alpha = 0.5", "z = 0.5", "bogus = 1")],
                  {"sweep": {"alpha": [0.5], "z": [0.5], "bogus": 1}}),
    "empty-alpha": ("sweep.alpha: grid must be nonempty",
                    [with_sweep("alpha = ,", "z = 0.5")],
                    {"sweep": {"alpha": [], "z": [0.5]}}),
    "empty-z": ("sweep.z: grid must be nonempty",
                [with_sweep("alpha = 0.5", "z =")],
                {"sweep": {"alpha": [0.5], "z": []}}),
    # Rules on the swept agent's kind: parameter_sweep's, met by both paths.
    "sweep-ambiguous": ("sweep.agent: required when the pool agent is ambiguous",
                        [with_sweep("alpha = 0.5", "z = 0.5"),
                         ("[agent.ucb1]", "[agent.pool2]\nkind = pool\n[agent.ucb1]")],
                        {"agents": (POOL, AgentSpec("pool2", "pool", {})),
                         "sweep": {"alpha": [0.5], "z": [0.5]}}),
    "sweep-no-agent": ("sweep.agent: no agent section named 'ghost'",
                       [with_sweep("alpha = 0.5", "agent = ghost")],
                       {"sweep": {"alpha": [0.5], "agent": "ghost"}}),
    "sweep-no-alpha": ("sweep.alpha: missing required field",
                       [with_sweep("z = 0.5")],
                       {"sweep": {"z": [0.5]}}),
    "sweep-alpha-value": ("sweep.alpha: alpha must be positive and finite, "
                          "got -1.0",
                          [with_sweep("alpha = 0.5, -1", "z = 0.5")],
                          {"sweep": {"alpha": [0.5, -1.0], "z": [0.5]}}),
    # Rules that need the INI text: parse_config's alone.
    "no-run": ("run: missing section",
               [("[run]", "[agent.x]")], None),
    "no-env": ("env: missing section", [("[env]", "[agent.x]")], None),
    "run-key": ("run.sede: unknown field; expected one of experiment, n, "
                "instances, runs, seed, out_dir, stride, workers",
                [("seed =", "sede =")], None),
    "run-missing": ("run.n: missing required field", [("n = 120", "")], None),
    "run-type": ("run.n: cannot parse 'soon' as int", [("= 120", "= soon")], None),
    "no-kind": ("agent.ucb1.kind: missing required field",
                [("kind = ucb1", "")], None),
    "grid-syntax": ("sweep.alpha: cannot parse grid '0.5, half'",
                    [with_sweep("alpha = 0.5, half")], None),
}


@pytest.mark.parametrize("message, edits, fields", CASES.values(), ids=CASES)
def test_each_rule_raises_one_message_from_both_paths(
        tmp_path, monkeypatch, message, edits, fields):
    if edits is not None:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            accept(lambda: parse_config(ini_file(tmp_path, edits)), monkeypatch)
    if fields is not None:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            accept(lambda: python_config(tmp_path, fields), monkeypatch)
    assert not (tmp_path / "out").exists()


def test_the_two_base_configs_are_one_config(tmp_path):
    """Every case above edits one valid config, written both ways."""
    assert parse_config(ini_file(tmp_path, [])) == python_config(tmp_path, {})


def linear_pool(ridge):
    """INI edits that leave one linear pool agent, whose lambda reads
    ``ridge``, and the same config's RunConfig fields."""
    return ([("= mab", "= linear"), ("K = 4", "K = 4\nd = 2"),
             ("kind = pool", f"kind = pool\nlambda = {ridge}"),
             ("[agent.ucb1]\nkind = ucb1\n", "")],
            {"experiment": "linear", "env": {"family": "gaussian", "K": 4, "d": 2},
             "agents": (AgentSpec("pool", "pool", {"lambda": ridge}),)})


def test_auto_lambda_is_one_config_and_read_from_the_warm_up(tmp_path):
    """``lambda = auto`` and ``{"lambda": "auto"}`` give one config, whose
    agent regularizes with a third of the warm-up Gram matrix's smallest
    eigenvalue at its first fit."""
    edits, fields = linear_pool("auto")
    # A horizon that outlasts the warm-up.
    config = parse_config(ini_file(tmp_path, [*edits, ("n = 120", "n = 1000")]))
    assert config == python_config(tmp_path, {**fields, "horizon": 1000})
    env = bench.make_env(config, 0)
    agent = bench.make_agent(config.agents[0], config, env,
                             np.random.default_rng(0))
    env_rng = np.random.default_rng(1)
    for t in range(1, agent.init_rounds + 1):
        arm = agent.select(t)
        agent.update(t, arm, env.play(arm, env_rng)[0])
    warm_up = agent.state.gram.copy()
    agent.select(agent.init_rounds + 1)
    assert agent.state.ridge_lambda == np.linalg.eigvalsh(warm_up)[0] / 3.0


def test_unparsable_lambda_names_the_field(tmp_path):
    with pytest.raises(ConfigError, match=(
            "^agent.pool.lambda: cannot parse 'automatic' as float_or_auto$")):
        parse_config(ini_file(tmp_path, linear_pool("automatic")[0]))


def test_negative_lambda_raises_one_message_from_both_paths(tmp_path):
    """The agent's own rule, met when the run builds it, before any task."""
    message = "agent.pool: ridge_lambda must be >= 0 and finite, got -1.0"
    for config in (parse_config(ini_file(tmp_path, linear_pool(-1)[0])),
                   python_config(tmp_path, linear_pool(-1.0)[1])):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            bench.run_experiment(config)
    assert not (tmp_path / "out").exists()
