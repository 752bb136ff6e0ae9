"""Each rule on a run config raises the same whole message from an INI file
and from a ``RunConfig`` built in Python.

A rule on the values lives on ``RunConfig``, so both paths meet it; a rule
that needs the INI text (a section, a spelling, a grid's syntax) has no
Python form.  A config with a sweep is also handed to ``parameter_sweep``,
which checks what depends on the swept agent's kind before any cell runs.
"""

import re

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


def auto_ridge(spelling):
    """INI edits for a linear pool agent whose auto_ridge reads ``spelling``."""
    return [("= mab", "= linear"), ("K = 4", "K = 4\nd = 2"),
            ("kind = pool", f"kind = pool\nauto_ridge = {spelling}"),
            ("[agent.ucb1]\nkind = ucb1\n", "")]


@pytest.mark.parametrize("spelling, value", [
    ("true", True), ("Yes", True), ("1", True),
    ("false", False), ("No", False), ("0", False),
])
def test_bool_spellings(tmp_path, spelling, value):
    config = parse_config(ini_file(tmp_path, auto_ridge(spelling)))
    assert config.agents[0].params["auto_ridge"] is value


def test_unparsable_bool_names_the_field(tmp_path):
    with pytest.raises(ConfigError, match=(
            "^agent.pool.auto_ridge: cannot parse 'maybe' as bool$")):
        parse_config(ini_file(tmp_path, auto_ridge("maybe")))
