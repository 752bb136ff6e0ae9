"""What ``import banditpool`` loads, checked in fresh interpreters.

Only the linear agents' ridge solves need ``scipy.linalg`` and only runs with
``workers > 1`` need a process pool, so importing the package loads neither;
the LAPACK bindings arrive with the first solve.  The last tests check that
the benchmark's tracer still finds every banditpool name it patches, and
that it times the rankers as its exact counts expect.  Each
test starts a new interpreter because this test process has long since
imported both.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import banditpool
from test_agents import reference_ridge_solve

DEFERRED = ("scipy.linalg", "concurrent.futures.process")


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports this banditpool."""
    src = str(Path(banditpool.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_neither_scipy_linalg_nor_a_process_pool():
    out = run_fresh(f"""
        import json, sys
        import banditpool
        print(json.dumps([name for name in {DEFERRED!r} if name in sys.modules]))
    """)
    assert json.loads(out) == []


@pytest.mark.parametrize("first", ["ridge_solve", "linucb_scores"])
def test_first_solves_bit_identical_to_scipy_wrappers(tmp_path, first):
    """The solve that loads LAPACK returns the reference's bits, as do later ones."""
    order = sorted(["ridge_solve", "linucb_scores"], key=lambda name: name != first)
    out_file = tmp_path / "solves.npz"
    run_fresh(f"""
        import sys
        import numpy as np
        from banditpool.agents import LinearModelState, ridge_solve
        from banditpool.baselines import linucb_scores

        rng = np.random.default_rng(5)
        features = rng.normal(size=(50, 10))
        state = LinearModelState(10)
        state.regularize(1.0)
        for _ in range(40):
            state.add(features[rng.integers(50)], float(rng.normal()))
        rhs = rng.normal(size=10)
        solves = {{
            "ridge_solve": lambda: ridge_solve(state.gram, rhs),
            "linucb_scores": lambda: linucb_scores(state, features, 0.7),
        }}
        assert "scipy.linalg" not in sys.modules
        results = {{name: solves[name]() for name in {order!r}}}
        np.savez({str(out_file)!r}, features=features, gram=state.gram,
                 xy_sum=state.xy_sum, rhs=rhs, **results)
    """)
    saved = np.load(out_file)
    features, gram = saved["features"], saved["gram"]
    assert np.array_equal(saved["ridge_solve"],
                          reference_ridge_solve(gram, saved["rhs"]))
    theta = reference_ridge_solve(gram, saved["xy_sum"])
    solved = reference_ridge_solve(gram, features.T)
    norms = np.sqrt(np.maximum(np.einsum("dk,dk->k", features.T, solved), 0.0))
    assert np.array_equal(saved["linucb_scores"], features @ theta + 0.7 * norms)


def test_perfbench_tracer_installs_and_uninstalls():
    """The benchmark's tracer patches banditpool names such as
    ``baselines.ridge_solve`` by ``getattr``, so deleting one breaks every
    traced benchmark run; ``perfbench/`` is not among the test paths, hence
    this check.  Nothing under ``perfbench/`` is edited."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    out = run_fresh(f"""
        import sys
        sys.path.insert(0, {str(perfbench)!r})
        import numpy as np
        import tracing
        from banditpool import agents, baselines

        solve = agents.ridge_solve
        tracer = tracing.Tracer().install()
        assert baselines.ridge_solve is not solve
        agent = baselines.LinPHEAgent(np.eye(2), 10, rng=np.random.default_rng(0))
        for t in range(1, 11):
            agent.update(t, agent.select(t), 0.5)
        tracer.uninstall()
        assert agents.ridge_solve is solve and baselines.ridge_solve is solve
        print(tracer.calls("agents.ridge_solve"))
    """)
    assert int(out) == 9


def test_perfbench_tracer_times_rankers():
    """Traced ranking episodes give the counts ``perfbench/harness.py``
    expects: one ``ranking.select`` span per round, one pool build per round
    after the first (through ``agents.build_pool``, under the ranker's span),
    one KL-UCB index per item and round, and no ``agents.*`` span or warm-up,
    since a ranker holds its item agent rather than being one."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    out = run_fresh(f"""
        import json, sys
        sys.path.insert(0, {str(perfbench)!r})
        import numpy as np
        import tracing
        from banditpool import bench

        n = 25
        config = bench.RunConfig(
            experiment="ranking", env={{"L": 6, "K": 3}}, horizon=n,
            instances=1, runs=1, seed=3, out_dir="unused",
            agents=(bench.AgentSpec("pool", "pool", {{}}),
                    bench.AgentSpec("klucb", "klucb", {{}})))
        env = bench.make_env(config, 0)
        with tracing.Tracer() as tracer:
            kinds = []
            for spec in config.agents:
                agent = bench.make_agent(spec, config, env,
                                         np.random.default_rng(1))
                kinds.append(type(agent).__name__)
                bench._simulate(env, agent, n, np.random.default_rng(2))
        print(json.dumps({{
            "kinds": kinds,
            "select": tracer.calls("ranking.select"),
            "update": tracer.calls("ranking.update"),
            "builds": tracer.calls("pool.build", parent="ranking.select"),
            "all_builds": tracer.calls("pool.build"),
            "draws": tracer.calls("pool.draw"),
            "indices": tracer.calls("ranking.klucb_index", parent="ranking.select"),
            "agents_spans": (tracer.calls("agents.select")
                             + tracer.calls("agents.update")),
            "warmup": tracer.counts["agents.warmup_rounds"],
        }}))
    """)
    n, items = 25, 6
    assert json.loads(out) == {
        "kinds": ["RewardPoolRanker", "KLUCBRanker"],
        "select": 2 * n, "update": 2 * n,
        "builds": n - 1, "all_builds": n - 1, "draws": n - 1,
        "indices": n * items, "agents_spans": 0, "warmup": 0,
    }
