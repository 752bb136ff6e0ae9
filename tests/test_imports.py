"""What ``import banditpool`` loads, checked in fresh interpreters.

Only the linear agents' ridge solves need ``scipy.linalg`` and only runs with
``workers > 1`` need a process pool, so importing the package loads neither;
the LAPACK bindings arrive with the first solve.  Each test starts a new
interpreter because this test process has long since imported both.
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
        state = LinearModelState(10, ridge_lambda=1.0, capacity=40)
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
