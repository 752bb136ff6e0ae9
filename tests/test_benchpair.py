"""The pair driver ``tools/benchpair.py``, run on a fake perfbench."""

import importlib.util
import json
import random
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "benchpair.py"
_SPEC = importlib.util.spec_from_file_location("benchpair", _PATH)
benchpair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(benchpair)

SIDES = benchpair.SIDES
SEED0 = 10
SEEDS = range(SEED0, SEED0 + benchpair.PAIRS)
# seed -> (parent wall_s, change wall_s); the change wins wall_s at seeds 10
# to 14, loses at 15 to 17 and ties at 18, where no side wins.
WALL = dict(zip(SEEDS, [(9.0, 8.0), (8.0, 7.0), (7.0, 6.0), (6.0, 5.0),
                        (5.0, 4.0), (4.0, 5.0), (3.0, 4.0), (2.0, 3.0),
                        (1.0, 1.0), (10.0, 0.5)]))
# The change wins peak_rss_mb only at seed 10.  At seed 19 it reports a
# failure, so that pair enters no metric, though it would win both.
CHANGE_RSS = {10: 39.0, 11: 41.0, 19: 30.0}
FAILED_SEED = 19


def fake_report(side, seed):
    wall = WALL[seed][SIDES.index(side)]
    rss = CHANGE_RSS.get(seed, 40.0) if side == "change" else 40.0
    return {"context": {"nproc": 2, "python": "3.11.7", "seed": seed},
            "failures": ["pass 1 differs"]
            if (side, seed) == ("change", FAILED_SEED) else [],
            "metrics": {"wall_s": [wall, "s"], "peak_rss_mb": [rss, "MB"]}}


class FakeRunner:
    def __init__(self):
        self.calls = []

    def __call__(self, checkout, workload, seed, seconds):
        side = checkout.name
        self.calls.append((side, workload, seed, seconds))
        return fake_report(side, seed)


def fake_loadavg():
    fake_loadavg.calls += 1
    return f"load {fake_loadavg.calls}"


def checkouts(tmp_path, parent_seconds=2, change_seconds=2):
    """Two fake checkouts holding only a ``BENCHMARK.json``."""
    for side, seconds in zip(SIDES, (parent_seconds, change_seconds)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(
            json.dumps({"run_seconds": seconds}))
    return [str(tmp_path / side) for side in SIDES]


def run_main(tmp_path, *extra):
    fake_loadavg.calls = 0
    runner = FakeRunner()
    out = tmp_path / "BENCH_test.json"
    argv = [*checkouts(tmp_path), "--seed0", str(SEED0), "--out", str(out),
            *extra]
    assert benchpair.main(argv, runner, fake_loadavg) == 0
    return runner, json.loads(out.read_text())


COMPARED = [seed for seed in SEEDS if seed != FAILED_SEED]
EXPECTED = {
    "seeds": list(SEEDS),
    "first": {str(seed): ("parent", "change")[(seed - SEED0) % 2]
              for seed in SEEDS},
    "context": {"parent": {"nproc": 2, "python": "3.11.7"},
                "change": {"nproc": 2, "python": "3.11.7"}},
    "loadavg_start": "load 1",
    "loadavg_end": "load 2",
    "failed_runs": {"parent": [], "change": [FAILED_SEED]},
    "metrics": {
        "wall_s": {
            "unit": "s", "won": 5, "pairs": 9,
            "parent": {"median": 5.0, "q1": 3.0, "q3": 7.0,
                       "runs": [WALL[seed][0] for seed in COMPARED]},
            "change": {"median": 5.0, "q1": 4.0, "q3": 6.0,
                       "runs": [WALL[seed][1] for seed in COMPARED]}},
        "peak_rss_mb": {
            "unit": "MB", "won": 1, "pairs": 9,
            "parent": {"median": 40.0, "q1": 40.0, "q3": 40.0,
                       "runs": [40.0] * 9},
            "change": {"median": 40.0, "q1": 40.0, "q3": 40.0,
                       "runs": [39.0, 41.0] + [40.0] * 7}},
    },
}


def test_fixed_reports_give_the_known_json(tmp_path, capsys):
    runner, result = run_main(tmp_path, "--workload", "mab")
    assert result == {"pairs": 10, "seconds": 2.0, "seed0": SEED0,
                      "workloads": {"mab": EXPECTED}}
    table = capsys.readouterr().out.splitlines()
    assert table[0] == "| workload (seeds) | `wall_s` (s) | `peak_rss_mb` (MB) |"
    assert table[2] == ("| mab (10–19) | 5 [3, 7] → 5 [4, 6] (+0.0%), 5/9 "
                        "| 40 [40, 40] → 40 [40, 40] (+0.0%), 1/9 |")


def test_sides_alternate_which_runs_first(tmp_path):
    runner, _ = run_main(tmp_path, "--workload", "ranking", "--workload", "mab")
    order = [(side, workload, seed) for side, workload, seed, _ in runner.calls]
    assert order == [
        (side, workload, seed) for workload in ("ranking", "mab")
        for seed, sides in zip(SEEDS, [("parent", "change"),
                                       ("change", "parent")] * 5)
        for side in sides]
    assert {seconds for *_, seconds in runner.calls} == {2.0}


def test_the_same_reports_in_another_order_give_the_same_json():
    records = [(side, seed, fake_report(side, seed))
               for seed in SEEDS for side in SIDES]
    shuffled = records[:]
    random.Random(3).shuffle(shuffled)
    assert shuffled != records
    loadavg = ("load 1", "load 2")
    expected = json.dumps(benchpair.summarize(records, SEED0, loadavg))
    assert json.dumps(benchpair.summarize(shuffled, SEED0, loadavg)) == expected
    assert json.loads(expected) == EXPECTED


def test_checkouts_with_different_run_seconds_are_refused(tmp_path):
    argv = [*checkouts(tmp_path, 15, 10), "--seed0", "1", "--out",
            str(tmp_path / "x.json")]
    runner = FakeRunner()
    with pytest.raises(SystemExit, match="run_seconds differ"):
        benchpair.main(argv, runner, fake_loadavg)
    assert runner.calls == []


def test_no_compared_pair_gives_no_metric():
    records = [(side, seed, dict(fake_report(side, seed), failures=["x"]))
               for seed in SEEDS for side in SIDES]
    summary = benchpair.summarize(records, SEED0, ("load 1", "load 2"))
    assert summary["metrics"] == {}
    assert summary["failed_runs"] == {side: list(SEEDS) for side in SIDES}
