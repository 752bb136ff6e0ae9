"""Paired benchmark runs of two checkouts, summarised into one JSON file.

Usage, from anywhere::

    python3 tools/benchpair.py PARENT CHANGE --workload ranking \\
        --seed0 2901 --out BENCH_<pr>.json

``--workload`` may be repeated; by default every workload runs.  Each
workload runs 10 pairs.  Pair ``i`` runs ``perfbench/run.py --workload W
--seed SEED0+i --seconds S --trace 0`` once in each checkout, in a fresh
interpreter, with the parent first in even pairs and the change first in odd
ones.  ``S`` is the ``run_seconds`` of both checkouts' ``BENCHMARK.json``,
which must agree, as must their ``end_to_end`` metrics.  Each side's own, unchanged ``perfbench/run.py`` runs, and
its report is read from that checkout's
``.perfbench_out/<W>/report-seed<N>-trace0.json``.

The output holds, per workload, the seeds, each side's ``context`` (without
the seed), the load average at the start and end of the workload's runs, the
runs that reported failures, and per end-to-end metric each side's median
and quartiles, the pairs the change won, and each compared run's value, in
seed order.  A pair in which either side reported a failure is left out of
the metrics, so ``pairs`` counts the compared pairs only.  Every end-to-end
metric of ``BENCHMARK.json`` is better lower, so the change wins a pair when
its value is the lower one; ties count for neither side.  Each metric also
gets a verdict: ``gain`` when the change won at least 9 pairs in 10 and its
median lies below the parent's by more than the parent's interquartile
range, ``worse`` when its median exceeds the parent's by more than the
metric's ``bound`` (a fraction of the parent's median), and ``within bound``
otherwise.  The file is rewritten after each workload, and the table that
``CHANGES.md`` entries quote is printed at the end.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("mab", "linear", "ranking", "theory")
SIDES = ("parent", "change")
PAIRS = 10
GAIN_SHARE = 0.9  # of the compared pairs, that the change must win
RUN_TIMEOUT_S = 900


def run_perfbench(checkout: Path, workload: str, seed: int,
                  seconds: float) -> dict:
    """One untraced perfbench run in ``checkout``; its JSON report."""
    subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, check=True, capture_output=True, text=True,
        timeout=RUN_TIMEOUT_S)
    report = (checkout / ".perfbench_out" / workload
              / f"report-seed{seed}-trace0.json")
    return json.loads(report.read_text())


def read_loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def first_side(pair: int) -> str:
    return SIDES[pair % 2]


def benchmark(checkouts: dict) -> tuple[float, dict]:
    """The ``run_seconds`` and each end-to-end metric's bound, which both
    checkouts' ``BENCHMARK.json`` must give alike."""
    declared = {side: json.loads((checkouts[side] / "BENCHMARK.json")
                                 .read_text()) for side in SIDES}
    for key in ("run_seconds", "end_to_end"):
        values = {side: declared[side][key] for side in SIDES}
        if values["parent"] != values["change"]:
            raise SystemExit(f"the checkouts' {key} differ: {values}")
    change = declared["change"]
    return (float(change["run_seconds"]),
            {metric["name"]: metric["bound"] for metric in change["end_to_end"]})


def collect(checkouts: dict, workload: str, seconds: float, seed0: int,
            runner=run_perfbench) -> list[tuple[str, int, dict]]:
    """``(side, seed, report)`` of every run, in the order they ran."""
    records = []
    for pair in range(PAIRS):
        seed = seed0 + pair
        order = SIDES if first_side(pair) == "parent" else SIDES[::-1]
        for side in order:
            records.append((side, seed, runner(checkouts[side], workload,
                                               seed, seconds)))
    return records


def quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(entry: dict, bound: float) -> str:
    """``gain``, ``worse`` or ``within bound``, for one metric's summary."""
    parent, change = entry["parent"], entry["change"]
    if (entry["won"] >= GAIN_SHARE * entry["pairs"]
            and parent["median"] - change["median"] > parent["q3"] - parent["q1"]):
        return "gain"
    if change["median"] > parent["median"] * (1.0 + bound):
        return "worse"
    return "within bound"


def summarize(records, seed0: int, loadavg: tuple[str, str],
              bounds: dict) -> dict:
    """The summary of one workload's runs; the order of ``records`` does
    not enter."""
    reports = {(side, seed): report for side, seed, report in records}
    seeds = sorted({seed for _, seed in reports})
    first = {side: reports[side, seeds[0]] for side in SIDES}
    failed = {side: [seed for seed in seeds if reports[side, seed]["failures"]]
              for side in SIDES}
    compared = [seed for seed in seeds
                if not any(seed in failed[side] for side in SIDES)]
    metrics = {}
    for name in first["change"]["metrics"] if compared else ():
        values = {side: [reports[side, seed]["metrics"][name][0]
                         for seed in compared] for side in SIDES}
        won = sum(c < p for p, c in zip(values["parent"], values["change"]))
        entry = {"unit": first["change"]["metrics"][name][1], "won": won,
                 "pairs": len(compared)}
        for side in SIDES:
            q1, median, q3 = quartiles(values[side])
            entry[side] = {"median": median, "q1": q1, "q3": q3,
                           "runs": values[side]}
        entry["verdict"] = verdict(entry, bounds[name])
        metrics[name] = entry
    return {
        "seeds": seeds,
        "first": {str(seed): first_side(seed - seed0) for seed in seeds},
        "context": {side: {k: v for k, v in first[side]["context"].items()
                           if k != "seed"} for side in SIDES},
        "loadavg_start": loadavg[0],
        "loadavg_end": loadavg[1],
        "failed_runs": failed,
        "metrics": metrics,
    }


def cell(entry: dict) -> str:
    p, c = entry["parent"], entry["change"]
    change = (c["median"] / p["median"] - 1.0) * 100 if p["median"] else 0.0
    return (f"{p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}] → "
            f"{c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] "
            f"({change:+.1f}%), {entry['won']}/{entry['pairs']}, "
            f"{entry['verdict']}")


def table(summaries: dict) -> str:
    """Markdown table: one row per workload, one column per metric."""
    units = {name: entry["unit"] for s in summaries.values()
             for name, entry in s["metrics"].items()}
    lines = ["| workload (seeds) | " + " | ".join(
                 f"`{name}` ({unit})" for name, unit in units.items()) + " |",
             "|---" * (len(units) + 1) + "|"]
    for workload, s in summaries.items():
        seeds = f"{s['seeds'][0]}–{s['seeds'][-1]}"
        cells = [cell(s["metrics"][name]) if name in s["metrics"] else ""
                 for name in units]
        lines.append(f"| {workload} ({seeds}) | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run; repeat for several "
                             "(default: all of them)")
    parser.add_argument("--seed0", type=int, required=True,
                        help="seed of the first pair; pair i uses seed0 + i")
    parser.add_argument("--out", type=Path, required=True,
                        help="JSON file to write, such as BENCH_<pr>.json")
    return parser.parse_args(argv)


def main(argv=None, runner=run_perfbench, loadavg=read_loadavg) -> int:
    args = parse_args(argv)
    checkouts = {"parent": args.parent, "change": args.change}
    seconds, bounds = benchmark(checkouts)
    result = {"pairs": PAIRS, "seconds": seconds, "seed0": args.seed0,
              "workloads": {}}
    for workload in args.workload or WORKLOADS:
        start = loadavg()
        records = collect(checkouts, workload, seconds, args.seed0, runner)
        result["workloads"][workload] = summarize(
            records, args.seed0, (start, loadavg()), bounds)
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(table(result["workloads"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
