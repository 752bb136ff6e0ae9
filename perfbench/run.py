"""Benchmark of banditpool: seeded workloads timed through the public API.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mab --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py            # every workload in turn

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Metric definitions are in ``perfbench/README.md``.
"""

import time

_START = time.perf_counter()  # set-up is timed from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("mab", "linear", "ranking", "theory")
SETUP_PROBES = 5     # set-up runs per measurement; setup_s is their median
PROBE_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 600


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="workload to run (default: all of them in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="how long to keep repeating passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_banditpool():
    """Import the checkout's own banditpool sources, never an installed copy."""
    if not (SRC / "banditpool" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no banditpool sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import banditpool

    if SRC.resolve() not in Path(banditpool.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported banditpool from "
                         f"{banditpool.__file__}, not from {SRC}")


def last_json_line(text: str) -> dict:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError("child printed nothing")
    return json.loads(lines[-1])


def probe_setup(workload: str, seed: int) -> float:
    """Time import + instance generation + agent construction in a fresh
    interpreter, so the import is paid every time as a user pays it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(last_json_line(proc.stdout)["setup_s"])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_passes(seconds: float, step):
    """Call ``step()`` until ``seconds`` have passed, at least once."""
    begin = time.perf_counter()
    results = [step()]
    while time.perf_counter() - begin < seconds:
        results.append(step())
    return results


def write_spans(path: Path, tracer) -> None:
    with path.open("w") as handle:
        handle.write("parent,name,calls,total_s,self_s\n")
        for row in tracer.rows():
            handle.write(",".join(str(x) for x in row) + "\n")


def measure(args) -> int:
    import harness
    import tracing

    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {"workload": args.workload, "context": harness.context(args.seed),
              "seconds": args.seconds, "trace": args.trace,
              "loadavg_start": harness.loadavg()}

    setups = []
    if not args.trace:
        setups = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    prep = harness.setup(args.workload, args.seed, out_dir)

    def pair():
        plain = harness.run_pass(prep)
        with tracing.Tracer() as tracer:
            traced = harness.run_pass(prep)
        return plain, traced, tracer

    if args.trace:
        plain, traced, tracers = map(list, zip(*timed_passes(args.seconds, pair)))
    else:
        plain = timed_passes(args.seconds, lambda: harness.run_pass(prep))
        traced, tracers = [], []

    attempted, failures = harness.check_passes(plain, traced)
    us_per_round, samples = harness.per_round(prep, plain)
    wall = harness.median([p.wall_s for p in plain])
    regret = plain[0].pool_regret
    report.update({
        "setup_probes_s": setups,
        "pass_wall_s": [p.wall_s for p in plain],
        "traced_pass_wall_s": [p.wall_s for p in traced],
        "wall_s": wall,
        "us_per_round": us_per_round,
        "episodes": samples,
        "pool_regret": None if math.isnan(regret) else regret,
    })

    if args.trace:
        metrics, attempted = harness.traced_metrics(prep, tracers, attempted, failures)
        metrics["trace.overhead_frac"] = (
            harness.median(report["traced_pass_wall_s"]) / wall - 1.0, "ratio")
        for kind in tracing.BASELINE_CLASSES:
            metrics[f"baselines.{kind}.us_per_round"] = (us_per_round.get(kind, 0.0), "us")
        metrics["ranking.klucb.us_per_round"] = (us_per_round.get("klucb", 0.0), "us")
        metrics["pool_regret"] = (report["pool_regret"] or 0.0, "regret")
        write_spans(out_dir / f"spans-seed{args.seed}.csv", tracers[0])
    else:
        metrics = {
            "setup_s": (harness.median(setups), "s"),
            "wall_s": (wall, "s"),
            "us_per_round.pool": (us_per_round["pool"], "us"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }

    report.update({
        "failures": failures,
        "failed_frac": len(failures) / attempted,
        "loadavg_end": harness.loadavg(),
        "peak_rss_mb": peak_rss_mb(),
        "metrics": metrics,
    })
    (out_dir / f"report-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")

    for problem in failures:
        print(f"FAILED {problem}")
    print("context " + json.dumps(report["context"]))
    print(f"loadavg start {report['loadavg_start']} | end {report['loadavg_end']}")
    print(f"passes {len(plain)} untraced, {len(traced)} traced")
    for kind, value in sorted(us_per_round.items()):
        print(f"us_per_round.{kind} {value:.4g} us (median of {samples[kind]})")
    if report["pool_regret"] is not None:
        print(f"pool_regret {report['pool_regret']:.6g} regret")
    print(f"failed_frac {report['failed_frac']:.6g} ratio "
          f"({len(failures)} of {attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Run every workload in its own interpreter and sum the verdicts."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        result = last_json_line(proc.stdout)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    if status == 0:
        print(json.dumps(total))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    import_banditpool()
    if args.probe_setup:
        import harness

        harness.setup(args.workload, args.seed, OUT / args.workload / "probe")
        print(json.dumps({"setup_s": time.perf_counter() - _START}))
        return 0
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
