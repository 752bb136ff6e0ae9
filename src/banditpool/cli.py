"""Command line entry point: run experiments, sweep parameters, verify pools."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import bench, theory


# Each override flag, the RunConfig field it sets and the flag's type.
_OVERRIDES = (("seed", "seed", int), ("out", "out_dir", str),
              ("workers", "workers", int), ("stride", "stride", int))


def _add_overrides(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("config", help="INI run configuration")
    for flag, field, kind in _OVERRIDES:
        parser.add_argument(f"--{flag}", type=kind, help=f"override run.{field}")


def _load_config(args) -> bench.RunConfig:
    overrides = {field: getattr(args, flag) for flag, field, _ in _OVERRIDES
                 if getattr(args, flag) is not None}
    return dataclasses.replace(bench.parse_config(args.config), **overrides)


def _cmd_run(args) -> int:
    config = _load_config(args)
    outcome = bench.run_experiment(config)
    for agent, agg in outcome["aggregates"].items():
        print(f"{agent}: final mean regret {agg['mean'][-1]:.3f} "
              f"(+/- {agg['std'][-1]:.3f} over {agg['n_runs']} runs)")
    print(f"wrote {outcome['trace']} and {outcome['aggregate']}")
    return 0


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    rows = bench.parameter_sweep(config)
    for row in rows:
        axes = " ".join(f"{axis}={row[axis]:g}" for axis in ("alpha", "z")
                        if axis in row)
        print(f"{axes}: final mean regret {row['mean_final_regret']:.3f}")
    print(f"wrote {Path(config.out_dir) / 'sweep.csv'}")
    return 0


def _cmd_check(args) -> int:
    battery = dict(seed=args.seed, horizon=args.horizon,
                   pool_trials=args.trials, mc_trials=args.mc_trials)
    try:
        theory.validate_battery(**battery)
    except ValueError as exc:
        raise bench.ConfigError(str(exc)) from exc
    reports = theory.default_checks(**battery)
    path = Path(args.out) / "check_report.csv"
    theory.write_check_report(reports, path)
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(f"{status} {rep.check} [{rep.params}] "
              f"empirical={rep.empirical:.6g} bound={rep.bound:.6g}")
    print(f"wrote {path}")
    return 0 if all(rep.passed for rep in reports) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="banditpool",
        description="Stochastic bandit benchmark harness with reward-pool exploration")
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="execute a configured experiment")
    _add_overrides(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    sweep_parser = commands.add_parser(
        "sweep", help="grid over alpha (and z) for the pool agent")
    _add_overrides(sweep_parser)
    sweep_parser.set_defaults(func=_cmd_sweep)

    check_parser = commands.add_parser(
        "check", help="Monte Carlo verification of the reward-pool guarantees")
    check_parser.add_argument("--out", default=".", help="report directory")
    check_parser.add_argument("--seed", type=int, default=0)
    check_parser.add_argument("--horizon", type=int, default=1000,
                              help="simulated stream length")
    check_parser.add_argument("--trials", type=int, default=2000,
                              help="trials for the pool stream checks")
    check_parser.add_argument("--mc-trials", type=int, default=100_000,
                              dest="mc_trials",
                              help="trials for the distributional checks")
    check_parser.set_defaults(func=_cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except bench.ConfigError as exc:
        # A bad config is bad usage: one line and argparse's exit status.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
