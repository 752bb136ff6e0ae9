"""In-memory span tracing of banditpool's layers, installed from outside.

``Tracer.install()`` replaces public functions and methods of each banditpool
module with wrappers that record a span per call: its name, its parent span
and its duration.  Spans are folded into per-(parent, name) totals as they
close, so memory stays flat however many rounds run; ``uninstall()`` puts
every original object back.

Hot scalar functions (``ranking.kl_bernoulli``, millions of calls per
episode) are counted, never timed: a timing wrapper there made KL-UCB
episodes 2.5x slower, which would hide every other layer.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter

import banditpool.agents as agents
import banditpool.baselines as baselines
import banditpool.bench as bench
import banditpool.envs as envs
import banditpool.pool as pool
import banditpool.ranking as ranking
import banditpool.theory as theory

# Baseline kinds whose select/update are timed, with their classes.
BASELINE_CLASSES = {
    "ucb1": baselines.UCB1Agent,
    "ucbv": baselines.UCBVAgent,
    "lints": baselines.LinTSAgent,
    "linucb": baselines.LinUCBAgent,
}

POOL_AGENT_CLASSES = (agents.RewardPoolAgent, agents.LinRewardPoolAgent)
RANKER_CLASSES = (ranking.KLUCBRanker, ranking.RewardPoolRanker)


class Tracer:
    """Span recorder; ``stats[(parent, name)] = [calls, total_s, self_s]``."""

    def __init__(self) -> None:
        self.stats: dict[tuple[str | None, str], list] = {}
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, measure=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``measure(args, result)`` may return an amount added to the counter
        ``name + ".values"`` (pool sizes, bytes written).
        """
        stack, stats, counts = self._stack, self.stats, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                rec = stats.get((parent, name))
                if rec is None:
                    rec = stats[(parent, name)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
            if measure is not None:
                counts[name + ".values"] += measure(args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        """Wrap ``fn`` so each call only bumps ``counts[name]``."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr),
                              attr in vars(owner)))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr: str, name: str, measure=None) -> None:
        self._patch(owner, attr, self.span(name, getattr(owner, attr), measure))

    def install(self) -> "Tracer":
        # pool: every module that imported build_pool holds its own reference.
        build = self.span("pool.build", pool.build_pool,
                          lambda args, res: len(res))
        for module in (pool, agents, ranking, theory):
            self._patch(module, "build_pool", build)
        self._wrap(pool.RewardPool, "draw", "pool.draw",
                   lambda args, res: len(res))

        # agents
        for cls in POOL_AGENT_CLASSES:
            self._wrap(cls, "select", "agents.select")
            self._wrap(cls, "update", "agents.update")
        solve = self.span("agents.ridge_solve", agents.ridge_solve)
        self._patch(agents, "ridge_solve", solve)
        self._patch(baselines, "ridge_solve", solve)

        # baselines
        for kind, cls in BASELINE_CLASSES.items():
            self._wrap(cls, "select", f"baselines.{kind}.select")
            self._wrap(cls, "update", f"baselines.{kind}.update")

        # ranking
        for cls in RANKER_CLASSES:
            self._wrap(cls, "select_list", "ranking.select")
            self._wrap(cls, "update", "ranking.update")
        self._wrap(ranking, "klucb_index", "ranking.klucb_index")
        self._patch(ranking, "kl_bernoulli",
                    self.counter("ranking.kl_bernoulli", ranking.kl_bernoulli))

        # envs
        for cls in (envs.MabInstance, envs.LinearInstance):
            self._wrap(cls, "sample_reward", "envs.reward")
        self._wrap(envs.CascadeInstance, "step", "envs.reward")
        self._wrap(envs.CascadeInstance, "expected_clicks", "envs.expected_clicks")
        for attr in ("generate_mab", "generate_linear", "generate_cascade",
                     "load_cascade_file", "save_cascade_file"):
            self._wrap(envs, attr, "envs.make")

        # bench: execute_run is the round loop; its self time is the loop's
        # own work (seeding, regret accounting, log points).
        self._wrap(bench, "execute_run", "bench.loop")
        self._wrap(bench, "make_agent", "bench.make_agent", self._warmup)
        self._wrap(bench, "aggregate_results", "bench.aggregate")
        for attr in ("write_trace_csv", "write_aggregate_csv"):
            self._wrap(bench, attr, "bench.csv",
                       lambda args, res: os.path.getsize(args[0]))

        # theory
        self._wrap(theory, "check_variance_floor", "theory.variance_floor")
        self._wrap(theory, "check_value_bound", "theory.value_bound")
        for attr in ("check_shifted_ball", "check_posterior_match",
                     "check_tail_mass"):
            self._wrap(theory, attr, "theory.mc")
        return self

    def uninstall(self) -> None:
        for owner, attr, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        try:
            return self.install()
        except BaseException:
            self.uninstall()
            raise

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _warmup(self, args, agent) -> int:
        """Warm-up rounds of a pool agent built by ``make_agent``."""
        if isinstance(agent, POOL_AGENT_CLASSES):
            self.counts["agents.warmup_rounds"] += min(agent.init_rounds,
                                                       agent.horizon)
        return 0

    # -- summaries ---------------------------------------------------------

    def calls(self, name: str, parent: str | None = ...) -> int:
        return sum(rec[0] for (par, nm), rec in self.stats.items()
                   if nm == name and (parent is ... or par == parent))

    def total(self, name: str) -> float:
        return sum(rec[1] for (_, nm), rec in self.stats.items() if nm == name)

    def self_time(self, name: str) -> float:
        return sum(rec[2] for (_, nm), rec in self.stats.items() if nm == name)

    def rows(self) -> list[list]:
        """Span table rows: parent, name, calls, total_s, self_s."""
        return [[par or "", nm, rec[0], repr(rec[1]), repr(rec[2])]
                for (par, nm), rec in sorted(self.stats.items(),
                                             key=lambda kv: (kv[0][0] or "", kv[0][1]))]


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as ``name -> (value, unit)``.

    Layers a workload never enters report 0.
    """
    c = tracer.counts
    index_calls = tracer.calls("ranking.klucb_index")
    kl_calls = c["ranking.kl_bernoulli"]
    out = {
        "pool.build.calls": (tracer.calls("pool.build"), "count"),
        "pool.build.s": (tracer.total("pool.build"), "s"),
        "pool.build.values": (c["pool.build.values"], "count"),
        "pool.draw.calls": (tracer.calls("pool.draw"), "count"),
        "pool.draw.s": (tracer.total("pool.draw"), "s"),
        "pool.draw.values": (c["pool.draw.values"], "count"),
        "agents.select.self_s": (tracer.self_time("agents.select"), "s"),
        "agents.update.s": (tracer.total("agents.update"), "s"),
        "agents.ridge_solve.calls": (tracer.calls("agents.ridge_solve"), "count"),
        "agents.ridge_solve.s": (tracer.total("agents.ridge_solve"), "s"),
        "agents.warmup_rounds": (c["agents.warmup_rounds"], "count"),
    }
    for kind in BASELINE_CLASSES:
        out[f"baselines.{kind}.select_s"] = (
            tracer.total(f"baselines.{kind}.select"), "s")
        out[f"baselines.{kind}.update_s"] = (
            tracer.total(f"baselines.{kind}.update"), "s")
    out.update({
        "ranking.select.self_s": (tracer.self_time("ranking.select"), "s"),
        "ranking.update.s": (tracer.total("ranking.update"), "s"),
        "ranking.klucb_index.calls": (index_calls, "count"),
        "ranking.klucb_index.s": (tracer.total("ranking.klucb_index"), "s"),
        "ranking.kl_bernoulli.calls": (kl_calls, "count"),
        # A ratio of two exact counts; its base is ranking.klucb_index.calls.
        "ranking.kl_per_index": (kl_calls / index_calls if index_calls else 0.0,
                                 "calls/index"),
        "envs.reward.s": (tracer.total("envs.reward"), "s"),
        "envs.expected_clicks.calls": (tracer.calls("envs.expected_clicks"), "count"),
        "envs.expected_clicks.s": (tracer.total("envs.expected_clicks"), "s"),
        "envs.make.s": (tracer.total("envs.make"), "s"),
        "bench.loop.self_s": (tracer.self_time("bench.loop"), "s"),
        "bench.make_agent.s": (tracer.total("bench.make_agent"), "s"),
        "bench.aggregate.s": (tracer.total("bench.aggregate"), "s"),
        "bench.csv.s": (tracer.total("bench.csv"), "s"),
        "bench.csv.bytes": (c["bench.csv.values"], "bytes"),
        "theory.variance_floor.s": (tracer.total("theory.variance_floor"), "s"),
        "theory.variance_floor.pool_builds": (
            tracer.calls("pool.build", parent="theory.variance_floor"), "count"),
        "theory.value_bound.s": (tracer.total("theory.value_bound"), "s"),
        "theory.mc.s": (tracer.total("theory.mc"), "s"),
    })
    return out
