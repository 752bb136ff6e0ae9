"""Stochastic bandit simulation library with reward-pool exploration.

The package bundles problem environments (multi-armed, linear, cascade
ranking), agents that explore by perturbing their own reward history with
draws from a centered reward pool, the usual baselines, a seeded benchmark
harness, and Monte Carlo checks of the pool's variance guarantees.
"""

from .pool import RewardPool, build_pool
from .envs import (
    CascadeInstance,
    LinearInstance,
    MabInstance,
    generate_cascade,
    generate_linear,
    generate_mab,
    load_cascade_file,
    save_cascade_file,
)
from .agents import (
    Agent,
    LinearModelState,
    LinRewardPoolAgent,
    PoolParams,
    RewardPoolAgent,
    init_length,
)
from .baselines import (
    BernoulliPHEAgent,
    BernoulliTSAgent,
    GaussianPHEAgent,
    GaussianTSAgent,
    LinPHEAgent,
    LinTSAgent,
    LinUCBAgent,
    UCB1Agent,
    UCBVAgent,
)
from .ranking import (
    BernoulliPHERanker,
    BernoulliTSRanker,
    KLUCBRanker,
    RewardPoolRanker,
    klucb_index,
    rank_topk,
)
from .bench import RunConfig, AgentSpec, parse_config, parameter_sweep, run_experiment
from .theory import CheckReport, default_checks, write_check_report

__all__ = [name for name in dir() if not name.startswith("_")]
