"""Reward-pool agents: warm-up schedule, perturbed estimates, ridge state."""

import re
import sys

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import cho_factor, cho_solve, lapack

from banditpool.agents import (
    Agent,
    LinearModelState,
    LinRewardPoolAgent,
    PoolParams,
    RewardPoolAgent,
    _lapack,
    init_length,
    perturbed_mean_estimates,
    ridge_solve,
)
from banditpool.baselines import LinPHEAgent
from banditpool.envs import MabInstance
from banditpool.ranking import RewardPoolRanker


class TestInitLength:
    def test_reference_values(self):
        assert init_length(10_000, 0.6, 10) == 334
        assert init_length(100, 0.5, 200) == 200
        assert init_length(100, 0.5, 2) == 97
        # ln 1 = 0: a one-round run's warm-up is one pull per dimension.
        assert init_length(1, 0.6, 3) == 3

    def test_invalid_variance_ratio(self):
        for z in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                init_length(100, z, 3)

    def test_grows_with_horizon(self):
        lengths = [init_length(n, 0.6, 1) for n in (10, 100, 1000, 10_000)]
        assert lengths == sorted(lengths)
        assert lengths[0] < lengths[-1]


class TestPoolParams:
    def test_defaults(self):
        params = PoolParams()
        assert (params.alpha, params.z) == (0.6, 0.6)

    def test_validation(self):
        with pytest.raises(ValueError):
            PoolParams(alpha=0.0)
        with pytest.raises(ValueError):
            PoolParams(z=1.0)
        with pytest.raises(ValueError):
            LinRewardPoolAgent(np.eye(2), 10, ridge_lambda=-0.1)

    def test_zero_ridge_allowed_for_diagnostics(self):
        agent = LinRewardPoolAgent(np.eye(2), 10, ridge_lambda=0.0)
        assert agent._ridge_value() == 0.0


class TestPerturbedMeanEstimates:
    def test_hand_example(self):
        """(V + U) / s arithmetic: (2 + 0.5)/2 = 1.25 beats (3 - 0.3)/3 = 0.9."""
        est = perturbed_mean_estimates([2.0, 3.0], [2, 3], [0.5, -0.3])
        np.testing.assert_allclose(est, [1.25, 0.9])
        assert int(np.argmax(est)) == 0

    def test_unpulled_arm_forced(self):
        est = perturbed_mean_estimates([5.0, 0.0], [7, 0], [0.1, 0.0])
        assert est[1] == np.inf
        assert int(np.argmax(est)) == 1

    def test_zero_noise_reduces_to_empirical_means(self):
        est = perturbed_mean_estimates([2.0, 3.0], [4, 5], [0.0, 0.0])
        np.testing.assert_allclose(est, [0.5, 0.6])


def run_mab(agent, instance, horizon, env_rng):
    actions = []
    for t in range(1, horizon + 1):
        arm = agent.select(t)
        agent.update(t, arm, instance.sample_reward(arm, env_rng))
        actions.append(arm)
    return actions


FEATURES = np.random.default_rng(24).normal(size=(6, 3))


def make_pool_agent(kind, horizon, seed):
    """A pool agent with 6 arms (the rows of ``FEATURES`` if linear)."""
    rng = np.random.default_rng(seed)
    if kind == "mab":
        return RewardPoolAgent(6, horizon, PoolParams(), rng)
    ridge_lambda = "auto" if kind == "linear_auto_ridge" else 1.0
    return LinRewardPoolAgent(FEATURES, horizon, PoolParams(), rng, ridge_lambda)


def replay_affine(agent, table, a, b):
    """The actions, when arm ``i`` pays ``a * table[t - 1, i] + b`` in round
    ``t``, and the scores of each round after the warm-up, taken with the
    generator state restored so that ``select`` draws the same values."""
    actions, scores = [], []
    for t in range(1, len(table) + 1):
        if t > agent.init_rounds:
            state = agent.rng.bit_generator.state
            scores.append(agent._scores(t))
            agent.rng.bit_generator.state = state
        arm = agent.select(t)
        agent.update(t, arm, a * table[t - 1, arm] + b)
        actions.append(arm)
    return actions, scores


class TestRewardPoolAgent:
    def make(self, n_arms=4, horizon=200, seed=0, **kwargs):
        return RewardPoolAgent(n_arms, horizon, PoolParams(**kwargs),
                               np.random.default_rng(seed))

    def test_round_robin_warm_up(self):
        agent = self.make()
        instance = MabInstance(means=[0.3, 0.4, 0.5, 0.6], family="bernoulli")
        actions = run_mab(agent, instance, agent.init_rounds,
                          np.random.default_rng(1))
        assert actions == [t % 4 for t in range(agent.init_rounds)]

    def test_degenerate_pool_matches_empirical_argmax(self):
        """Constant rewards make every pool draw zero: plain greedy argmax."""
        agent = self.make(n_arms=2, horizon=60, seed=3, z=0.3)
        for t in range(1, agent.init_rounds + 1):
            arm = agent.select(t)
            agent.update(t, arm, 0.7)
        assert np.all(agent.current_pool().values == 0.0)
        est = agent._scores(agent.init_rounds + 1)
        np.testing.assert_allclose(est, [0.7, 0.7])
        assert agent.select(agent.init_rounds + 1) == 0

    def test_separated_arms_resist_pool_noise(self):
        agent = self.make(n_arms=2, horizon=60, seed=3, z=0.3)
        for t in range(1, agent.init_rounds + 1):
            arm = agent.select(t)
            agent.update(t, arm, 1.0 if arm == 1 else 0.0)
        assert agent.select(agent.init_rounds + 1) == 1

    def test_fresh_draws_each_call(self):
        agent = self.make(horizon=400, seed=4)
        instance = MabInstance(means=[0.3, 0.4, 0.5, 0.6], family="gaussian")
        run_mab(agent, instance, agent.init_rounds, np.random.default_rng(2))
        first = agent._scores(agent.init_rounds + 1)
        second = agent._scores(agent.init_rounds + 1)
        assert not np.array_equal(first, second)

    def test_deterministic_replay(self):
        """557 pool rounds after a 243-round warm-up."""
        instance = MabInstance(means=[0.3, 0.4, 0.5, 0.6], family="gaussian")
        agents = [self.make(horizon=800, seed=9) for _ in range(2)]
        assert agents[0].horizon - agents[0].init_rounds >= 500
        runs = [run_mab(agent, instance, 800, np.random.default_rng(17))
                for agent in agents]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("kind, a, b", [
        pytest.param("mab", 4.0, 0.0, id="mab-a4-b0"),
        pytest.param("linear", 4.0, 0.0, id="linear-a4-b0"),
        pytest.param("linear_auto_ridge", 4.0, 0.0,
                     id="linear_auto_ridge-a4-b0"),
        pytest.param("mab", 1.0, 10.0, id="mab-a1-b10"),
        pytest.param("mab", 2.5, -7.0, id="mab-a2.5-b-7"),
        pytest.param("mab", 1e-3, 0.0, id="mab-a0.001-b0"),
    ])
    def test_scale_equivariance(self, kind, a, b):
        """Rewards mapped by ``y -> a y + b`` leave the actions unchanged, as
        the pool is centred and scales with the rewards.  Under ``a = 4``, a
        power of two, every score is exactly 4x the unscaled one.  Only the
        MAB agent is shift-invariant: the linear agent's ridge prior sits at
        theta = 0, so it is tested under a scale alone (see the README)."""
        horizon = 2000
        table = np.random.default_rng(6).normal(0.5, 0.4, size=(horizon, 6))
        plain = replay_affine(make_pool_agent(kind, horizon, 8), table, 1.0, 0.0)
        moved = replay_affine(make_pool_agent(kind, horizon, 8), table, a, b)
        assert moved[0] == plain[0]
        assert len(plain[1]) == len(moved[1]) > horizon // 2
        if (a, b) == (4.0, 0.0):
            assert all(np.array_equal(scaled, 4.0 * unscaled)
                       for scaled, unscaled in zip(moved[1], plain[1]))

    def test_feedback_protocol_enforced(self):
        agent = self.make()
        with pytest.raises(RuntimeError):
            agent.update(1, 0, 0.5)
        arm = agent.select(1)
        with pytest.raises(RuntimeError):
            agent.update(1, arm + 1, 0.5)
        with pytest.raises(RuntimeError):
            agent.select(2)
        agent.update(1, arm, 0.5)
        with pytest.raises(ValueError):
            agent.select(0)

    @pytest.mark.parametrize("reward", [np.nan, np.inf, -np.inf])
    def test_non_finite_reward_rejected(self, reward):
        agent = self.make()
        arm = agent.select(1)
        with pytest.raises(ValueError, match=f"round 1, arm {arm}"):
            agent.update(1, arm, reward)
        assert agent.pulls.sum() == 0
        assert np.all(np.isfinite(agent.totals))
        # The round still awaits its feedback and accepts a finite reward.
        agent.update(1, arm, 0.5)
        assert agent.totals[arm] == 0.5


def reference_ridge_solve(gram, rhs):
    """The scipy wrapper pair ``ridge_solve`` replaced."""
    return cho_solve(cho_factor(gram, lower=True), rhs)


@st.composite
def spd_systems(draw, columns):
    """``(gram, rhs)`` with ``gram = lam I + A^T A`` and d in 1..12.

    ``columns`` draws a 1-D right-hand side when None, else a (d, k) one
    laid out like LinUCB's ``features.T`` (a transposed C-ordered array).
    """
    dim = draw(st.integers(1, 12))
    entries = st.floats(-10.0, 10.0, allow_nan=False)
    a = draw(hnp.arrays(float, (draw(st.integers(0, 20)), dim), elements=entries))
    lam = draw(st.floats(1e-3, 10.0))
    gram = lam * np.eye(dim) + a.T @ a
    if columns is None:
        rhs = draw(hnp.arrays(float, dim, elements=entries))
    else:
        rhs = draw(hnp.arrays(float, (draw(columns), dim), elements=entries)).T
    return gram, rhs


class TestRidgeSolve:
    @settings(deadline=None, max_examples=300)
    @given(spd_systems(columns=None))
    def test_bit_identical_to_scipy_wrappers(self, system):
        gram, rhs = system
        assert np.array_equal(ridge_solve(gram, rhs),
                              reference_ridge_solve(gram, rhs))

    @settings(deadline=None, max_examples=300)
    @given(spd_systems(columns=st.integers(1, 50)))
    def test_bit_identical_with_many_right_hand_sides(self, system):
        gram, rhs = system
        solution = ridge_solve(gram, rhs)
        assert solution.shape == rhs.shape
        assert np.array_equal(solution, reference_ridge_solve(gram, rhs))

    def test_leaves_its_inputs_alone(self):
        gram = np.array([[4.0, 1.0], [1.0, 3.0]])
        rhs = np.array([1.0, 2.0])
        ridge_solve(gram, rhs)
        assert np.array_equal(gram, [[4.0, 1.0], [1.0, 3.0]])
        assert np.array_equal(rhs, [1.0, 2.0])

    def test_non_spd_gram_names_the_failing_minor(self):
        gram = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError, match="minor of order 2"):
            ridge_solve(gram, np.ones(3))
        with pytest.raises(np.linalg.LinAlgError, match="minor of order 1"):
            ridge_solve(-np.eye(2), np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (1, 0), (0, 1)],
                             ids=["diagonal", "lower", "upper"])
    def test_non_finite_gram_rejected(self, bad, where):
        gram = 2.0 * np.eye(2)
        gram[where] = bad
        with pytest.raises(ValueError, match="gram matrix must be finite"):
            ridge_solve(gram, np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(2,), (2, 3)])
    def test_non_finite_rhs_rejected(self, bad, shape):
        rhs = np.ones(shape)
        rhs[(1,) * len(shape)] = bad
        with pytest.raises(ValueError, match="right-hand side must be finite"):
            ridge_solve(2.0 * np.eye(2), rhs)

    def test_scalar_example(self):
        """Perturbed ridge with history ((1,1),(1,0)), lam=1, noise (0.2,-0.2)."""
        gram = np.array([[3.0]])
        xs = np.array([[1.0], [1.0]])
        target = np.array([1.0]) + xs.T @ np.array([0.2, -0.2])
        np.testing.assert_allclose(ridge_solve(gram, target), [1.0 / 3.0])

    def test_matches_general_solver(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(5, 5))
        gram = a @ a.T + 2.0 * np.eye(5)
        target = rng.normal(size=5)
        np.testing.assert_allclose(ridge_solve(gram, target),
                                   np.linalg.solve(gram, target), rtol=1e-10)


FLAPACK = "scipy.linalg._flapack"


@pytest.fixture
def cold_lapack(monkeypatch):
    """``_lapack`` as on a first solve that finds no LAPACK module loaded;
    the loaded module and a fresh cache are put back afterwards."""
    monkeypatch.delitem(sys.modules, FLAPACK)
    _lapack.cache_clear()
    yield monkeypatch
    _lapack.cache_clear()


class TestLapackLoad:
    """``_lapack`` loads the extension file itself, not ``scipy.linalg``.

    This process imported ``scipy.linalg`` long ago, so each test drops the
    extension from ``sys.modules`` first; CPython loads it again as a new
    module holding the same function objects.
    """

    def test_cold_load_gives_scipy_linalg_lapack_functions(self, cold_lapack):
        module = _lapack()
        assert sys.modules[FLAPACK] is module
        for name in ("dpotrf", "dpotrs", "dtrtrs"):
            assert getattr(module, name) is getattr(lapack, name)
        rng = np.random.default_rng(3)
        a = rng.normal(size=(10, 10))
        gram, rhs = a @ a.T + np.eye(10), rng.normal(size=10)
        assert np.array_equal(ridge_solve(gram, rhs),
                              reference_ridge_solve(gram, rhs))

    def test_missing_extension_names_the_folder(self, cold_lapack, tmp_path):
        cold_lapack.setattr(scipy, "__file__", str(tmp_path / "__init__.py"))
        folder = tmp_path / "linalg"
        with pytest.raises(ImportError, match=(
                f"^no _flapack extension module in {re.escape(str(folder))}$")):
            _lapack()
        assert FLAPACK not in sys.modules


class FixedThetaAgent(Agent):
    """Scores every arm by ``x_i . theta`` for a fixed ``theta``."""

    def __init__(self, features, theta):
        super().__init__(len(features), 1)
        self.features, self.theta = features, theta

    def _scores(self, t):
        return self.features @ self.theta


def best_arm(features, theta):
    """The arm ``Agent.select`` plays on the scores ``features @ theta``."""
    return FixedThetaAgent(features, theta).select(1)


class TestBestArm:
    """A round with no forced action plays the argmax of ``_scores``."""

    def test_one_hot(self):
        features = np.eye(2)
        assert best_arm(features, np.array([1.0, 0.0])) == 0
        assert best_arm(features, np.array([0.0, 1.0])) == 1

    def test_tie_breaks_to_lowest_index(self):
        assert best_arm(np.eye(3), np.zeros(3)) == 0

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            features = rng.normal(size=(6, 3))
            theta = rng.normal(size=3)
            scores = [float(features[i] @ theta) for i in range(6)]
            assert best_arm(features, theta) == int(np.argmax(scores))


def observe(agent, arms, rewards, start=1):
    """Feed ``(arm, reward)`` observations, from round ``start``, through the
    round protocol."""
    for t, (arm, reward) in enumerate(zip(arms, rewards), start=start):
        agent._pending = (t, int(arm))
        agent.update(t, int(arm), float(reward))


def gram_from_pulls(features, pulls, ridge_lambda):
    """``lambda I + sum x x^T`` over ``pulls[i]`` copies of each row ``i``."""
    return (ridge_lambda * np.eye(features.shape[1])
            + features.T @ (np.asarray(pulls)[:, None] * features))


def gram_from_arms(features, arms, ridge_lambda):
    """``lambda I + sum x x^T`` over the feature rows ``features[arms]``."""
    return gram_from_pulls(features, np.bincount(arms, minlength=len(features)),
                           ridge_lambda)


class TestLinearModelState:
    def test_gram_recomputable_from_history(self):
        rng = np.random.default_rng(15)
        features = rng.normal(size=(7, 3))
        arms = rng.integers(0, 7, size=50)
        rewards = rng.normal(size=50)
        state = LinearModelState(3)
        state.regularize(1.0)
        for arm, reward in zip(arms, rewards):
            state.add(features[arm], reward)
        np.testing.assert_allclose(state.gram, gram_from_arms(features, arms, 1.0),
                                   rtol=1e-8)
        np.testing.assert_allclose(state.xy_sum,
                                   features.T @ np.bincount(arms, rewards, 7),
                                   rtol=1e-8)

    def test_gram_stays_positive_definite(self):
        rng = np.random.default_rng(16)
        features = rng.normal(size=(9, 4))
        state = LinearModelState(4)
        state.regularize(0.5)
        for arm in rng.integers(0, 9, size=100):
            state.add(features[arm], float(rng.normal()))
            assert np.linalg.eigvalsh(state.gram)[0] >= 0.5 - 1e-9

    def test_zero_perturbation_recovers_mean_fit(self):
        """Equal rewards make an all-zero pool: the perturbed fit is the mean fit."""
        rng = np.random.default_rng(17)
        features = rng.normal(size=(4, 2))
        agent = LinRewardPoolAgent(features, 11, PoolParams(),
                                   np.random.default_rng(0))
        observe(agent, rng.integers(0, 4, size=10), [0.4] * 10)
        scores = agent._scores(11)
        mean_fit = ridge_solve(agent.state.gram, agent.state.xy_sum)
        np.testing.assert_allclose(scores, features @ mean_fit)

    def test_one_hot_reduction_of_the_fit(self):
        """Diagonal gram with one-hot features gives per-arm perturbed means."""
        arms = [0, 1, 0]
        ys = np.array([1.0, 0.5, 0.0])
        noise = np.array([0.2, -0.1, 0.3])
        agent = LinRewardPoolAgent(np.eye(2), 3, ridge_lambda=0.0)
        observe(agent, arms, ys)
        agent.state.regularize(0.0)
        theta = agent._perturbed_fit(np.bincount(arms, noise, 2))
        np.testing.assert_allclose(
            theta, [(1.0 + 0.0 + 0.2 + 0.3) / 2, (0.5 - 0.1) / 1])


def run_linear(agent, features, theta_star, horizon, env_rng, sigma=0.5,
               start=1):
    actions = []
    for t in range(start, horizon + 1):
        arm = agent.select(t)
        reward = float(features[arm] @ theta_star) + sigma * env_rng.standard_normal()
        agent.update(t, arm, reward)
        actions.append(arm)
    return actions


class TestLinRewardPoolAgent:
    def test_warm_up_cycles_arms(self):
        features = np.random.default_rng(18).normal(size=(5, 2))
        agent = LinRewardPoolAgent(features, 300, PoolParams(),
                                   np.random.default_rng(0))
        theta = np.array([0.1, 0.2])
        actions = run_linear(agent, features, theta, agent.init_rounds,
                             np.random.default_rng(1))
        assert actions == [t % 5 for t in range(agent.init_rounds)]

    def test_state_built_lazily_and_kept_consistent(self):
        features = np.random.default_rng(19).normal(size=(4, 2))
        agent = LinRewardPoolAgent(features, 250, PoolParams(),
                                   np.random.default_rng(2))
        env_rng = np.random.default_rng(3)
        theta = np.array([0.3, 0.1])
        run_linear(agent, features, theta, agent.init_rounds, env_rng)
        # The warm-up gram holds no ridge term until the first fit.
        assert agent.state.ridge_lambda is None
        np.testing.assert_allclose(
            agent.state.gram, gram_from_pulls(features, agent.pulls, 0.0),
            rtol=1e-8)
        run_linear(agent, features, theta, 250, env_rng,
                   start=agent.init_rounds + 1)
        assert agent.state.ridge_lambda == 1.0
        np.testing.assert_allclose(agent.state.gram,
                                   gram_from_pulls(features, agent.pulls, 1.0),
                                   rtol=1e-8)
        assert agent._seen == agent.pulls.sum() == 250

    def test_deterministic_replay(self):
        features = np.random.default_rng(20).normal(size=(4, 2))
        theta = np.array([0.25, 0.1])

        def once():
            agent = LinRewardPoolAgent(features, 220, PoolParams(),
                                       np.random.default_rng(7))
            return run_linear(agent, features, theta, 220,
                              np.random.default_rng(8))

        assert once() == once()

    def test_matches_mab_agent_one_hot(self):
        """Identity features, zero ridge, shared streams: identical actions
        over 557 pool rounds after a 243-round warm-up, so both agents draw
        and sum their noise alike."""
        n_arms, horizon = 3, 800
        instance = MabInstance(means=[0.35, 0.55, 0.65], family="gaussian",
                               sigma=0.5)
        table = np.random.default_rng(42).standard_normal((horizon, n_arms))
        for seed in range(3):
            mab = RewardPoolAgent(n_arms, horizon, PoolParams(),
                                  np.random.default_rng(seed))
            lin = LinRewardPoolAgent(np.eye(n_arms), horizon, PoolParams(),
                                     np.random.default_rng(seed),
                                     ridge_lambda=0.0)
            assert mab.init_rounds == lin.init_rounds <= horizon - 500
            seqs = []
            for agent in (mab, lin):
                actions = []
                for t in range(1, horizon + 1):
                    arm = agent.select(t)
                    reward = instance.means[arm] + 0.5 * table[t - 1, arm]
                    agent.update(t, arm, reward)
                    actions.append(arm)
                seqs.append(actions)
            assert seqs[0] == seqs[1]

    def test_auto_ridge_matches_quarter_of_smallest_eigenvalue(self):
        features = np.random.default_rng(23).normal(size=(3, 3))
        agent = LinRewardPoolAgent(features, 200, PoolParams(),
                                   np.random.default_rng(4), ridge_lambda="auto")
        run_linear(agent, features, np.array([0.2, 0.1, 0.05]), 200,
                   np.random.default_rng(5))
        lam = agent.state.ridge_lambda
        smallest = np.linalg.eigvalsh(agent.state.gram)[0]
        # The regularizer solves lam = min_eig(gram) / 4 including itself;
        # the gram at the first fit satisfied the fixed point exactly.
        warmup = np.arange(agent.init_rounds) % len(features)
        base = np.linalg.eigvalsh(gram_from_arms(features, warmup, 0.0))[0]
        assert lam == pytest.approx((base + lam) / 4.0)
        assert smallest >= lam


def greedy_arm(agent):
    """The unperturbed greedy arm: the argmax of ``V / s``, or of ``features
    @`` the plain ridge fit."""
    if isinstance(agent, RewardPoolAgent):
        return int(np.argmax(agent.totals / agent.pulls))
    theta = ridge_solve(agent.state.gram, agent.state.xy_sum)
    return int(np.argmax(agent.features @ theta))


@pytest.mark.parametrize("kind", ["mab", "linear", "linphe"])
def test_zero_arm_noise_plays_the_greedy_argmax(kind, monkeypatch):
    """``_arm_noise`` is the one draw site of ``_scores``: with it returning
    zeros, every scored round draws nothing and plays the greedy arm."""
    horizon = 400
    if kind == "linphe":
        agent = LinPHEAgent(FEATURES, horizon, rng=np.random.default_rng(9))
    else:
        agent = make_pool_agent(kind, horizon, 9)
    monkeypatch.setattr(agent, "_arm_noise", lambda: np.zeros(agent.n_arms))
    table = np.random.default_rng(10).normal(0.5, 0.4, size=(horizon, 6))
    scored = 0
    for t in range(1, horizon + 1):
        forced = agent._forced(t) is not None
        state = agent.rng.bit_generator.state
        arm = agent.select(t)
        if not forced:
            # Read after select: the linear pool agent adds its ridge term
            # at its first fit.
            assert arm == greedy_arm(agent)
            assert agent.rng.bit_generator.state == state
            scored += 1
        agent.update(t, arm, table[t - 1, arm])
    assert scored > horizon // 3


def ranker_after_one_click():
    """A pool ranker after round 1: slate (0, 1, 2), click on position 1, so
    items 2 to 5 were never examined."""
    ranker = RewardPoolRanker(6, 3, 10, PoolParams(), np.random.default_rng(11))
    ranker.update(1, ranker.select(1), 1)
    return ranker.items, [2, 3, 4, 5]


def linphe_after_one_observation():
    agent = LinPHEAgent(FEATURES, 10, rng=np.random.default_rng(12))
    agent.update(1, agent.select(1), 0.5)
    return agent, [1, 2, 3, 4, 5]


def mab_pool_with_unplayed_arms():
    agent = RewardPoolAgent(6, 10, PoolParams(), np.random.default_rng(13))
    observe(agent, [0, 2, 0, 2, 2], [0.1, 0.9, 0.4, 0.7, 0.2])
    return agent, [1, 3, 4, 5]


@pytest.mark.parametrize("build", [ranker_after_one_click,
                                   linphe_after_one_observation,
                                   mab_pool_with_unplayed_arms],
                         ids=["pool_ranker", "linphe", "mab_pool"])
def test_arm_noise_is_zero_on_unseen_arms(build):
    """An arm with no observation gets exactly 0, including unseen arms after
    the last seen one, whose blocks would start at the end of the draw."""
    agent, unseen = build()
    assert agent.pulls[unseen].sum() == 0
    for _ in range(20):
        noise = agent._arm_noise()
        assert noise.shape == (agent.n_arms,)
        assert np.all(noise[unseen] == 0.0)
        assert np.all(np.isfinite(noise))
