"""KL confidence bounds, top-K ranking, and cascade feedback accounting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from banditpool.agents import PoolParams, RewardPoolAgent
from banditpool.baselines import BernoulliPHEAgent, BernoulliTSAgent
from banditpool.envs import CascadeInstance
from banditpool.pool import build_pool
from banditpool.ranking import (
    BernoulliPHERanker,
    BernoulliTSRanker,
    KLUCBRanker,
    RewardPoolRanker,
    _KLUCBAgent,
    exploration_budget,
    kl_bernoulli,
    klucb_index,
    klucb_solve,
    rank_topk,
)


class TestKLBernoulli:
    def test_zero_at_equality(self):
        assert kl_bernoulli(0.3, 0.3) == pytest.approx(0.0)

    def test_closed_form_at_zero(self):
        assert kl_bernoulli(0.0, 0.5) == pytest.approx(-math.log(0.5))

    def test_closed_form_at_one(self):
        assert kl_bernoulli(1.0, 0.25) == -math.log(0.25)
        assert kl_bernoulli(1.0, 0.0) == math.inf

    def test_infinite_against_pointmass(self):
        assert kl_bernoulli(0.5, 1.0) == math.inf
        assert kl_bernoulli(0.5, 0.0) == math.inf

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p, q = rng.uniform(0.01, 0.99, size=2)
            assert kl_bernoulli(p, q) >= 0.0


def bisection_klucb(mean, observations, budget, tol=1e-6):
    """Reference KL-UCB index by bisection, about 33 kl evaluations a call.

    Keeps ``lo`` feasible and halves until ``hi - lo <= tol`` and the scaled
    divergence at ``lo`` lies within 1e-6 of the budget, or until floating
    point cannot split the bracket further.
    """
    if mean >= 1.0:
        return 1.0
    target = budget / observations
    lo, hi = mean, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return lo
        if kl_bernoulli(mean, mid) <= target:
            lo = mid
        else:
            hi = mid
        if (hi - lo <= tol
                and abs(observations * kl_bernoulli(mean, lo) - budget) <= 1e-6):
            return lo


class TestKLUCB:
    def test_certain_mean_scores_one(self):
        assert klucb_index(5, 5, 100) == 1.0

    def test_unobserved_scores_one(self):
        assert klucb_index(0, 0, 100) == 1.0

    def test_closed_form_at_zero_mean(self):
        """kl(0, q) = -ln(1 - q), so a unit budget gives q = 1 - 1/e."""
        q = klucb_solve(0.0, 1, 1.0)
        assert q == pytest.approx(1.0 - math.exp(-1.0), abs=1e-4)

    def test_bisection_residual(self):
        """Interior solutions satisfy s * kl(mean, q) = budget within 1e-5."""
        rng = np.random.default_rng(1)
        for _ in range(40):
            obs = int(rng.integers(10, 200))
            clicks = int(rng.integers(1, obs))
            budget = float(rng.uniform(0.5, 3.0))
            mean = clicks / obs
            q = klucb_solve(mean, obs, budget)
            if q < 0.99:
                assert obs * kl_bernoulli(mean, q) == pytest.approx(budget, abs=1e-5)

    def test_matches_bisection_on_random_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            obs = int(rng.integers(1, 200 if rng.uniform() < 0.5 else 100_000))
            mean = int(rng.integers(0, obs + 1)) / obs
            budget = exploration_budget(int(rng.integers(1, 200_000)))
            q = klucb_solve(mean, obs, budget)
            assert mean <= q <= 1.0
            assert q == pytest.approx(bisection_klucb(mean, obs, budget), abs=1e-6)

    @pytest.mark.parametrize("mean", [0.0, 1.0, 1.0 - 1e-9, 1e-9, 0.5])
    def test_matches_bisection_on_edges(self, mean):
        for obs in (1, 2, 100_000):
            for budget in (0.0, 1e-4, exploration_budget(2), 5.0,
                           exploration_budget(200_000), 60.0):
                q = klucb_solve(mean, obs, budget)
                assert mean <= q <= 1.0
                assert q == pytest.approx(bisection_klucb(mean, obs, budget),
                                          abs=1e-6), (obs, budget)

    def test_zero_mean_closed_form_is_exact(self):
        for obs, budget in ((1, 1.0), (7, 3.5), (100_000, 20.0)):
            q = klucb_solve(0.0, obs, budget)
            assert q == -math.expm1(-budget / obs)
            assert obs * kl_bernoulli(0.0, q) == pytest.approx(budget, abs=1e-9)

    def test_zero_budget_returns_the_mean(self):
        assert klucb_index(3, 10, 1) == 0.3

    def test_index_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            obs = int(rng.integers(1, 80))
            clicks = int(rng.integers(0, obs + 1))
            idx = klucb_index(clicks, obs, int(rng.integers(3, 10_000)))
            assert clicks / obs <= idx <= 1.0

    def test_budget_clamped_for_early_rounds(self):
        assert exploration_budget(1) == pytest.approx(0.0)
        assert exploration_budget(3) == pytest.approx(
            math.log(3) + 3 * math.log(math.log(3)))
        with pytest.raises(ValueError):
            exploration_budget(0)


class TestRankTopK:
    def test_reference_example(self):
        assert rank_topk([0.1, 0.9, 0.5], 2) == [1, 2]

    def test_ties_break_by_index(self):
        assert rank_topk([0.5, 0.5, 0.5, 0.5], 3) == [0, 1, 2]

    def test_full_slate_is_a_permutation(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=7)
        assert sorted(rank_topk(scores, 7)) == list(range(7))

    def test_oversized_slate_rejected(self):
        with pytest.raises(ValueError):
            rank_topk([0.1, 0.2], 3)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            scores = rng.normal(size=9)
            got = rank_topk(scores, 4)
            assert [scores[i] for i in got] == sorted(scores, reverse=True)[:4]


def fed_back(ranker, t, slate, click):
    """``ranker`` after cascade feedback ``click`` on ``slate`` in round ``t``,
    as if it had selected that slate."""
    ranker._pending = (t, tuple(slate))
    ranker.update(t, slate, click)
    return ranker


# Each ranker kind with the bare item agent it wraps, as factories: the
# ranker's of (items, slate size, horizon, seed), the agent's of (items,
# capacity, seed), where the capacity is one observation per shown position.
KINDS = {
    "klucb": (lambda n, k, h, s: KLUCBRanker(n, k, h),
              lambda n, c, s: _KLUCBAgent(n, c)),
    "bern_ts": (lambda n, k, h, s: BernoulliTSRanker(n, k, h, default_rng(s)),
                lambda n, c, s: BernoulliTSAgent(n, c, default_rng(s))),
    "bern_phe": (lambda n, k, h, s: BernoulliPHERanker(n, k, h, 0.5, default_rng(s)),
                 lambda n, c, s: BernoulliPHEAgent(n, c, 0.5, default_rng(s))),
    "pool": (lambda n, k, h, s: RewardPoolRanker(n, k, h, PoolParams(), default_rng(s)),
             lambda n, c, s: RewardPoolAgent(n, c, PoolParams(), default_rng(s))),
}


class TestCascadeUpdate:
    """Cascade feedback reaches the item agent as one 0/1 reward per examined
    position: its pulls count observations and its totals count clicks."""

    def test_click_at_first_position(self):
        items = fed_back(KLUCBRanker(5, 3, 10), 1, [3, 1, 4], 0).items
        assert items.pulls.tolist() == [0, 0, 0, 1, 0]
        assert items.totals.tolist() == [0, 0, 0, 1, 0]

    def test_no_click_observes_everything(self):
        items = fed_back(KLUCBRanker(5, 3, 10), 1, [3, 1, 4], None).items
        assert items.pulls.tolist() == [0, 1, 0, 1, 1]
        assert items.totals.sum() == 0

    def test_click_mid_list(self):
        items = fed_back(KLUCBRanker(5, 4, 10), 1, [3, 1, 4, 0], 2).items
        assert items.pulls.tolist() == [0, 1, 0, 1, 1]
        assert items.totals.tolist() == [0, 0, 0, 0, 1]

    def test_inconsistent_click_position(self):
        ranker = KLUCBRanker(3, 2, 10)
        with pytest.raises(ValueError):
            fed_back(ranker, 1, [0, 1], 2)
        assert ranker.items.pulls.sum() == 0

    @settings(deadline=None)
    @given(st.data())
    def test_accounting_invariants(self, data):
        """Each round observes exactly the examined prefix of the slate, adds
        one click only when there is one, and never lets clicks pass
        observations, whichever agent the ranker wraps."""
        n_items = data.draw(st.integers(1, 12))
        make_ranker, _ = KINDS[data.draw(st.sampled_from(sorted(KINDS)))]
        ranker = make_ranker(n_items, n_items, 30, 0)
        items = ranker.items
        for t in range(1, data.draw(st.integers(1, 30)) + 1):
            order = data.draw(st.permutations(range(n_items)))
            ranked = order[: data.draw(st.integers(1, n_items))]
            click_pos = data.draw(st.none() | st.integers(0, len(ranked) - 1))
            examined = len(ranked) if click_pos is None else click_pos + 1
            new_obs = np.zeros(n_items, dtype=np.int64)
            new_obs[ranked[:examined]] = 1
            new_clicks = np.zeros(n_items, dtype=np.int64)
            if click_pos is not None:
                new_clicks[ranked[click_pos]] = 1
            before = (items.pulls.copy(), items.totals.copy())
            fed_back(ranker, t, ranked, click_pos)
            assert np.array_equal(items.pulls - before[0], new_obs)
            assert np.array_equal(items.totals - before[1], new_clicks)
            assert np.all(items.totals <= items.pulls)

    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_ranker_scores_match_a_bare_item_agent(self, data):
        """A ranker fed cascade rounds scores bit for bit as the agent it
        wraps, fed the examined (item, 0/1) observations directly, from the
        same generator state."""
        kind = data.draw(st.sampled_from(sorted(KINDS)))
        make_ranker, make_agent = KINDS[kind]
        n_items = data.draw(st.integers(1, 8))
        size = data.draw(st.integers(1, n_items))
        horizon = data.draw(st.integers(2, 30))
        seed = data.draw(st.integers(0, 2**32))
        ranker = make_ranker(n_items, size, horizon, seed)
        agent = make_agent(n_items, horizon * size, seed)
        for t in range(1, horizon):
            slate = list(data.draw(st.permutations(range(n_items)))[:size])
            click = data.draw(st.none() | st.integers(0, size - 1))
            fed_back(ranker, t, slate, click)
            for pos in range(size if click is None else click + 1):
                agent._learn(t, slate[pos], float(pos == click))
        if hasattr(agent, "rng"):
            agent.rng.bit_generator.state = ranker.items.rng.bit_generator.state
        assert ranker._scores(horizon).tobytes() == agent._scores(horizon).tobytes()


def cascade_loss(instance, slate):
    """The expected click loss ``CascadeInstance.play`` reports for ``slate``."""
    return instance.play(slate, np.random.default_rng(0))[1]


class TestRankingRegret:
    instance = CascadeInstance(attractions=[0.9, 0.8, 0.1], slate_size=2)

    def test_optimal_slate_has_zero_regret(self):
        assert cascade_loss(self.instance, [0, 1]) == pytest.approx(0.0)

    def test_reference_example(self):
        assert cascade_loss(self.instance, [0, 2]) == pytest.approx(0.07)

    def test_invariant_to_within_slate_order(self):
        assert cascade_loss(self.instance, [2, 0]) == pytest.approx(
            cascade_loss(self.instance, [0, 2]))

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(5)
        inst = CascadeInstance(attractions=rng.uniform(size=8), slate_size=4)
        for _ in range(50):
            slate = list(rng.permutation(8)[:4])
            assert cascade_loss(inst, slate) >= -1e-12


def drive(ranker, instance, horizon, env_rng):
    for t in range(1, horizon + 1):
        slate = ranker.select_list(t)
        click = instance.step(slate, env_rng)
        ranker.update(t, slate, click)


class TestRankers:
    instance = CascadeInstance(
        attractions=[0.6, 0.5, 0.45, 0.4, 0.35, 0.2, 0.15, 0.1], slate_size=3)

    @pytest.mark.parametrize("factory", [
        lambda: KLUCBRanker(8, 3, 400),
        lambda: BernoulliTSRanker(8, 3, 400, np.random.default_rng(6)),
        lambda: BernoulliPHERanker(8, 3, 400, 0.5, np.random.default_rng(6)),
        lambda: RewardPoolRanker(8, 3, 400, PoolParams(), np.random.default_rng(6)),
    ], ids=["klucb", "bern_ts", "bern_phe", "pool"])
    def test_valid_slates_and_bookkeeping(self, factory):
        ranker = factory()
        drive(ranker, self.instance, 400, np.random.default_rng(7))
        assert np.all(ranker.items.totals <= ranker.items.pulls)
        assert ranker.items.pulls.sum() >= 400

    def test_pool_ranker_shares_one_pool_across_items(self):
        ranker = RewardPoolRanker(4, 2, 50, PoolParams(alpha=0.6),
                                  np.random.default_rng(8))
        feedback = [([0, 1], None), ([2, 3], 0), ([0, 2], 1)]
        for t, (slate, click) in enumerate(feedback, start=1):
            fed_back(ranker, t, slate, click)
        # Observed values in order: 0,0 then 1 (click at pos 0) then 0,1.
        expected = build_pool([0.0, 0.0, 1.0, 0.0, 1.0], alpha=0.6)
        got = ranker.items.current_pool()
        np.testing.assert_array_equal(got.values, expected.values)
        assert ranker.items.pulls.tolist() == [2, 1, 2, 0]

    def test_pool_ranker_first_slate_is_leading_items(self):
        ranker = RewardPoolRanker(6, 3, 10, PoolParams(), np.random.default_rng(9))
        assert ranker.select_list(1) == [0, 1, 2]

    def test_pool_ranker_draws_from_round_two(self):
        rng = np.random.default_rng(11)
        ranker = RewardPoolRanker(6, 3, 10, PoolParams(), rng)
        before = rng.bit_generator.state
        ranker.update(1, ranker.select_list(1), None)
        assert rng.bit_generator.state == before
        ranker.select_list(2)
        assert rng.bit_generator.state != before

    def test_feedback_protocol_enforced(self):
        ranker = KLUCBRanker(5, 2, 10)
        slate = ranker.select_list(1)
        with pytest.raises(RuntimeError):
            ranker.update(1, [slate[1], slate[0]], None)
        ranker.update(1, slate, None)
        with pytest.raises(RuntimeError):
            ranker.update(1, slate, None)

    @pytest.mark.parametrize("click", [-1, 2, 7, 0.5, True])
    def test_bad_click_leaves_the_round_pending(self, click):
        ranker = KLUCBRanker(5, 2, 10)
        slate = ranker.select_list(1)
        with pytest.raises(ValueError, match="round 1"):
            ranker.update(1, slate, click)
        assert ranker._pending == (1, tuple(slate))
        ranker.update(1, slate, None)
        assert ranker.items.pulls.sum() == 2
        assert ranker.items.totals.sum() == 0

    def test_unobserved_items_rank_first(self):
        ranker = BernoulliPHERanker(5, 2, 20, 0.5, np.random.default_rng(10))
        slate = ranker.select_list(1)
        ranker.update(1, slate, 0)
        follow_up = ranker.select_list(2)
        assert follow_up[0] not in set(slate[:1])

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_single_observation_ranker_runs(self, kind):
        """One item, a slate of one and one round: the item agent's capacity
        is one observation, and the ranker still plays its round."""
        ranker = KINDS[kind][0](1, 1, 1, 12)
        slate = ranker.select(1)
        assert slate == [0]
        ranker.update(1, slate, 0)
        assert ranker.items.pulls.tolist() == [1]
        assert ranker.items.totals.tolist() == [1.0]
