"""Problem instance generation, reward sampling, and cascade semantics."""

import itertools
import math
import re

import numpy as np
import pytest

from banditpool import envs
from banditpool.envs import (
    CascadeInstance,
    LinearInstance,
    MabInstance,
    generate_cascade,
    generate_linear,
    generate_mab,
    load_cascade_file,
    save_cascade_file,
)


class TestGenerateMab:
    def test_beta_defaults(self):
        inst = generate_mab(10, "beta", np.random.default_rng(0))
        assert inst.v == 4.0
        assert inst.means.size == 10
        assert np.all((inst.means >= 0.25) & (inst.means <= 0.75))

    def test_gaussian_defaults(self):
        inst = generate_mab(10, "gaussian", np.random.default_rng(0))
        assert inst.sigma == 0.5

    def test_seed_determinism(self):
        a = generate_mab(2, "bernoulli", np.random.default_rng(99))
        b = generate_mab(2, "bernoulli", np.random.default_rng(99))
        np.testing.assert_array_equal(a.means, b.means)

    def test_too_few_arms(self):
        with pytest.raises(ValueError):
            generate_mab(1, "bernoulli", np.random.default_rng(0))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            generate_mab(3, "poisson", np.random.default_rng(0))


class TestSampleReward:
    def test_degenerate_bernoulli(self):
        inst = MabInstance(means=[1.0, 0.0], family="bernoulli")
        rng = np.random.default_rng(0)
        assert all(inst.sample_reward(0, rng) == 1.0 for _ in range(50))
        assert all(inst.sample_reward(1, rng) == 0.0 for _ in range(50))

    def test_gaussian_sample_mean(self):
        """10^6 draws: sample mean within 0.5 +/- 0.002 (= 4 sigma / sqrt(N))."""
        inst = MabInstance(means=[0.5, 0.5], family="gaussian", sigma=0.5)
        rng = np.random.default_rng(5)
        draws = np.array([inst.sample_reward(0, rng) for _ in range(200_000)])
        tol = 4 * 0.5 / math.sqrt(draws.size)
        assert abs(draws.mean() - 0.5) < tol

    def test_beta_sample_variance(self):
        """Sample variance matches mu(1-mu)/(v+1) = 0.05 via a moment oracle."""
        inst = MabInstance(means=[0.5, 0.5], family="beta", v=4.0)
        rng = np.random.default_rng(6)
        draws = np.array([inst.sample_reward(0, rng) for _ in range(200_000)])
        # Standard error of the sample variance from the oracle's own moments.
        fourth = np.mean((draws - draws.mean()) ** 4)
        se = math.sqrt((fourth - draws.var() ** 2) / draws.size)
        assert abs(draws.var() - 0.05) < 4 * se

    def test_out_of_range_arm(self):
        inst = MabInstance(means=[0.5, 0.5], family="bernoulli")
        with pytest.raises(IndexError):
            inst.sample_reward(2, np.random.default_rng(0))


class TestGaps:
    def test_two_arm_example(self):
        inst = MabInstance(means=[0.7, 0.4], family="bernoulli")
        np.testing.assert_allclose(inst.gaps(), [0.0, 0.3])
        assert int(np.argmax(inst.means)) == 0

    def test_all_equal(self):
        inst = MabInstance(means=[0.5, 0.5, 0.5], family="gaussian")
        np.testing.assert_array_equal(inst.gaps(), np.zeros(3))

    def test_linear_gaps_match_exhaustive_scan(self):
        inst = generate_linear(12, 4, "gaussian", np.random.default_rng(8))
        means = np.array([inst.features[i] @ inst.theta_star
                          for i in range(inst.n_arms)])
        np.testing.assert_allclose(inst.gaps(), means.max() - means)
        assert inst.gaps()[int(np.argmax(means))] == 0.0

    def test_gaps_nonnegative_and_zero_at_best(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            inst = generate_mab(int(rng.integers(2, 12)), "gaussian", rng)
            gaps = inst.gaps()
            assert np.all(gaps >= 0.0)
            assert gaps[int(np.argmax(inst.means))] == 0.0


class TestGenerateLinear:
    def test_benchmark_shape(self):
        inst = generate_linear(50, 10, "gaussian", np.random.default_rng(1))
        means = inst.means
        assert means.shape == (50,)
        assert np.all((means >= 0.0) & (means <= 1.0))
        assert means.max() == pytest.approx(0.75)
        assert means.min() == pytest.approx(0.25)

    def test_square_case_spans(self):
        inst = generate_linear(4, 4, "gaussian", np.random.default_rng(2))
        assert np.linalg.matrix_rank(inst.features) == 4

    def test_means_recomputed_by_direct_dot_products(self):
        inst = generate_linear(3, 2, "bernoulli", np.random.default_rng(3))
        for i in range(3):
            direct = float(np.dot(inst.features[i], inst.theta_star))
            assert 0.0 <= direct <= 1.0
            assert inst.means[i] == pytest.approx(direct)

    @pytest.mark.parametrize("family", ["gaussian", "bernoulli", "beta"])
    def test_rewards_drawn_around_the_reported_means(self, family, monkeypatch):
        """Every reward is drawn around the very mean that the gaps, and so
        the regret, are measured from: one product ``features @ theta``."""
        handed = []

        def capture(mean, *args):
            handed.append(mean)
            return 0.0

        monkeypatch.setattr(envs, "_draw_reward", capture)
        rng = np.random.default_rng(5)
        for k, d in [(50, 10), (20, 5), (7, 3), (5, 1)]:
            inst = generate_linear(k, d, family, rng)
            for arm in range(k):
                handed.clear()
                inst.sample_reward(arm, rng)
                assert handed == [inst.means[arm]]
                assert inst.gaps()[arm] == inst.means.max() - handed[0]

    def test_one_dimensional_case(self):
        inst = generate_linear(5, 1, "gaussian", np.random.default_rng(4))
        assert inst.features.shape == (5, 1)
        assert np.all((inst.means >= 0.25) & (inst.means <= 0.75))

    def test_seed_determinism(self):
        a = generate_linear(6, 3, "beta", np.random.default_rng(11))
        b = generate_linear(6, 3, "beta", np.random.default_rng(11))
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.theta_star, b.theta_star)

    @pytest.mark.parametrize("k, d", [(5, 1), (12, 4), (50, 10)])
    def test_one_draw_per_instance(self, k, d):
        """The generator reads exactly one draw of each kind from the stream:
        ``k`` uniform means for d = 1, else ``k x (d-1)`` lognormal
        coordinates, then ``d-1`` uniform weights."""
        rng, direct = np.random.default_rng(k), np.random.default_rng(k)
        inst = generate_linear(k, d, "gaussian", rng)
        if d == 1:
            np.testing.assert_array_equal(inst.features[:, 0],
                                          direct.uniform(0.25, 0.75, size=k))
        else:
            np.testing.assert_array_equal(
                inst.features[:, :-1], -direct.lognormal(0.0, 1.0, size=(k, d - 1)))
            direct.uniform(0.0, 1.0, size=d - 1)
        assert rng.bit_generator.state == direct.bit_generator.state

    def test_dimension_ordering_enforced(self):
        with pytest.raises(ValueError):
            generate_linear(3, 5, "gaussian", np.random.default_rng(0))

    def test_basis_invariant_enforced_on_type(self):
        features = np.array([[1.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            LinearInstance(features=features, theta_star=np.array([0.5, 0.0]),
                           family="gaussian")


class TestCascadeExpectedClicks:
    def test_two_coin_example(self):
        inst = CascadeInstance(attractions=[0.5, 0.5], slate_size=2)
        assert inst.expected_clicks([0, 1]) == pytest.approx(0.75)

    def test_certain_item(self):
        inst = CascadeInstance(attractions=[1.0, 0.2, 0.3], slate_size=2)
        assert inst.expected_clicks([1, 0]) == pytest.approx(1.0)

    def test_no_attraction(self):
        inst = CascadeInstance(attractions=[0.0, 0.0, 0.0], slate_size=2)
        assert inst.expected_clicks([0, 2]) == 0.0

    def test_matches_enumeration_oracle(self):
        """Exhaustive enumeration of attraction patterns gives the same value."""
        rng = np.random.default_rng(12)
        w = rng.uniform(size=4)
        inst = CascadeInstance(attractions=w, slate_size=3)
        slate = [2, 0, 3]
        prob = 0.0
        for pattern in itertools.product([0, 1], repeat=3):
            p = math.prod(w[item] if hit else 1.0 - w[item]
                          for item, hit in zip(slate, pattern))
            if any(pattern):
                prob += p
        assert inst.expected_clicks(slate) == pytest.approx(prob)

    def test_invalid_slates_rejected(self):
        inst = CascadeInstance(attractions=[0.5, 0.5, 0.5], slate_size=2)
        with pytest.raises(ValueError):
            inst.expected_clicks([0, 0])
        with pytest.raises(ValueError):
            inst.expected_clicks([0, 5])
        with pytest.raises(ValueError):
            inst.expected_clicks([0])


class TestCascadeStep:
    def test_certain_first_position(self):
        inst = CascadeInstance(attractions=[1.0, 0.5], slate_size=2)
        rng = np.random.default_rng(0)
        assert all(inst.step([0, 1], rng) == 0 for _ in range(20))

    def test_no_attraction_never_clicks(self):
        inst = CascadeInstance(attractions=[0.0, 0.0], slate_size=2)
        rng = np.random.default_rng(0)
        assert all(inst.step([0, 1], rng) is None for _ in range(20))

    def test_click_rate_matches_expected_clicks(self):
        """Empirical click rate over 10^6 rounds within four standard errors."""
        inst = CascadeInstance(attractions=[0.5, 0.5], slate_size=2)
        rng = np.random.default_rng(13)
        n = 1_000_000
        clicks = sum(inst.step([0, 1], rng) is not None for _ in range(n))
        se = math.sqrt(0.75 * 0.25 / n)
        assert abs(clicks / n - 0.75) < 4 * se


class TestCascadeFiles:
    def test_round_trip(self, tmp_path):
        inst = generate_cascade(10, 5, np.random.default_rng(21))
        path = tmp_path / "query.txt"
        save_cascade_file(inst, path)
        loaded = load_cascade_file(path)
        np.testing.assert_array_equal(loaded.attractions, inst.attractions)
        assert loaded.slate_size == inst.slate_size

    def test_header_format(self, tmp_path):
        inst = generate_cascade(3, 2, np.random.default_rng(0))
        path = tmp_path / "query.txt"
        save_cascade_file(inst, path)
        assert path.read_text().splitlines()[0] == "L=3 K=2"

    @pytest.mark.parametrize("text", [
        "",
        "L=x K=2\n0\t0.5\n",
        "L=2 K=2\n0\t0.5\n",
        "L=2 K=2\n0\t0.5\n0\t0.4\n",
        "L=2 K=2\n0\t0.5\n5\t0.4\n",
        "L=2 K=2\n0\t0.5\n1\t1.7\n",
        "L=1 K=2\n0\t0.5\n",
        "L=2 K=1\n0\t0.5\nx\t0.5\n",
        "L=2 K=1\n0\t0.5\n1\tabc\n",
        "L=2 K=1 Q=9\n0\t0.5\n1\t0.4\n",
    ])
    def test_malformed_files_rejected(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            load_cascade_file(path)

    @pytest.mark.parametrize("text, problem", [
        ("L=2 K=1\n0\t0.5\nx\t0.5\n", "malformed record 'x\\t0.5'"),
        ("L=2 K=1\n0\t0.5\n1\tabc\n", "malformed record '1\\tabc'"),
        ("L=2 K=1 Q=9\n0\t0.5\n1\t0.4\n", "malformed header 'L=2 K=1 Q=9'"),
    ])
    def test_malformed_input_is_named(self, tmp_path, text, problem):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_cascade_file(path)
        assert str(info.value) == f"{path}: {problem}"
