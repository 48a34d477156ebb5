import numpy as np
import pytest

from gradcomm import estimator
from gradcomm.errors import DegenerateDesignError, ParameterError


def make_stream(rng, n_points, alpha=2.0, beta=3e-6, alpha_m=0.0, beta_m=0.0, p_max=1e6):
    """Noisy affine samples: per-message coefficient jitter, sizes in (0, p_max]."""
    x = rng.uniform(1.0, p_max, size=n_points)
    alphas = alpha + rng.normal(0.0, alpha_m * alpha, size=n_points)
    betas = beta + rng.normal(0.0, beta_m * beta, size=n_points)
    return x, alphas + betas * x


class TestInit:
    def test_example_sums(self):
        state = estimator.init(1, 5, 2, 7, p_max=10)
        assert (state.s_x, state.s_y, state.s_xy, state.s_xx) == (3, 12, 19, 5)
        assert state.count == 2 and state.weight == 2.0

    def test_two_points_determine_the_line(self):
        state = estimator.init(1, 5, 2, 7, p_max=10)
        result = estimator.fit(state)
        assert result.beta_hat == 2.0
        assert result.alpha_hat == 3.0
        assert result.k == 2

    def test_equal_sizes_rejected(self):
        with pytest.raises(DegenerateDesignError):
            estimator.init(5, 1.0, 5, 2.0, p_max=10)

    def test_size_bounds(self):
        with pytest.raises(ParameterError):
            estimator.init(0, 1.0, 2, 2.0, p_max=10)
        with pytest.raises(ParameterError):
            estimator.init(1, 1.0, 20, 2.0, p_max=10)
        with pytest.raises(ParameterError):
            estimator.init(1, 1.0, 2, 2.0, p_max=10, forgetting=0.0)


class TestUpdate:
    def test_noiseless_line_recovered(self):
        state = estimator.init(10, 0.5 * 10 + 10, 20, 0.5 * 20 + 10, p_max=100)
        state, result = estimator.update(state, 30, 0.5 * 30 + 10)
        assert result.beta_hat == pytest.approx(0.5, abs=1e-9)
        assert result.alpha_hat == pytest.approx(10.0, abs=1e-9)

    def test_online_equals_batch_on_every_prefix(self):
        rng = np.random.default_rng(42)
        x, y = make_stream(rng, 200, alpha_m=0.05, beta_m=0.05)
        state = estimator.init(x[0], y[0], x[1], y[1], p_max=1e6)
        for i in range(2, 200):
            state, online = estimator.update(state, x[i], y[i])
            batch = estimator.batch_ls(zip(x[: i + 1], y[: i + 1]))
            assert online.beta_hat == pytest.approx(batch.beta_hat, rel=1e-9)
            assert online.alpha_hat == pytest.approx(batch.alpha_hat, rel=1e-9, abs=1e-9)
            assert online.k == batch.k == i + 1

    def test_exact_recovery_zero_noise(self):
        rng = np.random.default_rng(5)
        alpha, beta = 0.125, 4.25e-7
        x, y = make_stream(rng, 50, alpha=alpha, beta=beta)
        state = estimator.init(x[0], y[0], x[1], y[1], p_max=1e6)
        for i in range(2, 50):
            state, result = estimator.update(state, x[i], y[i])
            assert result.beta_hat == pytest.approx(beta, rel=1e-9)
            assert result.alpha_hat == pytest.approx(alpha, rel=1e-9)

    def test_unbiased_under_noise(self):
        rng = np.random.default_rng(11)
        alpha, beta = 2.0, 3e-6
        sizes = rng.uniform(1.0, 1e6, size=30)  # fixed design across replications
        reps = 1000
        alpha_hats = np.empty(reps)
        beta_hats = np.empty(reps)
        for rep in range(reps):
            noise_a = alpha + rng.normal(0, 0.1 * alpha, size=30)
            noise_b = beta + rng.normal(0, 0.1 * beta, size=30)
            y = noise_a + noise_b * sizes
            state = estimator.init(sizes[0], y[0], sizes[1], y[1], p_max=1e6)
            for i in range(2, 30):
                state, result = estimator.update(state, sizes[i], y[i])
            alpha_hats[rep], beta_hats[rep] = result.alpha_hat, result.beta_hat
        for hats, truth in ((alpha_hats, alpha), (beta_hats, beta)):
            stderr = hats.std(ddof=1) / np.sqrt(reps)
            assert abs(hats.mean() - truth) < 3 * stderr

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        x, y = make_stream(rng, 40, alpha_m=0.1, beta_m=0.1)
        def ingest(order):
            state = estimator.init(x[order[0]], y[order[0]], x[order[1]], y[order[1]], p_max=1e6)
            for i in order[2:]:
                state = estimator.advance(state, x[i], y[i])
            return state
        base = ingest(list(range(40)))
        shuffled = ingest(list(rng.permutation(40)))
        for field in ("s_x", "s_y", "s_xy", "s_xx"):
            assert getattr(shuffled, field) == pytest.approx(getattr(base, field), rel=1e-12)

    def test_size_out_of_bounds(self):
        state = estimator.init(1, 1.0, 2, 2.0, p_max=10)
        with pytest.raises(ParameterError):
            estimator.update(state, 0, 1.0)
        with pytest.raises(ParameterError):
            estimator.update(state, 11, 1.0)


class TestBatch:
    def test_two_points(self):
        result = estimator.batch_ls([(1, 5), (2, 7)])
        assert (result.beta_hat, result.alpha_hat) == (2.0, 3.0)

    def test_collinear_zero_residuals(self):
        x = np.array([1.0, 4.0, 9.0, 16.0])
        y = 2.5 * x + 0.75
        result = estimator.batch_ls(zip(x, y))
        residuals = y - (result.alpha_hat + result.beta_hat * x)
        np.testing.assert_allclose(residuals, 0.0, atol=1e-12)

    def test_all_equal_sizes_degenerate(self):
        with pytest.raises(DegenerateDesignError):
            estimator.batch_ls([(5, 1.0), (5, 2.0), (5, 3.0)])
        with pytest.raises(DegenerateDesignError):
            estimator.batch_ls([(5, 1.0)])


class TestForgetting:
    def test_lambda_one_matches_plain_recursion(self):
        rng = np.random.default_rng(2)
        x, y = make_stream(rng, 30, alpha_m=0.1, beta_m=0.1)
        plain = estimator.init(x[0], y[0], x[1], y[1], p_max=1e6)
        with_lam = estimator.init(x[0], y[0], x[1], y[1], p_max=1e6, forgetting=1.0)
        for i in range(2, 30):
            plain, fit_plain = estimator.update(plain, x[i], y[i])
            with_lam, fit_lam = estimator.update(with_lam, x[i], y[i])
            assert fit_plain == fit_lam

    def test_tracks_parameter_jump(self):
        rng = np.random.default_rng(3)
        alpha0, alpha1, beta = 0.01, 1.0, 1e-6
        sizes = rng.uniform(1.0, 1e6, size=200)
        state = estimator.init(sizes[0], alpha0 + beta * sizes[0],
                               sizes[1], alpha0 + beta * sizes[1],
                               p_max=1e6, forgetting=0.9)
        for i in range(2, 100):
            state, result = estimator.update(state, sizes[i], alpha0 + beta * sizes[i])
        assert result.alpha_hat == pytest.approx(alpha0, rel=1e-6)
        for i in range(100, 200):
            state, result = estimator.update(state, sizes[i], alpha1 + beta * sizes[i])
        assert result.alpha_hat == pytest.approx(alpha1, rel=1e-3)

    def test_constant_sizes_eventually_degenerate(self):
        state = estimator.init(10.0, 1.0, 1000.0, 2.0, p_max=1e6, forgetting=0.5)
        with pytest.raises(DegenerateDesignError):
            for _ in range(200):
                state, _ = estimator.update(state, 500.0, 1.5)


class TestProposeNextSize:
    def test_uniform_in_range(self):
        state = estimator.init(1, 1.0, 2, 2.0, p_max=123.0)
        rng = np.random.default_rng(0)
        draws = [estimator.propose_next_size(state, "uniform", rng) for _ in range(500)]
        assert all(0 < s <= 123.0 for s in draws)

    def test_grid_cycles_through_16_sizes(self):
        state = estimator.init(1, 1.0, 2, 2.0, p_max=1e6)
        seen = []
        for _ in range(32):
            size = estimator.propose_next_size(state, "grid")
            assert 0 < size <= state.p_max
            seen.append(size)
            state = estimator.advance(state, size, 1.0)
        assert len(set(seen[:16])) == 16
        assert seen[16:] == seen[:16]
        assert max(seen) == state.p_max
        assert min(seen) == pytest.approx(state.p_max / estimator.GRID_SPAN)

    def test_two_distinct_proposals_make_fit_well_posed(self):
        state = estimator.init(1, 1.0, 2, 2.0, p_max=1e6)
        rng = np.random.default_rng(1)
        for _ in range(2):
            size = estimator.propose_next_size(state, "uniform", rng)
            state = estimator.advance(state, size, 1.0)
        assert state.weight * state.s_xx - state.s_x**2 > 0

    def test_unknown_policy(self):
        state = estimator.init(1, 1.0, 2, 2.0, p_max=10)
        with pytest.raises(ParameterError):
            estimator.propose_next_size(state, "sobol")


class TestCsv:
    def test_roundtrip_with_byte_conversion(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("size_bytes,time_seconds\n1,5\n2,7\n")
        samples = estimator.read_samples_csv(path)
        assert samples == [(8.0, 5.0), (16.0, 7.0)]

    def test_extra_rep_column_tolerated(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("size_bytes,time_seconds,rep\n4,0.5,0\n8,0.75,1\n")
        assert estimator.read_samples_csv(path) == [(32.0, 0.5), (64.0, 0.75)]

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("bytes,seconds\n1,2\n")
        with pytest.raises(ParameterError):
            estimator.read_samples_csv(path)

    def test_non_numeric_cell_names_the_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("size_bytes,time_seconds\n1,5\n2,fast\n")
        with pytest.raises(ParameterError, match="bad.csv, line 3"):
            estimator.read_samples_csv(path)
