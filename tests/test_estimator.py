import math

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


def two_samples(x1, y1, x2, y2, p_max, forgetting=1.0):
    """An estimator that has absorbed (x1, y1) and then (x2, y2)."""
    state = estimator.start(p_max, forgetting)
    return estimator.advance(estimator.advance(state, x1, y1), x2, y2)


def weighted_ls(x, y, forgetting):
    """Exponentially weighted least squares: weight forgetting**(n - i) on sample i."""
    w = forgetting ** np.arange(len(x) - 1, -1, -1, dtype=np.float64)
    x_mean, y_mean = (w @ x) / w.sum(), (w @ y) / w.sum()
    beta = (w * (x - x_mean)) @ (y - y_mean) / ((w * (x - x_mean)) @ (x - x_mean))
    return y_mean - beta * x_mean, beta


class TestStart:
    def test_empty_state(self):
        state = estimator.start(p_max=10)
        assert (state.count, state.weight, state.s_x, state.s_y, state.s_xy, state.s_xx) == (
            0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert state.forgetting == 1.0

    def test_arguments_validated(self):
        with pytest.raises(ParameterError):
            estimator.start(p_max=0)
        for forgetting in (0.0, 1.5):
            with pytest.raises(ParameterError):
                estimator.start(p_max=10, forgetting=forgetting)

    def test_fit_degenerate_until_sizes_differ(self):
        state = estimator.start(p_max=10)
        for x, y in ((5, 1.0), (5, 2.0), (6, 3.0)):
            with pytest.raises(DegenerateDesignError):
                estimator.fit(state)  # no sample, one sample, two equal sizes
            state = estimator.advance(state, x, y)
        assert estimator.fit(state).k == 3

    def test_overflowed_sums_are_degenerate(self):
        # s_xx and s_x**2 overflow to inf, so the design determinant is NaN.
        state = estimator.start(p_max=float("inf"))
        for x, y in ((1e200, 1.0), (1e300, 2.0)):
            state = estimator.advance(state, x, y)
        with pytest.raises(DegenerateDesignError):
            estimator.fit(state)


class TestInit:
    def test_example_sums(self):
        state = two_samples(1, 5, 2, 7, p_max=10)
        assert (state.s_x, state.s_y, state.s_xy, state.s_xx) == (3, 12, 19, 5)
        assert state.count == 2 and state.weight == 2.0

    def test_two_points_determine_the_line(self):
        state = two_samples(1, 5, 2, 7, p_max=10)
        result = estimator.fit(state)
        assert result.beta_hat == 2.0
        assert result.alpha_hat == 3.0
        assert result.k == 2

    def test_equal_sizes_rejected(self):
        with pytest.raises(DegenerateDesignError):
            estimator.fit(two_samples(5, 1.0, 5, 2.0, p_max=10))

    def test_size_bounds(self):
        with pytest.raises(ParameterError):
            two_samples(0, 1.0, 2, 2.0, p_max=10)
        with pytest.raises(ParameterError):
            two_samples(1, 1.0, 20, 2.0, p_max=10)
        with pytest.raises(ParameterError):
            two_samples(1, 1.0, 2, 2.0, p_max=10, forgetting=0.0)


class TestUpdate:
    def test_noiseless_line_recovered(self):
        state = two_samples(10, 0.5 * 10 + 10, 20, 0.5 * 20 + 10, p_max=100)
        state, result = estimator.update(state, 30, 0.5 * 30 + 10)
        assert result.beta_hat == pytest.approx(0.5, abs=1e-9)
        assert result.alpha_hat == pytest.approx(10.0, abs=1e-9)

    def test_online_equals_batch_on_every_prefix(self):
        rng = np.random.default_rng(42)
        x, y = make_stream(rng, 200, alpha_m=0.05, beta_m=0.05)
        state = two_samples(x[0], y[0], x[1], y[1], p_max=1e6)
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
        state = two_samples(x[0], y[0], x[1], y[1], p_max=1e6)
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
            state = two_samples(sizes[0], y[0], sizes[1], y[1], p_max=1e6)
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
            state = two_samples(x[order[0]], y[order[0]], x[order[1]], y[order[1]], p_max=1e6)
            for i in order[2:]:
                state = estimator.advance(state, x[i], y[i])
            return state
        base = ingest(list(range(40)))
        shuffled = ingest(list(rng.permutation(40)))
        for field in ("s_x", "s_y", "s_xy", "s_xx"):
            assert getattr(shuffled, field) == pytest.approx(getattr(base, field), rel=1e-12)

    def test_size_out_of_bounds(self):
        state = two_samples(1, 1.0, 2, 2.0, p_max=10)
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
        plain = two_samples(x[0], y[0], x[1], y[1], p_max=1e6)
        with_lam = two_samples(x[0], y[0], x[1], y[1], p_max=1e6, forgetting=1.0)
        for i in range(2, 30):
            plain, fit_plain = estimator.update(plain, x[i], y[i])
            with_lam, fit_lam = estimator.update(with_lam, x[i], y[i])
            assert fit_plain == fit_lam

    def test_tracks_parameter_jump(self):
        rng = np.random.default_rng(3)
        alpha0, alpha1, beta = 0.01, 1.0, 1e-6
        sizes = rng.uniform(1.0, 1e6, size=200)
        state = two_samples(sizes[0], alpha0 + beta * sizes[0],
                               sizes[1], alpha0 + beta * sizes[1],
                               p_max=1e6, forgetting=0.9)
        for i in range(2, 100):
            state, result = estimator.update(state, sizes[i], alpha0 + beta * sizes[i])
        assert result.alpha_hat == pytest.approx(alpha0, rel=1e-6)
        for i in range(100, 200):
            state, result = estimator.update(state, sizes[i], alpha1 + beta * sizes[i])
        assert result.alpha_hat == pytest.approx(alpha1, rel=1e-3)

    def test_constant_sizes_eventually_degenerate(self):
        state = two_samples(10.0, 1.0, 1000.0, 2.0, p_max=1e6, forgetting=0.5)
        with pytest.raises(DegenerateDesignError):
            for _ in range(200):
                state, _ = estimator.update(state, 500.0, 1.5)


class TestRunningFits:
    def test_first_fit_at_first_distinct_size(self):
        samples = [(5.0, 1.0), (5.0, 1.1), (5.0, 1.2), (6.0, 1.3), (7.0, 1.4)]
        fits = list(estimator.running_fits(samples, p_max=10))
        assert [state.count for state, _ in fits] == [4, 5]
        assert [result.k for _, result in fits] == [4, 5]
        assert fits[-1][1] == estimator.fit(fits[-1][0])

    def test_last_fit_equals_batch(self):
        rng = np.random.default_rng(4)
        x, y = make_stream(rng, 300, alpha_m=0.1, beta_m=0.1)
        *_, (state, last) = estimator.running_fits(zip(x, y), p_max=1e6)
        batch = estimator.batch_ls(zip(x, y))
        assert last.k == state.count == batch.k == 300
        assert last.beta_hat == pytest.approx(batch.beta_hat, rel=1e-9)
        assert last.alpha_hat == pytest.approx(batch.alpha_hat, rel=1e-9)

    @pytest.mark.parametrize("forgetting", [0.5, 0.9, 0.99])
    def test_forgetting_equals_weighted_batch_on_every_prefix(self, forgetting):
        rng = np.random.default_rng(8)
        x, y = make_stream(rng, 200, alpha_m=0.05, beta_m=0.05)
        fits = estimator.running_fits(zip(x, y), p_max=1e6, forgetting=forgetting)
        for n, (state, online) in enumerate(fits, start=2):
            alpha, beta = weighted_ls(x[:n], y[:n], forgetting)
            assert online.k == state.count == n
            assert online.beta_hat == pytest.approx(beta, rel=1e-9)
            assert online.alpha_hat == pytest.approx(alpha, rel=1e-9)

    def test_all_equal_sizes_raise_at_the_end(self):
        for samples in ([], [(5.0, 1.0)], [(5.0, 1.0), (5.0, 2.0), (5.0, 3.0)]):
            with pytest.raises(DegenerateDesignError, match="all message sizes are equal"):
                list(estimator.running_fits(samples, p_max=10))

    @pytest.mark.parametrize("head", [[(8.0, 2.0)], []], ids=["after-first-fit", "before"])
    def test_overflowed_sums_raise_at_once(self, head):
        # Each 8e153-bit size squares to a finite 6.4e307; three of them
        # overflow s_xx, and no later sample can bring it back.
        samples = head + [(8e153, 3.0), (8e153, 4.0), (8e153, 5.0), (40.0, 4.0)]
        fits = estimator.running_fits(iter(samples), p_max=1e154)
        with pytest.raises(DegenerateDesignError, match="running sums overflowed"):
            for state, _ in fits:
                assert math.isfinite(state.s_xx)
        overflowed = estimator.start(1e154)._replace(count=3, weight=3.0, s_x=2.4e154,
                                                     s_xx=math.inf)
        with pytest.raises(DegenerateDesignError, match="running sums overflowed"):
            estimator.fit(overflowed)

    def test_washed_out_fit_comes_as_none(self):
        samples = [(10.0, 1.0), (1000.0, 2.0)] + [(500.0, 1.5)] * 100
        fits = list(estimator.running_fits(samples, p_max=1e4, forgetting=0.5))
        assert len(fits) == 101
        assert fits[0][1] is not None and fits[-1][1] is None


class TestProposeNextSize:
    def test_uniform_in_range(self):
        state = two_samples(1, 1.0, 2, 2.0, p_max=123.0)
        rng = np.random.default_rng(0)
        draws = [estimator.propose_next_size(state.count, state.p_max, "uniform", rng)
                 for _ in range(500)]
        assert all(0 < s <= 123.0 for s in draws)

    def test_grid_cycles_through_16_sizes(self):
        state = two_samples(1, 1.0, 2, 2.0, p_max=1e6)
        seen = []
        for _ in range(32):
            size = estimator.propose_next_size(state.count, state.p_max, "grid")
            assert 0 < size <= state.p_max
            seen.append(size)
            state = estimator.advance(state, size, 1.0)
        assert len(set(seen[:16])) == 16
        assert seen[16:] == seen[:16]
        assert max(seen) == state.p_max
        assert min(seen) == pytest.approx(state.p_max / estimator.GRID_SPAN)

    def test_two_distinct_proposals_make_fit_well_posed(self):
        state = two_samples(1, 1.0, 2, 2.0, p_max=1e6)
        rng = np.random.default_rng(1)
        for _ in range(2):
            size = estimator.propose_next_size(state.count, state.p_max, "uniform", rng)
            state = estimator.advance(state, size, 1.0)
        assert state.weight * state.s_xx - state.s_x**2 > 0

    def test_unknown_policy(self):
        state = two_samples(1, 1.0, 2, 2.0, p_max=10)
        with pytest.raises(ParameterError):
            estimator.propose_next_size(state.count, state.p_max, "sobol")


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


@pytest.mark.parametrize("samples", [
    [(8.0, 1e307), (16.0, 1e307)],  # s_xy overflows, s_xx does not
    [(8.0, 1.0), (1e154, 3.0), (1e154, 4.0)],  # s_xx overflows
], ids=["s_xy", "s_xx"])
def test_overflowed_sums_raise_in_fit_and_running_fits(samples):
    state = estimator.start(1e300)
    for x, y in samples:
        state = estimator.advance(state, x, y)
    with pytest.raises(DegenerateDesignError, match="running sums overflowed"):
        estimator.fit(state)
    with pytest.raises(DegenerateDesignError, match="running sums overflowed"):
        list(estimator.running_fits(samples, 1e300))
