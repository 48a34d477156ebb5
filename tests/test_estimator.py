import math
from pathlib import Path

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


def scalar_fits(state, sizes, times):
    """The scalar reference: ``advance`` then ``fit`` per sample, as fit_columns reports them.

    Returns the (count, alpha_hat, beta_hat) rows (NaN where the sizes do not
    vary), the state after the last sample absorbed, and the error that
    stopped the stream, or None.
    """
    rows = []
    for x, y in zip(sizes, times):
        try:
            next_state = estimator.advance(state, x, y)
        except ParameterError as exc:
            return rows, state, exc
        try:
            result = estimator.fit(next_state)
            rows.append((next_state.count, result.alpha_hat, result.beta_hat))
        except estimator.SumsOverflowedError as exc:
            return rows, state, exc
        except DegenerateDesignError:
            rows.append((next_state.count, math.nan, math.nan))
        state = next_state
    return rows, state, None


def column_rows(fits):
    return list(zip(fits.count.tolist(), fits.alpha_hat.tolist(), fits.beta_hat.tolist()))


def same_bits(a, b):
    """Equal floats bit for bit (so -0.0 differs from 0.0, and NaN equals NaN)."""
    return repr(a) == repr(b)


def assert_same_rows(fits, rows):
    got = column_rows(fits)
    assert len(got) == len(rows) and all(map(same_bits, got, rows))


def drifting_stream(rng, n, p_max=1e6):
    """Sizes in (0, p_max], times with a tenfold alpha step halfway and some negative."""
    x = rng.uniform(1.0, p_max, size=n)
    alpha = np.where(np.arange(n) < n // 2, 1e-4, 1e-3)
    return x, alpha + 1e-9 * x + rng.normal(0.0, 3e-4, size=n)


class TestFitColumns:
    def test_first_fit_at_first_distinct_size(self):
        samples = [(5.0, 1.0), (5.0, 1.1), (5.0, 1.2), (6.0, 1.3), (7.0, 1.4)]
        fits = estimator.fit_columns(estimator.start(10), *zip(*samples))
        assert fits.count.tolist() == [1, 2, 3, 4, 5]
        assert np.isnan(fits.alpha_hat[:3]).all() and np.isnan(fits.beta_hat[:3]).all()
        assert not np.isnan(fits.alpha_hat[3:]).any()
        last = estimator.fit(fits.state)
        assert (fits.alpha_hat[-1], fits.beta_hat[-1], fits.count[-1]) == last
        assert fits.fault is None

    def test_last_fit_equals_batch(self):
        rng = np.random.default_rng(4)
        x, y = make_stream(rng, 300, alpha_m=0.1, beta_m=0.1)
        fits = estimator.fit_columns(estimator.start(1e6), x, y)
        batch = estimator.batch_ls(zip(x, y))
        assert fits.count[-1] == fits.state.count == batch.k == 300
        assert fits.beta_hat[-1] == pytest.approx(batch.beta_hat, rel=1e-9)
        assert fits.alpha_hat[-1] == pytest.approx(batch.alpha_hat, rel=1e-9)

    @pytest.mark.parametrize("forgetting", [0.5, 0.9, 0.99])
    def test_forgetting_equals_weighted_batch_on_every_prefix(self, forgetting):
        rng = np.random.default_rng(8)
        x, y = make_stream(rng, 200, alpha_m=0.05, beta_m=0.05)
        fits = estimator.fit_columns(estimator.start(1e6, forgetting), x, y)
        assert fits.count.tolist() == list(range(1, 201))
        assert np.isnan(fits.alpha_hat[0])
        for n, alpha_hat, beta_hat in column_rows(fits)[1:]:
            alpha, beta = weighted_ls(x[:n], y[:n], forgetting)
            assert beta_hat == pytest.approx(beta, rel=1e-9)
            assert alpha_hat == pytest.approx(alpha, rel=1e-9)

    def test_all_equal_sizes_are_never_fitted(self):
        for samples in ([], [(5.0, 1.0)], [(5.0, 1.0), (5.0, 2.0), (5.0, 3.0)]):
            fits = estimator.fit_columns(estimator.start(10), [x for x, _ in samples],
                                         [y for _, y in samples])
            assert np.isnan(fits.alpha_hat).all() and fits.fault is None
            assert fits.state.count == len(samples)

    @pytest.mark.parametrize("head", [[(8.0, 2.0)], []], ids=["after-first-fit", "before"])
    def test_overflowed_sums_stop_the_columns(self, head):
        # Each 8e153-bit size squares to a finite 6.4e307; three of them
        # overflow s_xx, and no later sample can bring it back.
        samples = head + [(8e153, 3.0), (8e153, 4.0), (8e153, 5.0), (40.0, 4.0)]
        fits = estimator.fit_columns(estimator.start(1e154), *zip(*samples))
        with pytest.raises(DegenerateDesignError, match="running sums overflowed"):
            raise fits.fault
        # The second 8e153 size overflows w * s_xx, so the columns end before it.
        assert fits.state.count == len(head) + 1 == len(fits.count)
        assert math.isfinite(fits.state.s_xx)
        rows, end, _ = scalar_fits(estimator.start(1e154), *zip(*samples))
        assert_same_rows(fits, rows)
        assert fits.state == end
        overflowed = estimator.start(1e154)._replace(count=3, weight=3.0, s_x=2.4e154,
                                                     s_xx=math.inf)
        with pytest.raises(DegenerateDesignError, match="running sums overflowed"):
            estimator.fit(overflowed)

    def test_washed_out_fit_comes_as_nan(self):
        samples = [(10.0, 1.0), (1000.0, 2.0)] + [(500.0, 1.5)] * 100
        fits = estimator.fit_columns(estimator.start(1e4, 0.5), *zip(*samples))
        assert len(fits.count) == 102 and fits.fault is None
        assert not np.isnan(fits.alpha_hat[1]) and np.isnan(fits.alpha_hat[-1])


class TestFitColumnsOracle:
    """fit_columns against the scalar advance/fit loop, bit for bit."""

    N = 20_000

    @pytest.mark.parametrize("forgetting", [1.0, 0.99, 0.9, 0.5])
    def test_every_fit_and_the_end_state_equal_the_scalar_loop(self, forgetting):
        rng = np.random.default_rng(int(forgetting * 100))
        x, y = drifting_stream(rng, self.N)
        y[0] = -0.0  # a first time of -0.0: 0.0 + -0.0 is 0.0, a copied first term is not
        state = estimator.start(1e6, forgetting)
        rows, end, fault = scalar_fits(state, x.tolist(), y.tolist())
        fits = estimator.fit_columns(state, x, y)
        assert fault is None and fits.fault is None
        assert_same_rows(fits, rows)
        assert same_bits(tuple(fits.state), tuple(end))

    @pytest.mark.parametrize("forgetting", [1.0, 0.99, 0.9, 0.5])
    def test_pieces_with_a_carried_state_equal_one_call(self, forgetting):
        rng = np.random.default_rng(17 + int(forgetting * 100))
        x, y = drifting_stream(rng, self.N)
        state = estimator.start(1e6, forgetting)
        whole = estimator.fit_columns(state, x, y)
        cuts = [0, *sorted(rng.choice(np.arange(1, self.N), size=9, replace=False).tolist()),
                self.N]
        rows = []
        for lo, hi in zip(cuts, cuts[1:]):
            piece = estimator.fit_columns(state, x[lo:hi], y[lo:hi])
            rows += column_rows(piece)
            state = piece.state
        assert_same_rows(whole, rows)
        assert same_bits(tuple(state), tuple(whole.state))

    def test_first_time_negative_zero(self):
        for forgetting in (1.0, 0.9):
            state = estimator.start(10, forgetting)
            fits = estimator.fit_columns(state, [1.0, 2.0], [-0.0, 1.0])
            end = estimator.advance(estimator.advance(state, 1.0, -0.0), 2.0, 1.0)
            assert same_bits(tuple(fits.state), tuple(end))
            first = estimator.fit_columns(state, [1.0], [-0.0]).state
            assert repr(first.s_y) == repr(estimator.advance(state, 1.0, -0.0).s_y) == "0.0"

    def test_integer_sizes(self):
        rng = np.random.default_rng(21)
        sizes = rng.integers(1, 10**12, size=self.N)  # bits, below 2**53: exact as floats
        times = 1e-4 + 1e-12 * sizes + rng.normal(0.0, 1e-5, size=self.N)
        state = estimator.start(10**12, 0.99)
        rows, end, _ = scalar_fits(state, sizes.tolist(), times.tolist())
        fits = estimator.fit_columns(state, sizes, times)
        assert_same_rows(fits, rows)
        assert same_bits(tuple(fits.state), tuple(end))

    @pytest.mark.parametrize("forgetting", [1.0, 0.9])
    @pytest.mark.parametrize("fault", ["size_zero", "int_size_zero", "size_above_p_max",
                                       "time_nan", "time_inf", "overflow", "coefficients"])
    def test_a_fault_stops_at_the_same_sample(self, forgetting, fault):
        rng = np.random.default_rng(5)
        x, y = drifting_stream(rng, 3000)
        at = 1234
        if fault == "size_zero":
            x[at] = 0.0
        elif fault == "int_size_zero":  # the message names the caller's 0, not 0.0
            x = x.astype(np.int64)
            x[at] = 0
        elif fault == "size_above_p_max":
            x[at] = 2e6
        elif fault == "time_nan":
            y[at] = math.nan
        elif fault == "time_inf":
            y[at] = -math.inf
        elif fault == "overflow":
            y[at] = 1e305  # its size times this time overflows s_xy
        else:  # every sum stays finite; w * s_xy, and so beta, does not
            x[at], y[at] = 1.0, -1.7e308
        state = estimator.start(1e6, forgetting)
        rows, end, expected = scalar_fits(state, x.tolist(), y.tolist())
        fits = estimator.fit_columns(state, x, y)
        assert expected is not None
        assert type(fits.fault) is type(expected) and str(fits.fault) == str(expected)
        if fault == "int_size_zero":
            assert str(fits.fault).startswith("message size 0 outside")
        assert len(rows) == len(fits.count) == fits.state.count
        assert_same_rows(fits, rows)
        assert same_bits(tuple(fits.state), tuple(end))

    def test_washout_and_never_varied_are_nan_where_fit_raises(self):
        for forgetting, samples in (
                (0.5, [(10.0, 1.0), (1000.0, 2.0)] + [(500.0, 1.5)] * 2000),
                (0.9, [(7.0, 1.0)] * 3000)):
            sizes, times = zip(*samples)
            state = estimator.start(1e4, forgetting)
            rows, end, fault = scalar_fits(state, sizes, times)
            fits = estimator.fit_columns(state, sizes, times)
            assert fault is None and fits.fault is None
            assert_same_rows(fits, rows)
            assert same_bits(tuple(fits.state), tuple(end))
            assert np.isnan(fits.alpha_hat[-1])


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
        assert samples.tolist() == [[8.0, 5.0], [16.0, 7.0]]

    def test_extra_rep_column_tolerated(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("size_bytes,time_seconds,rep\n4,0.5,0\n8,0.75,1\n")
        assert estimator.read_samples_csv(path).tolist() == [[32.0, 0.5], [64.0, 0.75]]

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
    # Every product is finite; w * s_xy - s_x * s_y is not, so beta = inf.
    [(1.0, -1.1666666666666667e308), (2.0, 0.8333333333333334e308)],
], ids=["s_xy", "s_xx", "coefficients"])
def test_overflowed_sums_raise_in_fit_and_fit_columns(samples):
    state = estimator.start(1e300)
    for x, y in samples:
        state = estimator.advance(state, x, y)
    with pytest.raises(DegenerateDesignError, match="running sums overflowed"):
        estimator.fit(state)
    fits = estimator.fit_columns(estimator.start(1e300), *zip(*samples))
    with pytest.raises(DegenerateDesignError, match="running sums overflowed"):
        raise fits.fault
    assert len(fits.count) == len(samples) - 1


@pytest.mark.parametrize("text", [estimator.SIZES_NEVER_VARIED, estimator.SIZES_DO_NOT_VARY,
                                  estimator.SUMS_OVERFLOWED])
def test_each_refusal_text_is_written_once(text):
    package = Path(estimator.__file__).parent
    assert sum(path.read_text().count(text) for path in package.glob("*.py")) == 1
