import io
import math

import numpy as np
import pytest

from gradcomm import estimator
from gradcomm.commodel import (
    MIN_TIME_S,
    Region,
    SpeedupRow,
    TimeModelParams,
    classify_region,
    eta,
    expected_time,
    round_times,
    sample_time,
    transition_report,
)
from gradcomm.compression import BATCH_VALUES
from gradcomm.csvio import write_csv
from gradcomm.errors import DegenerateModelError, ParameterError


class TestTimeModelParams:
    def test_rejects_all_zero(self):
        with pytest.raises(DegenerateModelError):
            TimeModelParams(0.0, 0.0)

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            TimeModelParams(-1.0, 1.0)
        with pytest.raises(ParameterError):
            TimeModelParams(1.0, 1.0, alpha_m=-0.1)

    def test_noise_scales(self):
        params = TimeModelParams(2.0, 0.5, alpha_m=0.1, beta_m=0.2)
        assert params.sigma_alpha == pytest.approx(0.2)
        assert params.sigma_beta == pytest.approx(0.1)


class TestExpectedTime:
    def test_pure_bandwidth(self):
        assert expected_time(TimeModelParams(0.0, 2e-9), 1e9) == pytest.approx(2.0)

    def test_pure_latency(self):
        params = TimeModelParams(1e-3, 0.0)
        for s in (0, 1, 1e12):
            assert expected_time(params, s) == pytest.approx(1e-3)

    def test_affine(self):
        assert expected_time(TimeModelParams(1.0, 1.0), 100) == 101.0

    def test_negative_size_rejected(self):
        with pytest.raises(ParameterError):
            expected_time(TimeModelParams(1.0, 1.0), -1)


class TestSampleTime:
    def test_zero_noise_equals_expected(self):
        params = TimeModelParams(0.25, 3e-9)
        rng = np.random.default_rng(0)
        for s in (0, 10, 1e6):
            assert sample_time(params, s, rng) == expected_time(params, s)

    def test_clamped_below(self):
        # alpha noise dominates and frequently drives the raw draw negative
        params = TimeModelParams(1e-9, 0.0, alpha_m=1e6)
        rng = np.random.default_rng(1)
        draws = [sample_time(params, 0, rng) for _ in range(200)]
        assert min(draws) == MIN_TIME_S

    @pytest.mark.parametrize("noise", [(0.1, 0.3), (0.0, 0.0), (0.5, 0.0)])
    def test_array_call_equals_scalar_calls(self, noise):
        params = TimeModelParams(1e-3, 2e-9, *noise)
        sizes = [0, 1, 512, 8192, 10**9, 123_456_789]
        one, each = np.random.default_rng(17), np.random.default_rng(17)
        times = sample_time(params, np.array(sizes), one)
        expected = np.array([sample_time(params, s, each) for s in sizes])
        assert times.tobytes() == expected.tobytes()
        # Same draws in the same order: the generators end in the same state.
        assert one.bit_generator.state == each.bit_generator.state
        # round_times calls once per block of whole rounds: with n = 5000 a
        # block is 13 rounds, so 30 rounds take blocks of 13, 13 and 4.
        down, up, n, rounds = 32_000, 640, 5000, 30
        assert BATCH_VALUES // (n + 1) == 13
        got = list(round_times(params, down, up, n, rounds, one))
        want = []
        for _ in range(rounds):
            t_down, *t_up = sample_time(params, [down] + [up] * n, each).tolist()
            want.append(t_down + max(t_up))
        assert len(got) == rounds and got == want
        assert one.bit_generator.state == each.bit_generator.state
        if noise == (0.0, 0.0):
            assert got == [expected_time(params, down) + expected_time(params, up)] * rounds
        assert type(sample_time(params, 64, one)) is float

    def test_negative_size_in_array_rejected(self):
        with pytest.raises(ParameterError):
            sample_time(TimeModelParams(1.0, 1.0), np.array([1.0, -1.0]))

    def test_monte_carlo_mean_and_variance(self):
        params = TimeModelParams(1.0, 2e-6, alpha_m=0.1, beta_m=0.05)
        s = 1e6
        rng = np.random.default_rng(7)
        draws = np.array([sample_time(params, s, rng) for _ in range(100_000)])
        true_mean = expected_time(params, s)
        true_var = params.sigma_alpha**2 + (s * params.sigma_beta) ** 2
        stderr = np.sqrt(true_var / draws.size)
        assert abs(draws.mean() - true_mean) < 3 * stderr
        assert abs(draws.var() - true_var) < 0.05 * true_var


class TestEta:
    def test_alpha_zero_gives_omega_exactly(self):
        params = TimeModelParams(0.0, 3.7e-9)
        for omega in (1.0, 2.5, 1e6):
            assert eta(params, 1e7, omega) == omega

    def test_beta_zero_gives_one(self):
        assert eta(TimeModelParams(0.5, 0.0), 1e9, 1e6) == 1.0

    def test_direct_evaluation(self):
        assert eta(TimeModelParams(1.0, 1.0), 100, 100) == pytest.approx(50.5)

    def test_bounds_random_draws(self):
        rng = np.random.default_rng(12)
        for _ in range(2000):
            alpha = float(rng.uniform(1e-6, 1.0))
            beta = float(rng.uniform(1e-12, 1e-3))
            s = float(rng.uniform(1.0, 1e9))
            omega = float(rng.uniform(1.0, 1e6))
            value = eta(TimeModelParams(alpha, beta), s, omega)
            assert 1.0 - 1e-12 <= value
            assert value <= min(omega, 1.0 + beta * s / alpha) * (1 + 1e-12)

    def test_monotone_in_alpha_and_omega(self):
        s, omega, beta = 1e6, 50.0, 1e-8
        values = [eta(TimeModelParams(a, beta), s, omega) for a in np.linspace(1e-6, 1.0, 30)]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
        alpha = 1e-3
        values = [eta(TimeModelParams(alpha, beta), s, w) for w in np.linspace(1, 1e4, 30)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_invalid_inputs(self):
        params = TimeModelParams(1.0, 1.0)
        with pytest.raises(ParameterError):
            eta(params, 0.0, 2.0)
        with pytest.raises(ParameterError):
            eta(params, 10.0, 0.5)


class TestClassifyRegion:
    def test_examples(self):
        params = TimeModelParams(1e-3, 1e-9)
        assert classify_region(params, 1e3) is Region.AREA1_ALPHA_DOMINATED
        # beta*s == alpha exactly sits in the mixed region
        assert classify_region(params, 1e6) is Region.AREA2_MIXED
        assert classify_region(TimeModelParams(0.0, 1e-9), 10.0) is Region.AREA3_BETA_DOMINATED

    def test_threshold_parameter(self):
        # smaller rho widens the dominated regions: beta*s = 0.15*alpha is
        # mixed at rho=10 but alpha-dominated at rho=5
        params = TimeModelParams(1.0, 1.0)
        assert classify_region(params, 0.15, rho=10) is Region.AREA2_MIXED
        assert classify_region(params, 0.15, rho=5) is Region.AREA1_ALPHA_DOMINATED
        with pytest.raises(ParameterError):
            classify_region(params, 1.0, rho=1.0)

    def test_monotone_in_size(self):
        rng = np.random.default_rng(3)
        order = {
            Region.AREA1_ALPHA_DOMINATED: 1,
            Region.AREA2_MIXED: 2,
            Region.AREA3_BETA_DOMINATED: 3,
        }
        for _ in range(50):
            params = TimeModelParams(float(rng.uniform(0, 1)), float(rng.uniform(1e-12, 1e-3)))
            if params.alpha_const + params.beta_const == 0:
                continue
            sizes = np.sort(rng.uniform(0, 1e12, size=20))
            labels = [order[classify_region(params, s)] for s in sizes]
            assert all(a <= b for a, b in zip(labels, labels[1:]))


@pytest.mark.parametrize("region", list(Region))
def test_region_is_its_value_as_a_str(region):
    # csvio writes each field by "{}", so a Region must format as its value.
    assert isinstance(region, str) and region == region.value
    assert "{}".format(region) == f"{region}" == str(region) == region.value
    assert Region(region.value) is region


class TestReports:
    def test_omega_one_is_unity_speedup(self):
        params = TimeModelParams(1e-3, 1e-9)
        report = transition_report(params, 1e6, [1.0])
        assert report[0].speedup == 1.0
        assert report[0].compressed_bits == 1e6

    def test_deep_area3_transition_keeps_most_of_omega(self):
        # beta*s >= 100*alpha at both endpoints implies speedup >= 0.95*omega
        params = TimeModelParams(1e-6, 1e-3)
        report = transition_report(params, 1e6, [2.0, 10.0, 100.0])
        for row in report:
            assert row.region_from is Region.AREA3_BETA_DOMINATED
            assert row.region_to is Region.AREA3_BETA_DOMINATED
            assert row.speedup >= 0.95 * row.omega

    def test_plateau_at_full_latency_ratio(self):
        params = TimeModelParams(1e-2, 1e-9)
        s = 1e9
        plateau = expected_time(params, s) / params.alpha_const
        omega = 1e4 * params.beta_const * s / params.alpha_const
        report = transition_report(params, s, [omega, 10 * omega])
        for row in report:
            assert row.region_to is Region.AREA1_ALPHA_DOMINATED
            assert abs(row.speedup - plateau) <= 1e-3 * plateau

    def test_curve_alpha_zero_is_identity(self):
        params = TimeModelParams(0.0, 1e-9)
        grid = np.geomspace(1, 1e6, 25)
        report = transition_report(params, 1e9, grid)
        for row in report:
            assert row.speedup == row.omega

    def test_curve_monotone_and_bounded(self):
        params = TimeModelParams(1e-3, 1e-9)
        s = 1e8
        report = transition_report(params, s, np.geomspace(1, 1e8, 40))
        speeds = [row.speedup for row in report]
        assert all(a <= b + 1e-12 for a, b in zip(speeds, speeds[1:]))
        assert speeds[-1] <= 1 + params.beta_const * s / params.alpha_const

    def test_csv_header_and_roundtrip(self):
        params = TimeModelParams(1e-3, 1e-9)
        report = transition_report(params, 1e6, [1.0, 10.0, 100.0])
        buf = io.StringIO()
        write_csv(buf, ",".join(SpeedupRow._fields), report)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "omega,compressed_bits,region_from,region_to,expected_time_s,speedup"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[0]) == 1.0
        assert first[2].startswith("area")


MODEL = TimeModelParams(1e-3, 1e-8)
NON_FINITE = (math.nan, math.inf)

# Each check as a call of the one value under test, with the values it refuses;
# 8.0 is valid at every site.
FINITE_SITES = {
    "expected_time": (lambda v: expected_time(MODEL, v), NON_FINITE),
    "sample_time": (lambda v: sample_time(MODEL, v, 0), NON_FINITE),
    "sample_time.array": (lambda v: sample_time(MODEL, [8.0, v], 0), NON_FINITE),
    "eta": (lambda v: eta(MODEL, v, 2.0), NON_FINITE),
    "classify_region": (lambda v: classify_region(MODEL, v), NON_FINITE),
    "transition_report": (lambda v: transition_report(MODEL, v, [1.0, 2.0]), NON_FINITE),
    "estimator.start": (estimator.start, (math.nan,)),  # p_max = inf stays accepted
    "estimator.advance": (lambda v: estimator.advance(estimator.start(16.0), 8.0, v),
                          (math.nan, math.inf, -math.inf)),
}


@pytest.mark.parametrize("site, value", [
    (site, value) for site, (_, refused) in FINITE_SITES.items() for value in refused])
def test_nan_and_infinity_are_refused(site, value):
    check = FINITE_SITES[site][0]
    check(8.0)
    with pytest.raises(ParameterError):
        check(value)
