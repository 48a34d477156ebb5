import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest

from gradcomm import adaptive, estimator
from gradcomm.adaptive import (
    SelectionObjective,
    adaptive_controller,
    predicted_cost,
    select_power,
)
from gradcomm.cli import main
from gradcomm.commodel import TimeModelParams, expected_time
from gradcomm.compression import CompressorSpec
from gradcomm.errors import DegenerateDesignError, ParameterError
from gradcomm.optimizer import Problem, SimConfig, run_compressed_gd


def scalar_fits(samples, p_max, forgetting):
    """Each (count, fit) of the scalar ``advance``/``fit`` loop, skipping unidentified fits."""
    state = estimator.start(p_max, forgetting)
    for x, y in samples:
        state = estimator.advance(state, x, y)
        try:
            yield state.count, estimator.fit(state)
        except estimator.SumsOverflowedError:
            raise
        except DegenerateDesignError:
            continue


def oracle_decisions(samples, objective, p_max, forgetting):
    """The controller's decisions rebuilt from ``select_power`` on each refreshed objective.

    The fits come from a scalar loop written here, independent of the
    controller's own.
    """
    decisions, last_k = [], None
    for count, fit in scalar_fits(samples, p_max, forgetting):
        k_star, cost = select_power(
            dataclasses.replace(objective, alpha=fit.alpha_hat, beta=fit.beta_hat))
        if k_star != last_k:
            decisions.append((count, k_star, cost.hex()))
            last_k = k_star
    return decisions


def brute_force_argmin(obj):
    """Independent scalar scan; ties toward larger k."""
    best_k, best_cost = None, None
    for k in range(1, obj.d + 1):
        cost = predicted_cost(obj, k)
        if best_cost is None or cost <= best_cost:
            best_k, best_cost = k, cost
    return best_k, best_cost


def numpy_argmin(family, d, n, alpha, beta, b):
    """Scan J over every k in [1, d] with NumPy; the last minimum, so ties go to larger k."""
    unit_bits = b if family == "rand_k" else b + math.ceil(math.log2(d))
    scale = math.sqrt(n) if family == "rand_k" else 1.0
    ks = np.arange(1, d + 1, dtype=np.int64)
    costs = (1.0 + (d / ks) / scale) * (alpha + beta * (ks * unit_bits))
    i = d - 1 - int(np.argmin(costs[::-1]))
    return int(ks[i]), float(costs[i])


class TestPredictedCost:
    def test_alpha_zero_increasing_in_k(self):
        obj = SelectionObjective("rand_k", d=64, n=16, alpha=0.0, beta=1e-9)
        costs = [predicted_cost(obj, k) for k in range(1, 65)]
        assert all(a < b for a, b in zip(costs, costs[1:]))
        # J(k) = beta*b*(k + d/sqrt(n)) exactly when alpha = 0
        for k in (1, 7, 64):
            assert predicted_cost(obj, k) == pytest.approx(1e-9 * 32 * (k + 64 / 4))

    def test_beta_zero_decreasing_in_k(self):
        obj = SelectionObjective("rand_k", d=64, n=16, alpha=0.5, beta=0.0)
        costs = [predicted_cost(obj, k) for k in range(1, 65)]
        assert all(a > b for a, b in zip(costs, costs[1:]))
        for k in (1, 5, 64):
            assert predicted_cost(obj, k) == pytest.approx(0.5 * (1 + 64 / (k * 4)))

    def test_identity_level_value(self):
        obj = SelectionObjective("rand_k", d=100, n=25, alpha=1.0, beta=1e-6)
        full = (1 + 1 / math.sqrt(25)) * (1.0 + 1e-6 * 100 * 32)
        assert predicted_cost(obj, 100) == pytest.approx(full)

    def test_top_k_includes_index_bits(self):
        obj = SelectionObjective("top_k", d=1024, n=4, alpha=0.0, beta=1.0)
        assert predicted_cost(obj, 1) == pytest.approx((1 + 1024) * (32 + 10))

    def test_k_out_of_range(self):
        obj = SelectionObjective("rand_k", d=8, n=2, alpha=1.0, beta=1.0)
        with pytest.raises(ParameterError):
            predicted_cost(obj, 0)
        with pytest.raises(ParameterError):
            predicted_cost(obj, 9)

    def test_family_validation(self):
        with pytest.raises(ParameterError):
            SelectionObjective("natural", d=8, n=2, alpha=1.0, beta=1.0)


class TestSelectPower:
    def test_limit_cases(self):
        assert select_power(SelectionObjective("rand_k", d=200, n=9, alpha=0.0, beta=1e-9))[0] == 1
        assert select_power(SelectionObjective("rand_k", d=200, n=9, alpha=1.0, beta=0.0))[0] == 200

    @pytest.mark.parametrize("family", ["rand_k", "top_k"])
    def test_matches_brute_force(self, family):
        rng = np.random.default_rng(0)
        for _ in range(25):
            obj = SelectionObjective(
                family,
                d=int(rng.integers(2, 400)),
                n=int(rng.integers(1, 64)),
                alpha=float(rng.uniform(0, 1e-2)),
                beta=float(rng.uniform(0, 1e-8)),
            )
            assert select_power(obj) == brute_force_argmin(obj)
        # Either coefficient may also be zero or negative (a noisy fit can
        # give either), which leaves J monotone or concave in k.
        for _ in range(150):
            alpha, beta = (
                float(rng.choice([0.0, rng.uniform(-1.0, 1.0)])) * scale
                for scale in (1e-2, 1e-8)
            )
            obj = SelectionObjective(
                family,
                d=int(rng.integers(1, 400)),
                n=int(rng.integers(1, 64)),
                alpha=alpha,
                beta=beta,
                b=int(rng.choice([8, 32])),
            )
            assert select_power(obj) == brute_force_argmin(obj)

    @pytest.mark.parametrize("b", [8, 32])
    @pytest.mark.parametrize("d", [10**5, 10**6])
    @pytest.mark.parametrize("family", ["rand_k", "top_k"])
    def test_matches_numpy_scan_at_large_dimension(self, family, d, b):
        rng = np.random.default_rng(d + b + len(family))
        alphas = (10.0 ** rng.uniform(-6, -2, size=4)).tolist()
        betas = (10.0 ** rng.uniform(-12, -9, size=4)).tolist()
        draws = list(zip(alphas, betas))
        draws += [(0.0, betas[0]), (alphas[0], 0.0), (0.0, 0.0), (-alphas[1], betas[1]),
                  (alphas[2], -betas[2]), (-alphas[3], -betas[3]), (alphas[0], 5e-324)]
        stars = []
        for alpha, beta in draws:
            obj = SelectionObjective(family, d=d, n=16, alpha=alpha, beta=beta, b=b)
            expected = numpy_argmin(family, d, 16, alpha, beta, b)
            assert select_power(obj) == expected, (alpha, beta)
            stars.append(expected[0])
        assert any(1 < k < d for k in stars)

    def test_monotone_in_alpha(self):
        beta = 1e-9
        stars = []
        for alpha in np.linspace(0.0, 1e-3, 20):
            obj = SelectionObjective("rand_k", d=512, n=16, alpha=float(alpha), beta=beta)
            stars.append(select_power(obj)[0])
        assert all(a <= b for a, b in zip(stars, stars[1:]))

    def test_scale_invariance(self):
        obj = SelectionObjective("rand_k", d=300, n=8, alpha=3e-4, beta=2e-9)
        base = select_power(obj)[0]
        for c in (0.1, 10.0):
            scaled = SelectionObjective("rand_k", d=300, n=8, alpha=c * 3e-4, beta=c * 2e-9)
            assert select_power(scaled)[0] == base

    def test_large_dimension_alpha_zero_selects_one(self):
        obj = SelectionObjective("rand_k", d=2 * 10**7, n=4, alpha=0.0, beta=1e-12)
        k_star, _ = select_power(obj)
        assert k_star == 1  # alpha = 0 still selects the smallest power

    def test_exact_argmin_at_large_dimension(self):
        # k_c = sqrt((d / sqrt(n)) * alpha / (32 * beta)) = 2.5e6 exactly; a
        # 64-point geometric grid gave (2234634, 0.121126...) here.
        obj = SelectionObjective("rand_k", d=10**8, n=16, alpha=1e-3, beta=1.25e-10)
        k_star, cost = select_power(obj)
        assert (k_star, cost) == (2_500_000, 0.121)
        assert predicted_cost(obj, k_star - 1) > cost
        assert predicted_cost(obj, k_star + 1) > cost

    @pytest.mark.parametrize("family", ["rand_k", "top_k"])
    def test_denormal_beta_selects_d(self, family):
        obj = SelectionObjective(family, d=1000, n=16, alpha=1e-3, beta=1e-320)
        assert select_power(obj)[0] == 1000

    @pytest.mark.parametrize("family", ["rand_k", "top_k"])
    def test_numpy_scalar_coefficients_with_denormal_beta(self, family):
        # NumPy scalars warn on the k_c division's overflow, which the pytest
        # settings turn into an error; Python floats give inf quietly.
        obj = SelectionObjective(family, d=1000, n=16, alpha=np.float64(1e-3),
                                 beta=np.float64(1e-320))
        assert select_power(obj) == select_power(dataclasses.replace(obj, alpha=1e-3, beta=1e-320))
        assert select_power(obj)[0] == 1000

    @pytest.mark.parametrize("field", ["alpha", "beta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficients_rejected(self, field, value):
        params = {"alpha": 1e-3, "beta": 1e-9, field: value}
        with pytest.raises(ParameterError):
            SelectionObjective("rand_k", d=64, n=4, **params)

    def test_array_costs_equal_scalar_costs(self):
        obj = SelectionObjective("top_k", d=300, n=5, alpha=2e-4, beta=3e-9)
        ks = np.arange(1, 301)
        assert predicted_cost(obj, ks).tolist() == [predicted_cost(obj, int(k)) for k in ks]
        with pytest.raises(ParameterError):
            predicted_cost(obj, np.arange(0, 3))

    def test_consistency_with_simulated_uplink_time(self):
        # J(k) models uplink communication; with the iteration count scaled by
        # the same (1 + zeta/sqrt(n)) factor, the simulated zero-noise uplink
        # wall clock must rank candidate powers identically.
        rng = np.random.default_rng(42)
        for _ in range(20):
            d = int(rng.choice([16, 32, 64]))
            n = int(rng.integers(2, 8))
            alpha = float(rng.uniform(1e-6, 1e-3))
            beta = float(rng.uniform(1e-10, 1e-7))
            params = TimeModelParams(alpha, beta)
            problem = Problem.mean(rng.standard_normal((n, d)))
            candidates = sorted(rng.choice(np.arange(1, d + 1), size=3, replace=False))
            j_costs, sim_uplink = [], []
            for k in candidates:
                obj = SelectionObjective("rand_k", d=d, n=n, alpha=alpha, beta=beta)
                j_costs.append(predicted_cost(obj, int(k)))
                zeta = d / int(k)
                rounds = max(1, round(4 * (1 + zeta / math.sqrt(n))))
                config = SimConfig(steps=rounds, time_model=params, gamma=1e-3, seed=1,
                                   compressor=CompressorSpec("rand_k", k=int(k)))
                trace = run_compressed_gd(problem, config)
                t_down = rounds * expected_time(params, d * 32)
                sim_uplink.append((trace.rows[-1].wall_clock_s - t_down) / rounds
                                  * (1 + zeta / math.sqrt(n)))
            assert np.argsort(j_costs).tolist() == np.argsort(sim_uplink).tolist()


class TestController:
    @staticmethod
    def template(d=64, n=16):
        return SelectionObjective("rand_k", d=d, n=n, alpha=0.0, beta=0.0)

    def test_exact_samples_converge_immediately(self):
        alpha, beta = 1e-3, 1e-9
        sizes = [1e4, 2e4, 5e4, 8e4, 1e5]
        samples = [(s, alpha + beta * s) for s in sizes]
        decisions = list(adaptive_controller(samples, self.template(), p_max=1e6))
        assert len(decisions) == 1
        assert decisions[0].sample_index == 2
        assert decisions[0].fit.alpha_hat == pytest.approx(alpha, rel=1e-9)
        truth = select_power(SelectionObjective("rand_k", d=64, n=16, alpha=alpha, beta=beta))
        assert decisions[0].k_star == truth[0]

    def test_alpha_jump_raises_k_star(self):
        rng = np.random.default_rng(1)
        beta = 1e-9
        sizes = rng.uniform(1e3, 1e6, size=400)
        samples = [(s, 1e-6 + beta * s) for s in sizes[:200]]
        samples += [(s, 1e-4 + beta * s) for s in sizes[200:]]
        decisions = list(
            adaptive_controller(samples, self.template(), p_max=1e6, forgetting=0.9)
        )
        ks = [d.k_star for d in decisions]
        first = ks[0]
        assert any(k > first for k in ks[1:])
        assert max(d.sample_index for d in decisions) > 200

    def test_first_decision_at_first_distinct_size(self):
        samples = [(5.0, 1.0), (5.0, 1.1), (6.0, 1.2)]
        decisions = list(adaptive_controller(samples, self.template(), p_max=10.0))
        assert [d.sample_index for d in decisions] == [3]
        assert decisions[0].fit.k == 3

    def test_equal_sizes_throughout_raise(self):
        for samples in ([], [(5.0, 1.0)], [(5.0, 1.0), (5.0, 1.1), (5.0, 1.2)]):
            with pytest.raises(DegenerateDesignError):
                list(adaptive_controller(samples, self.template(), p_max=10.0))

    def test_constant_stream_keeps_last_selection(self):
        # forgetting decays away the initial size spread; the fit degenerates
        # but the controller keeps serving the last k* instead of crashing
        samples = [(10.0, 1.0), (1000.0, 2.0)] + [(500.0, 1.5)] * 300
        decisions = list(
            adaptive_controller(samples, self.template(), p_max=1e4, forgetting=0.5)
        )
        assert len(decisions) >= 1

    def test_overflowed_fit_raises_degenerate(self):
        # Every product of the sums is finite, but beta = inf: refused at the fit.
        samples = [(1.0, -1.1666666666666667e308), (2.0, 0.8333333333333334e308)]
        with pytest.raises(DegenerateDesignError, match="running sums overflowed"):
            list(adaptive_controller(samples, self.template(), p_max=2.0))

    # ``draw`` offsets the seed of the samples: two independent streams per case.
    @pytest.mark.parametrize("draw", [1, 3])
    @pytest.mark.parametrize("forgetting", [1.0, 0.9])
    @pytest.mark.parametrize("d", [1, 2, 1000, 10**6, 10**9])
    @pytest.mark.parametrize("family", ["rand_k", "top_k"])
    def test_decisions_equal_select_power_on_each_fit(self, family, d, forgetting, draw):
        rng = np.random.default_rng(d + 7 * draw + int(10 * forgetting))
        objective = SelectionObjective(family, d=d, n=9, alpha=0.0, beta=0.0, b=16)
        # Every channel's alpha steps up tenfold halfway.  The last three have
        # noise that swamps alpha, times that fall with size, or no signal at
        # all, so some fits have alpha <= 0 and some beta <= 0.
        channels = [(1e-5, 1e-9, 0.05), (1e-4, 1e-10, 0.2), (1e-6, 1e-10, 10.0),
                    (1e-3, -1e-10, 0.01), (0.0, 0.0, 1.0)]
        signs = set()
        for alpha, beta, noise in channels:
            sizes = rng.uniform(1e3, 1e6, size=120)
            times = alpha * np.where(np.arange(120) < 60, 1.0, 10.0) + beta * sizes
            times += rng.normal(0.0, noise * max(alpha, 1e-6), size=120)
            samples = list(zip(sizes.tolist(), times.tolist()))
            decisions = adaptive_controller(samples, objective, 1e6, forgetting)
            got = [(dec.sample_index, dec.k_star, dec.predicted_cost.hex()) for dec in decisions]
            assert got == oracle_decisions(samples, objective, 1e6, forgetting)
            signs.update((fit.alpha_hat > 0, fit.beta_hat > 0)
                         for _, fit in scalar_fits(samples, 1e6, forgetting))
        assert {(True, True), (False, True), (True, False)} <= signs

    def test_step_prices_at_most_four_candidates(self, monkeypatch):
        calls = []
        cost = adaptive._cost
        monkeypatch.setattr(adaptive, "_cost", lambda *args: calls.append(1) or cost(*args))
        rng = np.random.default_rng(5)
        sizes = rng.uniform(1e3, 1e6, size=500)
        samples = [(s, (1e-5 if i < 250 else 1e-4) + 1e-9 * s + rng.normal(0.0, 1e-6))
                   for i, s in enumerate(sizes)]
        decisions = list(adaptive_controller(samples, self.template(d=10**6), 1e6, 0.9))
        fits = sum(1 for _ in scalar_fits(samples, 1e6, 0.9))
        assert len(decisions) > 1 and fits > 400
        assert len(calls) <= 4 * fits

    @pytest.mark.parametrize("forgetting", [1.0, 0.9])
    @pytest.mark.parametrize("fault", ["size_zero", "int_size_zero", "size_above_p_max",
                                       "time_nan", "overflow"])
    def test_a_fault_raises_after_every_earlier_decision(self, forgetting, fault):
        samples, p_max = pipeline_stream(seed=11, count=6000)
        if fault == "int_size_zero":  # the message names the caller's 0, not 0.0
            samples = [(int(x), y) for x, y in samples]
        at = 4200
        x, y = samples[at]
        samples[at] = {"size_zero": (0.0, y), "int_size_zero": (0, y),
                       "size_above_p_max": (2 * p_max, y),
                       "time_nan": (x, math.nan), "overflow": (x, 1e305)}[fault]
        objective = SelectionObjective("rand_k", d=10**6, n=16, alpha=0.0, beta=0.0)
        expected = oracle_decisions(samples[:at], objective, p_max, forgetting)
        with pytest.raises(Exception) as scalar_error:
            oracle_decisions(samples, objective, p_max, forgetting)
        got = []
        with pytest.raises(type(scalar_error.value), match=re.escape(str(scalar_error.value))):
            for dec in adaptive_controller(samples, objective, p_max, forgetting):
                got.append((dec.sample_index, dec.k_star, dec.predicted_cost.hex()))
        assert len(expected) > 2 and got == expected
        if "size_zero" in fault:
            assert str(scalar_error.value).startswith(f"message size {samples[at][0]!r} outside")

    def test_each_decision_comes_before_the_next_sample_is_read(self):
        samples, p_max = pipeline_stream(seed=13, count=3000)
        objective = SelectionObjective("rand_k", d=10**6, n=16, alpha=0.0, beta=0.0)
        expected = [(dec.sample_index, dec.k_star) for dec in
                    adaptive_controller(samples, objective, p_max, 0.9)]
        assert len(expected) > 2
        read = []

        def source(stop):
            for i, sample in enumerate(samples):
                if i == stop:
                    raise OSError("the source failed")
                read.append(i)
                yield sample

        # Each decision is yielded before the sample after it is read.
        got = []
        for dec in adaptive_controller(source(None), objective, p_max, 0.9):
            assert len(read) == dec.sample_index
            got.append((dec.sample_index, dec.k_star))
        assert got == expected
        # A source that fails after sample j still delivers every decision up to j.
        stop = (expected[1][0] + expected[2][0]) // 2
        got = []
        with pytest.raises(OSError, match="the source failed"):
            for dec in adaptive_controller(source(stop), objective, p_max, 0.9):
                got.append((dec.sample_index, dec.k_star))
        assert got == [decision for decision in expected if decision[0] <= stop]

    def test_washout_keeps_deciding_and_a_never_varied_stream_raises_at_its_end(self):
        objective = self.template(d=10**6)
        washout = [(10.0, 1.0), (1000.0, 2.0)] + [(500.0, 1.5)] * 5000 + [(20.0, 1.1)] * 3
        got = [(dec.sample_index, dec.k_star, dec.predicted_cost.hex())
               for dec in adaptive_controller(washout, objective, 1e4, 0.5)]
        assert got == oracle_decisions(washout, objective, 1e4, 0.5)
        consumed = []
        stream = (consumed.append(i) or (7.0, 1.0) for i in range(5000))
        with pytest.raises(DegenerateDesignError, match=estimator.SIZES_NEVER_VARIED):
            list(adaptive_controller(stream, objective, 1e4, 0.9))
        assert len(consumed) == 5000

    def test_decision_fields(self):
        assert adaptive.Decision._fields == ("sample_index", "fit", "k_star", "predicted_cost")

    def test_step_builds_no_objective(self, monkeypatch):
        counts = {"message_bits": 0, "objectives": 0}
        message_bits, post_init = adaptive.message_bits, SelectionObjective.__post_init__

        def counted_message_bits(*args, **kwargs):
            counts["message_bits"] += 1
            return message_bits(*args, **kwargs)

        def counted_post_init(obj):
            counts["objectives"] += 1
            post_init(obj)

        objective = self.template(d=10**6)
        monkeypatch.setattr(adaptive, "message_bits", counted_message_bits)
        monkeypatch.setattr(SelectionObjective, "__post_init__", counted_post_init)
        rng = np.random.default_rng(3)
        sizes = rng.uniform(1e3, 1e6, size=500)
        samples = [(s, (1e-5 if i < 250 else 1e-4) + 1e-9 * s + rng.normal(0.0, 1e-6))
                   for i, s in enumerate(sizes)]
        decisions = list(adaptive_controller(samples, objective, p_max=1e6, forgetting=0.9))
        assert len(decisions) > 1
        assert counts["message_bits"] <= 1 and counts["objectives"] == 0
        # The counters see what a rebuilt objective costs.
        bits_before = counts["message_bits"]
        select_power(dataclasses.replace(objective, alpha=1e-4, beta=1e-9))
        assert counts == {"message_bits": bits_before + 1, "objectives": 1}


# sha256 of the controller's decisions on a pipeline-shaped stream, as the list
# of (sample_index, k_star, predicted_cost.hex()), and of select's stdout at
# three (alpha, beta, d) points.  Recorded while _argmin still priced a sorted
# set of candidates and took ``min``, and Decision was a frozen dataclass; they
# pin that every decision and cost stayed the same.  Never regenerate them
# from the current code.
GOLDEN_DECISIONS_SHA256 = {
    "rand_k": "dd825ab77d3d89961b85678517d0872b36c9fa129994411b38fee3b8f1dee8f7",
    "top_k": "e0aba6b8ac8fbba96e0a8dc5559b99ed234026067ed60004b9f6b4ff2c0bfb7e",
}
GOLDEN_SELECT_ARGS = {
    "interior": ["--alpha", "2e-3", "--beta", "1e-8", "--d", str(10**8)],
    "alpha_negative": ["--alpha", "-1e-3", "--beta", "1e-9", "--d", "1000"],
    "beta_denormal": ["--alpha", "1e-3", "--beta", "1e-320", "--d", "1000"],
}
GOLDEN_SELECT_SHA256 = {
    "interior": "43d1c14189ba3b53d1e1cf1ff538f8be1af5c626be16e9cd84b8123ff02d2f81",
    "alpha_negative": "44f7699b24c8967ed755d580c0ec6eca5818de521a132f95b0b30b2084e9b502",
    "beta_denormal": "670e0c35e3fa247d9237ec9886779e9ae62cac3297692411067556c7158dd918",
}


def pipeline_stream(seed=7, count=128):
    """(bits, seconds) samples interleaved over a 16-point geometric size grid;
    alpha steps up tenfold at sample count // 2."""
    rng = np.random.default_rng(seed)
    alpha, beta = rng.uniform(40e-6, 80e-6), rng.uniform(0.8e-9, 1.2e-9)
    grid = np.geomspace(8 * 64, 8 * (4 << 20), 16)
    xs = grid[(np.arange(count) * 7) % grid.size]
    alphas = np.where(np.arange(count) < count // 2, alpha, 10 * alpha)
    ys = alphas + beta / 8 * xs + rng.normal(0.0, 0.05 * alpha, count)
    return list(zip(xs.tolist(), ys.tolist())), float(xs.max())


class TestGolden:
    @pytest.mark.parametrize("family", sorted(GOLDEN_DECISIONS_SHA256))
    def test_controller_decisions_match_golden_hash(self, family):
        samples, p_max = pipeline_stream()
        objective = SelectionObjective(family, d=10**6, n=16, alpha=0.0, beta=0.0)
        decisions = [(dec.sample_index, dec.k_star, dec.predicted_cost.hex())
                     for dec in adaptive_controller(samples, objective, p_max, forgetting=0.9)]
        assert len(decisions) > 2
        digest = hashlib.sha256(repr(decisions).encode()).hexdigest()
        assert digest == GOLDEN_DECISIONS_SHA256[family]

    @pytest.mark.parametrize("point", sorted(GOLDEN_SELECT_SHA256))
    def test_select_stdout_matches_golden_hash(self, tmp_path, capsys, point):
        argv = ["select", *GOLDEN_SELECT_ARGS[point], "--n", "16", "--out", str(tmp_path)]
        assert main(argv) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == GOLDEN_SELECT_SHA256[point]
