import dataclasses
import math

import numpy as np
import pytest

from gradcomm import adaptive, estimator
from gradcomm.adaptive import (
    SelectionObjective,
    adaptive_controller,
    predicted_cost,
    select_power,
)
from gradcomm.commodel import TimeModelParams, expected_time
from gradcomm.compression import CompressorSpec
from gradcomm.errors import DegenerateDesignError, ParameterError
from gradcomm.optimizer import Problem, SimConfig, run_compressed_gd


def oracle_decisions(samples, objective, p_max, forgetting):
    """The controller's decisions rebuilt from ``select_power`` on each refreshed objective."""
    decisions, last_k = [], None
    for state, fit in estimator.running_fits(samples, p_max, forgetting):
        if fit is None:
            continue
        k_star, cost = select_power(
            dataclasses.replace(objective, alpha=fit.alpha_hat, beta=fit.beta_hat))
        if k_star != last_k:
            decisions.append((state.count, k_star, cost.hex()))
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
                         for _, fit in estimator.running_fits(samples, 1e6, forgetting))
        assert {(True, True), (False, True), (True, False)} <= signs

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
