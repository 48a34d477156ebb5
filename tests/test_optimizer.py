import io
import itertools
import math

import numpy as np
import pytest

from gradcomm.commodel import TimeModelParams, expected_time
from gradcomm.compression import BATCH_VALUES, CompressorSpec, omega_inf
from gradcomm.errors import DivergenceError, ParameterError
from gradcomm.optimizer import (
    _DOWNLINK_STREAM,
    _SEED_BLOCK,
    _UPLINK_STREAM,
    Problem,
    SimConfig,
    _message_generators,
    closed_form_optimum,
    run_compressed_gd,
)

QUIET = TimeModelParams(1e-3, 1e-9)


class TestProblem:
    def test_mean_problem_optimum(self):
        problem = Problem.mean([[0.0, 0.0], [2.0, 2.0]])
        x_star, f_star = closed_form_optimum(problem)
        np.testing.assert_array_equal(x_star, [1.0, 1.0])
        assert f_star == 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_mean_rejects_non_finite_targets(self, bad):
        with pytest.raises(ParameterError, match="finite"):
            Problem.mean([[1.0, bad], [0.0, 0.0]])

    def test_single_worker_optimum_is_its_target(self):
        problem = Problem.mean([[3.0, -1.0, 2.0]])
        x_star, f_star = closed_form_optimum(problem)
        np.testing.assert_array_equal(x_star, [3.0, -1.0, 2.0])
        assert f_star == 0.0

    def test_identical_targets_zero_optimum(self):
        problem = Problem.mean(np.tile([1.5, 2.5], (5, 1)))
        _, f_star = closed_form_optimum(problem)
        assert f_star == 0.0

    def test_quadratic_optimum_has_zero_gradient(self):
        problem = Problem.random_quadratic(4, 6, seed=3)
        x_star, f_star = closed_form_optimum(problem)
        grad = problem.worker_gradients(x_star).mean(axis=0)
        np.testing.assert_allclose(grad, 0.0, atol=1e-10)
        assert 10 * problem.strong_convexity() >= problem.smoothness()
        assert problem.smoothness() >= problem.strong_convexity() >= 0.5

    def test_mean_has_unit_curvature(self):
        problem = Problem.mean(np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(problem.curvature, np.ones(3))
        assert (problem.n, problem.d) == (2, 3)
        assert problem.smoothness() == problem.strong_convexity() == 1.0

    @pytest.mark.parametrize("n, d, seed", [(1, 1, 0), (3, 5, 1), (4, 6, 3), (7, 2, 11)])
    def test_matches_dense_reference(self, n, d, seed):
        problem = Problem.random_quadratic(n, d, seed=seed)
        # Oracle: the same problem in dense form, f_i(x) = 0.5*x'A x - b_i'x + c_i
        # with A = diag(h), b_i = A a_i and c_i = 0.5*a_i'A a_i.
        hess = np.diag(problem.curvature)
        vecs = problem.targets @ hess
        consts = 0.5 * np.einsum("ni,ij,nj->n", problem.targets, hess, problem.targets)
        eigs = np.linalg.eigvalsh(hess)
        x_ref = np.linalg.solve(hess, vecs.mean(axis=0))
        for x in np.random.default_rng(seed).standard_normal((3, d)):
            want_f = np.mean(0.5 * x @ hess @ x - vecs @ x + consts)
            assert problem.objective(x) == pytest.approx(want_f, rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(problem.worker_gradients(x), hess @ x - vecs,
                                       rtol=1e-12, atol=1e-12)
            f, grads = problem.evaluate(x)
            assert f == problem.objective(x)
            np.testing.assert_array_equal(grads, problem.worker_gradients(x))
        assert problem.smoothness() == eigs.max()
        assert problem.strong_convexity() == eigs.min()
        x_star, f_star = closed_form_optimum(problem)
        np.testing.assert_allclose(x_star, x_ref, rtol=1e-12, atol=1e-12)
        want_star = np.mean(0.5 * x_ref @ hess @ x_ref - vecs @ x_ref + consts)
        assert f_star == pytest.approx(want_star, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("n, d, chunks", [(70, 1000, 2), (3, 70_000, 3), (130, 6, 1)])
    def test_evaluate_into_buffer_is_bitwise(self, n, d, chunks):
        assert -(-n // max(1, BATCH_VALUES // d)) == chunks  # chunks of the pass
        problem = Problem.random_quadratic(n, d, seed=n)
        x = np.random.default_rng(d).standard_normal(d)
        buf = np.full((n, d), np.nan)
        f_buf, grads_buf = problem.evaluate(x, out=buf)
        f, grads = problem.evaluate(x)
        assert grads_buf is buf and grads is not buf
        # The unchunked pass: x - targets as one (n, d) array.
        diff = x - problem.targets
        want_grads = diff * problem.curvature
        diff *= want_grads
        want_f = float(0.5 * np.mean(np.sum(diff, axis=1)))
        assert f_buf == f == want_f
        assert buf.tobytes() == grads.tobytes() == want_grads.tobytes()
        assert problem.worker_gradients(x, out=np.empty((n, d))).tobytes() == buf.tobytes()

    def test_random_quadratic_holds_n_plus_one_rows(self):
        n, d = 16, 100_000
        problem = Problem.random_quadratic(n, d, seed=0)
        assert problem.targets.shape == (n, d) and problem.curvature.shape == (d,)
        assert problem.targets.nbytes + problem.curvature.nbytes == (n + 1) * d * 8


class TestRunGd:
    def test_mean_problem_one_step_exact(self):
        rng = np.random.default_rng(0)
        problem = Problem.mean(rng.standard_normal((5, 7)))
        config = SimConfig(steps=1, time_model=QUIET, gamma=1.0, seed=1)
        trace = run_compressed_gd(problem, config)
        x_star, f_star = closed_form_optimum(problem)
        np.testing.assert_array_equal(trace.final_x, x_star)
        assert trace.rows[1].objective == f_star

    def test_descent_with_safe_stepsize(self):
        problem = Problem.random_quadratic(3, 5, seed=7)
        config = SimConfig(steps=40, time_model=QUIET, gamma=1.0 / problem.smoothness(), seed=2)
        trace = run_compressed_gd(problem, config)
        objectives = [row.objective for row in trace.rows]
        assert all(b <= a + 1e-12 for a, b in zip(objectives, objectives[1:]))

    def test_converges_within_predicted_iterations(self):
        problem = Problem.random_quadratic(3, 5, seed=8)
        L, mu = problem.smoothness(), problem.strong_convexity()
        _, f_star = closed_form_optimum(problem)
        # distance contracts by (1 - mu/L) per step, objective gap by its square
        k_pred = math.ceil(math.log(1e-6) / (2 * math.log(1 - mu / L))) + 2
        config = SimConfig(steps=k_pred, time_model=QUIET, gamma=1.0 / L, seed=3)
        trace = run_compressed_gd(problem, config)
        gap0 = trace.rows[0].objective - f_star
        assert trace.rows[-1].objective - f_star <= 1e-6 * gap0

    def test_zero_noise_wall_clock_closed_form(self):
        problem = Problem.mean(np.random.default_rng(1).standard_normal((4, 16)))
        steps = 7
        config = SimConfig(steps=steps, time_model=QUIET, gamma=0.5, seed=4)
        trace = run_compressed_gd(problem, config)
        per_round = 2 * expected_time(QUIET, 16 * 32)
        assert trace.rows[-1].wall_clock_s == pytest.approx(steps * per_round, rel=1e-9)
        assert trace.rows[-1].downlink_bits == steps * 16 * 32
        assert trace.rows[-1].uplink_bits == steps * 4 * 16 * 32

    def test_wall_clock_strictly_increasing(self):
        problem = Problem.mean(np.random.default_rng(2).standard_normal((3, 8)))
        noisy = TimeModelParams(1e-3, 1e-9, alpha_m=0.2, beta_m=0.2)
        config = SimConfig(steps=20, time_model=noisy, gamma=0.5, seed=5)
        trace = run_compressed_gd(problem, config)
        clocks = [row.wall_clock_s for row in trace.rows]
        assert all(a < b for a, b in zip(clocks, clocks[1:]))

    def test_divergence_guard(self):
        problem = Problem.random_quadratic(2, 4, seed=9)
        config = SimConfig(steps=200, time_model=QUIET, gamma=50.0 / problem.smoothness(), seed=6)
        with pytest.raises(DivergenceError):
            run_compressed_gd(problem, config)

    def test_zero_stepsize_rejected(self):
        problem = Problem.mean(np.ones((2, 2)))
        config = SimConfig(steps=1, time_model=QUIET, gamma=0.0)
        with pytest.raises(ParameterError):
            run_compressed_gd(problem, config)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    def test_non_finite_stepsize_rejected(self, gamma):
        problem = Problem.mean(np.ones((2, 2)))
        config = SimConfig(steps=1, time_model=QUIET, gamma=gamma)
        with pytest.raises(ParameterError):
            run_compressed_gd(problem, config)

    def test_nan_objective_counts_as_divergence(self):
        # Built directly: Problem.mean refuses a non-finite target.
        problem = Problem(targets=np.array([[math.nan, 0.0]]), curvature=np.ones(2))
        config = SimConfig(steps=3, time_model=QUIET, gamma=0.5)
        with pytest.raises(DivergenceError, match="objective nan"):
            run_compressed_gd(problem, config)


class TestRunCompressedGd:
    def test_rand_k_full_support_matches_plain(self):
        problem = Problem.mean(np.random.default_rng(4).standard_normal((3, 6)))
        noisy = TimeModelParams(1e-3, 1e-9, alpha_m=0.1, beta_m=0.1)
        plain = SimConfig(steps=8, time_model=noisy, gamma=0.7, seed=13)
        full = SimConfig(steps=8, time_model=noisy, gamma=0.7, seed=13,
                         compressor=CompressorSpec("rand_k", k=6))
        assert run_compressed_gd(problem, plain).rows == run_compressed_gd(problem, full).rows

    def test_compressed_step_unbiased(self):
        # gamma=1 from x0=0 makes the uncompressed step land exactly on the
        # optimum, so the Monte-Carlo mean of compressed one-step iterates
        # must match it within sampling error.
        rng = np.random.default_rng(5)
        targets = rng.standard_normal((4, 6))
        problem = Problem.mean(targets)
        x_star = targets.mean(axis=0)
        finals = []
        for seed in range(1000):
            config = SimConfig(steps=1, time_model=QUIET, gamma=1.0, seed=seed,
                               compressor=CompressorSpec("rand_k", k=2))
            finals.append(run_compressed_gd(problem, config).final_x)
        finals = np.asarray(finals)
        stderr = finals.std(axis=0, ddof=1) / np.sqrt(len(finals))
        assert np.all(np.abs(finals.mean(axis=0) - x_star) < 3 * stderr)

    @pytest.mark.parametrize("spec", [CompressorSpec("rand_k", k=2), CompressorSpec("top_k", k=2)])
    def test_realized_speedup_matches_prediction(self, spec):
        d, b, steps = 16, 32, 5
        problem = Problem.mean(np.random.default_rng(6).standard_normal((3, d)))
        params = TimeModelParams(1e-4, 1e-8)
        base = SimConfig(steps=steps, time_model=params, gamma=0.05, seed=9)
        compressed = SimConfig(steps=steps, time_model=params, gamma=0.05, seed=9,
                               compressor=spec)
        t_plain = run_compressed_gd(problem, base).rows[-1].wall_clock_s
        t_comp = run_compressed_gd(problem, compressed).rows[-1].wall_clock_s
        omega = omega_inf(spec, d, b)
        t_full = expected_time(params, d * b)
        predicted = (t_full + t_full) / (t_full + expected_time(params, d * b / float(omega)))
        assert t_plain / t_comp == pytest.approx(predicted, rel=1e-12)

    def test_uplink_bits_use_exact_message_sizes(self):
        d, steps, n = 10, 3, 4
        problem = Problem.mean(np.random.default_rng(7).standard_normal((n, d)))
        config = SimConfig(steps=steps, time_model=QUIET, gamma=0.1, seed=2,
                           compressor=CompressorSpec("top_k", k=3))
        trace = run_compressed_gd(problem, config)
        per_msg = 3 * 32 + 3 * 4  # ceil(log2(10)) = 4 index bits
        assert trace.rows[-1].uplink_bits == steps * n * per_msg
        assert trace.rows[-1].downlink_bits == steps * d * 32

    def test_downlink_compression_flag(self):
        d, steps, n = 8, 4, 3
        problem = Problem.mean(np.random.default_rng(8).standard_normal((n, d)))
        spec = CompressorSpec("rand_k", k=2)
        config = SimConfig(steps=steps, time_model=QUIET, gamma=0.1, seed=3,
                           compressor=spec, downlink_compressed=True)
        trace = run_compressed_gd(problem, config)
        assert trace.rows[-1].downlink_bits == steps * 2 * 32

    def test_determinism(self):
        problem = Problem.mean(np.random.default_rng(9).standard_normal((3, 12)))
        noisy = TimeModelParams(1e-3, 1e-9, alpha_m=0.3, beta_m=0.3)
        config = SimConfig(steps=10, time_model=noisy, seed=77,
                           compressor=CompressorSpec("natural"))
        a = run_compressed_gd(problem, config)
        b = run_compressed_gd(problem, config)
        assert a.rows == b.rows

    def test_default_stepsize_scales_with_variance(self):
        problem = Problem.mean(np.random.default_rng(10).standard_normal((3, 12)))
        config = SimConfig(steps=30, time_model=QUIET, seed=1,
                           compressor=CompressorSpec("rand_k", k=3))
        trace = run_compressed_gd(problem, config)  # gamma = k/(d*L) = 0.25
        _, f_star = closed_form_optimum(problem)
        assert trace.rows[-1].objective < trace.rows[0].objective


class TestTraceCsv:
    def test_schema_and_values(self):
        problem = Problem.mean(np.random.default_rng(11).standard_normal((2, 4)))
        config = SimConfig(steps=2, time_model=QUIET, gamma=0.5, seed=0)
        trace = run_compressed_gd(problem, config)
        buf = io.StringIO()
        trace.to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "round,objective,grad_norm,wall_clock_s,uplink_bits,downlink_bits"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[3]) == 0.0


class TestSimConfig:
    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
    def test_seed_must_be_a_non_negative_int(self, seed):
        with pytest.raises(ParameterError, match="seed must be"):
            SimConfig(steps=1, time_model=QUIET, seed=seed)

    def test_numpy_integer_seed_is_an_int(self):
        problem = Problem.mean(np.random.default_rng(12).standard_normal((2, 5)))
        spec = CompressorSpec("rand_k", k=2)
        plain = SimConfig(steps=3, time_model=QUIET, gamma=0.5, seed=9, compressor=spec)
        wide = SimConfig(steps=3, time_model=QUIET, gamma=0.5, seed=np.uint64(9), compressor=spec)
        assert run_compressed_gd(problem, plain).rows == run_compressed_gd(problem, wide).rows

    @pytest.mark.parametrize("steps", [0, 2**32 + 1])
    def test_steps_out_of_range(self, steps):
        with pytest.raises(ParameterError, match="steps must be"):
            SimConfig(steps=steps, time_model=QUIET)


def _reference_generator(seed, stream, round_idx, worker):
    """The per-message rule, one SeedSequence and one default_rng at a time."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, round_idx, worker))
    return np.random.default_rng(int(ss.generate_state(1)[0]))


def _first_draws(rng):
    # The odd uint32 count leaves a buffered half-word, which the next
    # message's state must clear.
    return (rng.random(5), rng.choice(1000, 10, replace=False), rng.standard_normal((3, 2)),
            rng.integers(10, size=3, dtype=np.uint32))


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**100])
@pytest.mark.parametrize("stream", [_UPLINK_STREAM, _DOWNLINK_STREAM])
@pytest.mark.parametrize("rounds, n_workers", [
    (range(3), 4),
    (range(2**16, 2**16 + 2), 3),
    (range(1), 2**16 + 2),  # one round larger than a block
    (range(2 * _SEED_BLOCK // 64 + 1), 64),  # two full blocks and a one-round third
], ids=["from-zero", "rounds-2**16", "workers-2**16", "three-blocks"])
def test_message_generators_match_seed_sequence(seed, stream, rounds, n_workers):
    rng = np.random.Generator(np.random.PCG64())
    messages = itertools.product(rounds, range(n_workers))
    total = len(rounds) * n_workers
    generators = _message_generators(rng, seed, stream, rounds, n_workers)
    for i, ((round_idx, worker), got) in enumerate(zip(messages, generators, strict=True)):
        assert got is rng
        # Every message of the small cases; the first, last and block-edge
        # messages of the large ones.
        if total > 64 and not (i < 3 or i == total - 1 or i % _SEED_BLOCK in (0, _SEED_BLOCK - 1)):
            continue
        want = _reference_generator(seed, stream, round_idx, worker)
        assert got.bit_generator.state == want.bit_generator.state, (round_idx, worker)
        for got_draw, want_draw in zip(_first_draws(got), _first_draws(want)):
            np.testing.assert_array_equal(got_draw, want_draw)
