import io
import math
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest

from gradcomm.commodel import TimeModelParams, expected_time, sample_time
from gradcomm.compression import (
    BATCH_VALUES,
    NATURAL_BATCH_VALUES,
    CompressorSpec,
    _floyd_subsets,
    _round_to_powers_of_two,
    default_matrix_shape,
    message_bits,
    omega_inf,
    rand_k_indices,
    rank_r_expand,
    rank_r_factors,
    top_k_indices,
)
from gradcomm.errors import DivergenceError, ParameterError
from gradcomm.optimizer import (
    DIVERGENCE_LIMIT,
    _DOWNLINK_STREAM,
    _TIME_STREAM,
    _UPLINK_STREAM,
    Problem,
    SimConfig,
    TraceRow,
    stream_rng,
    _WorkerGradients,
    closed_form_optimum,
    default_stepsize,
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
            want_norm = np.linalg.norm(hess @ x - vecs.mean(axis=0))
            f, grad_norm = problem.objective_and_grad_norm(x)
            assert f == pytest.approx(want_f, rel=1e-12, abs=1e-12)
            assert grad_norm == pytest.approx(want_norm, rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(problem.worker_gradients(x), hess @ x - vecs,
                                       rtol=1e-12, atol=1e-12)
        assert problem.smoothness() == eigs.max()
        assert problem.strong_convexity() == eigs.min()
        x_star, f_star = closed_form_optimum(problem)
        np.testing.assert_allclose(x_star, x_ref, rtol=1e-12, atol=1e-12)
        want_star = np.mean(0.5 * x_ref @ hess @ x_ref - vecs @ x_ref + consts)
        assert f_star == pytest.approx(want_star, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("n, d", [(70, 1000), (3, 70_000), (130, 6)])
    def test_worker_gradients_into_buffer_is_bitwise(self, n, d):
        problem = Problem.random_quadratic(n, d, seed=n)
        x = np.random.default_rng(d).standard_normal(d)
        want = (x - problem.targets) * problem.curvature  # unchunked, one (n, d) array
        assert want.tobytes() == problem.worker_gradients(x).tobytes()

    # (67, 1000) is 65 + 2 rows: a last batch that starts at no multiple of its length.
    @pytest.mark.parametrize("n, d", [(70, 1000), (67, 1000), (3, 70_000), (130, 6), (5, 1)])
    @pytest.mark.parametrize("kind", ["random_quadratic", "mean"])
    def test_gradient_source_reads_worker_gradients_bitwise(self, n, d, kind):
        rng = np.random.default_rng([n, d])
        problem = (Problem.random_quadratic(n, d, seed=n) if kind == "random_quadratic"
                   else Problem.mean(rng.standard_normal((n, d))))
        grads = _WorkerGradients(problem, np.zeros(d))
        assert grads.shape == (n, d)
        step = max(1, BATCH_VALUES // d)
        for x in (rng.standard_normal(d), problem._optimum[0]):
            grads.x = x
            want = problem.worker_gradients(x)
            for start in range(0, n, step):
                assert grads[start:start + step].tobytes() == want[start:start + step].tobytes()
            # 2k <= d reads only the kept entries, 2k > d whole rows, k = d all of them.
            for k in sorted({max(1, d // 2), d // 2 + 1, d}):
                flat = _floyd_subsets(d, k, n, rng) + np.arange(0, n * d, d)[:, None]
                assert grads.take(flat).tobytes() == want.take(flat).tobytes(), k
        if n > step:
            with pytest.raises(ValueError):
                grads[0:step + 1]

    # f* as the chunked pass over the residuals at the mean target gave it
    # before the trace's objective became a closed form around it.
    @pytest.mark.parametrize("n, d, seed, chunks, f_star_hex", [
        (3, 5, 1, 1, "0x1.38a72b76894d1p+0"),
        (130, 6, 1, 1, "0x1.10aa3853f7547p+3"),
        (70, 1000, 2, 2, "0x1.5724ee90c2622p+10"),
        (3, 70_000, 3, 3, "0x1.f8139ce4485f9p+15"),
    ])
    def test_optimal_value_is_pinned(self, n, d, seed, chunks, f_star_hex):
        assert -(-n // max(1, BATCH_VALUES // d)) == chunks  # chunks of the pass
        _, f_star = closed_form_optimum(Problem.random_quadratic(n, d, seed=seed))
        assert f_star.hex() == f_star_hex

    @pytest.mark.parametrize("n, d, seed", [(1, 1, 0), (4, 6, 3), (70, 1000, 2)])
    def test_objective_is_f_star_plus_a_square(self, n, d, seed):
        problem = Problem.random_quadratic(n, d, seed=seed)
        x_star, f_star = closed_form_optimum(problem)
        assert problem.objective_and_grad_norm(x_star) == (f_star, 0.0)
        rng = np.random.default_rng(seed)
        for scale in (1e-12, 1e-6, 1.0, 1e3):
            x = x_star + scale * rng.standard_normal(d)
            assert problem.objective_and_grad_norm(x)[0] - f_star >= 0

    @pytest.mark.parametrize("n, d", [(1, 1), (3, 5), (130, 6), (3, 70_000)])
    def test_unit_curvature_is_bitwise_the_general_formula(self, n, d):
        rng = np.random.default_rng(n + d)
        problem = Problem.mean(rng.standard_normal((n, d)))
        h = np.ones(d)
        mean, f_star = problem._optimum
        for x in (np.zeros(d), rng.standard_normal(d), mean):
            want = (x - problem.targets) * h
            assert problem.worker_gradients(x).tobytes() == want.tobytes()
            diff = x - mean
            grad = diff * h
            want_f = f_star + 0.5 * float(np.add.reduce(grad * diff))
            want_norm = math.sqrt(np.add.reduce(grad * grad))
            f, grad_norm = problem.objective_and_grad_norm(x)
            assert (f.hex(), grad_norm.hex()) == (want_f.hex(), want_norm.hex())

    def test_mean_keeps_float64_targets_uncopied(self):
        targets = np.random.default_rng(0).standard_normal((4, 3))
        assert Problem.mean(targets).targets is targets
        assert Problem(targets, np.full(3, 2.0)).targets is targets

    def test_arrays_are_read_only_once_built(self):
        # The problem caches the mean target and f*: a write would leave them stale.
        rng = np.random.default_rng(0)
        targets, curvature = rng.standard_normal((3, 4)), np.full(4, 2.0)
        Problem.mean(targets)
        with pytest.raises(ValueError, match="read-only"):
            targets += 1
        problem = Problem(rng.standard_normal((3, 4)), curvature)
        for array in (problem.targets, curvature):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_refused_targets_stay_writeable(self):
        targets = np.array([[np.nan, 0.0], [1.0, 2.0]])
        with pytest.raises(ParameterError, match="targets must be finite"):
            Problem.mean(targets)
        targets[0, 0] = 1.0
        assert targets.flags.writeable

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_targets_rejected(self, bad):
        with pytest.raises(ParameterError, match="targets must be finite"):
            Problem(targets=[[bad, 1.0]], curvature=np.ones(2))

    def test_non_finite_targets_of_wrong_shape_get_the_shape_error(self):
        with pytest.raises(ParameterError, match="targets must be an"):
            Problem.mean(np.full(3, np.nan))

    @pytest.mark.parametrize("curvature", [
        np.ones(4), np.ones(2), np.ones((1, 3)), np.ones((3, 1)), np.float64(1.0),
    ], ids=["too-long", "too-short", "row", "column", "scalar"])
    def test_curvature_of_wrong_shape_rejected(self, curvature):
        with pytest.raises(ParameterError, match="curvature must be a 1-D array of length d = 3"):
            Problem(np.zeros((2, 3)), curvature)

    @pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_curvature_must_be_finite_and_positive(self, bad):
        with pytest.raises(ParameterError, match="curvature must be finite and positive"):
            Problem(np.zeros((2, 3)), np.array([1.0, bad, 2.0]))

    @pytest.mark.parametrize("targets", [np.zeros(3), np.zeros((2, 3, 1)), np.zeros((0, 3)),
                                         np.zeros((2, 0)), np.float64(0.0)],
                             ids=["1-D", "3-D", "no-rows", "no-columns", "scalar"])
    def test_targets_of_wrong_shape_rejected(self, targets):
        with pytest.raises(ParameterError, match="targets must be an"):
            Problem(targets, np.ones(3))
        with pytest.raises(ParameterError, match="targets must be an"):
            Problem.mean(targets)

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
        # Finite targets whose mean overflows: the first step's x - a-bar is inf - inf.
        problem = Problem(targets=np.array([[1.7e308, 0.0], [1.7e308, 0.0]]), curvature=np.ones(2))
        config = SimConfig(steps=3, time_model=QUIET, gamma=0.5)
        with pytest.raises(DivergenceError, match="objective nan"), \
                np.errstate(over="ignore", invalid="ignore"):
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
    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True, False])
    def test_seed_must_be_a_non_negative_int(self, seed):
        with pytest.raises(ParameterError, match="seed must be"):
            SimConfig(steps=1, time_model=QUIET, seed=seed)

    def test_numpy_integer_seed_is_an_int(self):
        problem = Problem.mean(np.random.default_rng(12).standard_normal((2, 5)))
        spec = CompressorSpec("rand_k", k=2)
        plain = SimConfig(steps=3, time_model=QUIET, gamma=0.5, seed=9, compressor=spec)
        wide = SimConfig(steps=3, time_model=QUIET, gamma=0.5, seed=np.uint64(9), compressor=spec)
        assert run_compressed_gd(problem, plain).rows == run_compressed_gd(problem, wide).rows

    @pytest.mark.parametrize("flag", ["no", "", 1, 0, None, np.bool_(False)],
                             ids=["no", "empty", "1", "0", "None", "np.bool_"])
    def test_downlink_compressed_must_be_a_bool(self, flag):
        with pytest.raises(ParameterError, match="downlink_compressed must be a bool"):
            SimConfig(steps=1, time_model=QUIET, compressor=CompressorSpec("top_k", k=1),
                      downlink_compressed=flag)

    def test_numpy_int64_seed_is_accepted(self):
        assert SimConfig(steps=1, time_model=QUIET, seed=np.int64(3)).seed == 3

    @pytest.mark.parametrize("steps", [0, 2.5, True, "3"])
    def test_steps_out_of_range(self, steps):
        with pytest.raises(ParameterError, match="steps must be"):
            SimConfig(steps=steps, time_model=QUIET)

    def test_numpy_integer_steps_are_an_int(self):
        assert SimConfig(steps=np.int64(3), time_model=QUIET).steps == 3

    def test_steps_above_2_32_are_accepted(self):
        # Round indices enter only SeedSequence spawn keys, which take any
        # non-negative int.
        assert SimConfig(steps=2**32 + 1, time_model=QUIET).steps == 2**32 + 1


def _first_draws(rng):
    # The odd uint32 count leaves a buffered half-word, which the next
    # message's draws must continue from.
    return (rng.random(5), rng.choice(1000, 10, replace=False), rng.standard_normal((3, 2)),
            rng.integers(10, size=3, dtype=np.uint32))


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**100])
@pytest.mark.parametrize("stream", [_UPLINK_STREAM, _DOWNLINK_STREAM])
@pytest.mark.parametrize("rounds, n_workers", [
    (range(3), 4),
    (range(2**16, 2**16 + 2), 3),
    (range(1), 2**16 + 2),
    (range(129), 64),
], ids=["from-zero", "rounds-2**16", "workers-2**16", "three-blocks"])
def test_message_generators_match_seed_sequence(seed, stream, rounds, n_workers):
    for round_idx in rounds:
        got = stream_rng(seed, stream, round_idx)
        want = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, round_idx)))
        assert got.bit_generator.state == want.bit_generator.state, round_idx
        # Messages draw from it in worker order; each round's first four are checked.
        for worker in range(min(n_workers, 4)):
            for got_draw, want_draw in zip(_first_draws(got), _first_draws(want), strict=True):
                np.testing.assert_array_equal(got_draw, want_draw, err_msg=str((round_idx, worker)))


def _explicit_run(problem: Problem, config: SimConfig) -> tuple[list, np.ndarray]:
    """``run_compressed_gd`` rebuilt from one operator call per message.

    Each stream takes one generator per round, keyed by (seed, stream,
    round), and every message of the round draws from it in worker order.
    """
    spec, d, n = config.compressor, problem.d, problem.n
    gamma = config.gamma if config.gamma is not None else default_stepsize(problem, spec)
    time_rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(_TIME_STREAM,)))
    bits = message_bits(spec, d)

    def round_rng(stream, round_idx):
        return np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(stream, round_idx)))

    def decoded(vector, rng):
        if spec.kind == "identity":
            return vector.copy()
        if spec.kind == "top_k":
            out = np.zeros(d)
            idx = top_k_indices(vector, spec.k)
            out[idx] = vector[idx]
            return out
        if spec.kind == "rand_k":
            out = np.zeros(d)
            idx = rand_k_indices(d, spec.k, rng)
            out[idx] = vector[idx] * (d / spec.k)
            return out
        if spec.kind == "natural":
            return _round_to_powers_of_two(vector, rng.random(vector.size))
        p, q = rank_r_factors(vector[None], spec.r, *default_matrix_shape(d), rng)
        return rank_r_expand(p, q, d)[0]

    x = np.zeros(d)
    grads = problem.worker_gradients(x)
    rows = [TraceRow(0, *problem.objective_and_grad_norm(x), 0.0, 0, 0)]
    wall, up_total, down_total = 0.0, 0, 0
    for k in range(config.steps):
        down_bits = d * 32
        if config.downlink_compressed:
            down_bits = bits
            grads = problem.worker_gradients(np.zeros(d) + decoded(x, round_rng(_DOWNLINK_STREAM, k)))
        up_rng = round_rng(_UPLINK_STREAM, k)
        agg = np.zeros(d)
        for grad in grads:
            agg += decoded(grad, up_rng)
        t_down, *t_up = sample_time(config.time_model, [down_bits] + [bits] * n, time_rng).tolist()
        x = x - gamma * (agg / n)
        wall += t_down + max(t_up)
        up_total += n * bits
        down_total += down_bits
        grads = problem.worker_gradients(x)
        rows.append(TraceRow(k + 1, *problem.objective_and_grad_norm(x), wall, up_total, down_total))
    return rows, x


NOISY = TimeModelParams(1e-3, 1e-8, 0.1, 0.1)
ALL_SPECS = [CompressorSpec("identity"), CompressorSpec("rand_k", k=50),
             CompressorSpec("top_k", k=50), CompressorSpec("natural"),
             CompressorSpec("rank_r", r=2)]


def _assert_matches_explicit_run(problem: Problem, config: SimConfig) -> None:
    trace = run_compressed_gd(problem, config)
    rows, final_x = _explicit_run(problem, config)
    assert [repr(row) for row in trace.rows] == [repr(row) for row in rows]  # repr is exact
    assert trace.final_x.tobytes() == final_x.tobytes()


@pytest.mark.parametrize("downlink", [False, True])
@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda spec: spec.kind)
def test_seeded_run_matches_explicit_per_message_draws(spec, downlink):
    # At (70, 1000) identity's and top_k's rounds take a batch of 65 rows and
    # one of 5; at (3, 70_000) a row is more than a batch, and natural rounds
    # it in column pieces that end in a remainder.
    assert divmod(70, BATCH_VALUES // 1000) == (1, 5) and 70_000 > BATCH_VALUES
    assert 70_000 % NATURAL_BATCH_VALUES
    for n, d in [(12, 1000), (70, 1000), (3, 70_000)]:
        assert n * d > NATURAL_BATCH_VALUES  # natural's rounds cross a batch boundary
        rng = np.random.default_rng(4)
        for problem in (Problem.random_quadratic(n, d, seed=4),
                        Problem.mean(rng.normal(0.0, 2.0, d) + rng.standard_normal((n, d)))):
            config = SimConfig(steps=3, time_model=NOISY, compressor=spec, seed=2**64 + 3,
                               downlink_compressed=downlink)
            _assert_matches_explicit_run(problem, config)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda spec: spec.kind)
def test_run_peaks_below_one_gradient_array(spec):
    # The uplink computes gradients as it reads them, so a run holds no
    # (n, d) array beside the problem's own targets.
    n, d = 16, 100_000
    rng = np.random.default_rng(6)
    for problem in (Problem.random_quadratic(n, d, seed=6),
                    Problem.mean(rng.normal(0.0, 2.0, d) + rng.standard_normal((n, d)))):
        config = SimConfig(steps=2, time_model=NOISY, compressor=spec, seed=6)
        tracemalloc.start()
        try:
            run_compressed_gd(problem, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * d * 8


def test_time_draws_across_blocks_match_explicit_run():
    # One round prices n + 1 messages, so a block holds 8 rounds here: the
    # run takes two whole blocks and a partial third.
    n, d, steps = 8191, 1, 19
    block = BATCH_VALUES // (n + 1)
    assert block == 8 and steps > 2 * block and steps % block
    problem = Problem.mean(np.random.default_rng(5).standard_normal((n, d)) + 3.0)
    config = SimConfig(steps=steps, time_model=NOISY, seed=7)
    _assert_matches_explicit_run(problem, config)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda spec: spec.kind)
def test_diverging_run_names_the_explicit_runs_round(spec):
    problem = Problem.random_quadratic(4, 100, seed=9)
    config = SimConfig(steps=10, time_model=NOISY, gamma=50.0 / problem.smoothness(),
                       compressor=spec, seed=11)
    rows, _ = _explicit_run(problem, config)
    first = next(row for row in rows if not row.objective <= DIVERGENCE_LIMIT)
    assert first.round < config.steps
    with pytest.raises(DivergenceError) as err:
        run_compressed_gd(problem, config)
    assert str(err.value).startswith(
        f"objective {first.objective:.3e} exceeded {DIVERGENCE_LIMIT:.0e} at round {first.round}; ")


# ROADMAP item 15's exact expectation for rand_k on the diagonal quadratic,
# from x0 = 0.  With e = x - a-bar and omega = d/k - 1, each coordinate's
# second moment follows E e2_{t+1} = A E e2_t + B, where
# A = (1 - gamma h)^2 + gamma^2 h^2 omega / n and
# B = gamma^2 h^2 omega / n^2 * sum_i (a-bar - a_i)^2, and the expected gap
# is 0.5 * sum h E e2.  Fixed before the run: seeds 0..399, rounds 1..12 and
# a Bonferroni z bound over both problems' 24 rounds at a family-wise level
# of 1 %.
ORACLE_PROBLEMS = {"mean": Problem.mean(np.random.default_rng(13).standard_normal((4, 8))),
                   "random_quadratic": Problem.random_quadratic(4, 8, seed=13)}
ORACLE_SEEDS, ORACLE_ROUNDS = 400, 12
ORACLE_Z = NormalDist().inv_cdf(1 - 0.01 / (2 * len(ORACLE_PROBLEMS) * ORACLE_ROUNDS))


def _expected_rand_k_gaps(problem: Problem, gamma: float, k: int, rounds: int) -> np.ndarray:
    """E[f(x_t)] - f* for t = 0..rounds, from the per-coordinate recursion."""
    x_bar, _ = closed_form_optimum(problem)
    h, n, d = problem.curvature, problem.n, problem.d
    omega = d / k - 1
    a = (1 - gamma * h) ** 2 + gamma**2 * h**2 * omega / n
    b = gamma**2 * h**2 * omega / n**2 * ((x_bar - problem.targets) ** 2).sum(axis=0)
    second, gaps = x_bar**2, []
    for _ in range(rounds + 1):
        gaps.append(0.5 * np.sum(h * second))
        second = a * second + b
    return np.array(gaps)


@pytest.mark.parametrize("name", sorted(ORACLE_PROBLEMS))
def test_rand_k_mean_gap_matches_exact_expectation(name):
    problem = ORACLE_PROBLEMS[name]
    _, f_star = closed_form_optimum(problem)
    spec = CompressorSpec("rand_k", k=2)
    gaps = np.empty((ORACLE_SEEDS, ORACLE_ROUNDS))
    for seed in range(ORACLE_SEEDS):
        config = SimConfig(steps=ORACLE_ROUNDS, time_model=QUIET, compressor=spec, seed=seed)
        trace = run_compressed_gd(problem, config)
        gaps[seed] = [row.objective - f_star for row in trace.rows[1:]]
    assert trace.gamma == default_stepsize(problem, spec)
    expected = _expected_rand_k_gaps(problem, trace.gamma, spec.k, ORACLE_ROUNDS)[1:]
    z = (gaps.mean(axis=0) - expected) / (gaps.std(axis=0, ddof=1) / math.sqrt(ORACLE_SEEDS))
    assert np.abs(z).max() < ORACLE_Z, z


@pytest.mark.parametrize("gamma", [None, 0.3])
@pytest.mark.parametrize("name", sorted(ORACLE_PROBLEMS))
def test_identity_gap_matches_closed_form(name, gamma):
    # Bounded by the starting gap: the relative error of a late, small gap
    # grows with the rounds, its error over gap_0 does not.
    problem, rounds = ORACLE_PROBLEMS[name], 40
    x_bar, f_star = closed_form_optimum(problem)
    trace = run_compressed_gd(problem, SimConfig(steps=rounds, time_model=QUIET, gamma=gamma))
    h, gamma = problem.curvature, trace.gamma  # the default stepsize when gamma is None
    want = [0.5 * np.sum(h * (1 - gamma * h) ** (2 * t) * x_bar**2) for t in range(rounds + 1)]
    got = [row.objective - f_star for row in trace.rows]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * want[0])
