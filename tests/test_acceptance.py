"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import itertools
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gradcomm import estimator
from gradcomm.adaptive import SelectionObjective, predicted_cost, select_power
from gradcomm.commodel import TimeModelParams, eta, expected_time, transition_report
from gradcomm.compression import (
    CompressorSpec,
    DenseVector,
    compress,
    decompress,
    index_bits,
    omega_inf,
    rand_k_indices,
)
from gradcomm.netprobe import ACK, PingPongServer, probe
from gradcomm.optimizer import Problem, SimConfig, closed_form_optimum, run_compressed_gd


@contextmanager
def criterion(number, name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.2f}s]")


def test_criterion_1_compression_ratio_exactness():
    with criterion(1, "exact compression ratios"):
        rng = np.random.default_rng(100)
        start = time.perf_counter()
        for _ in range(100):
            b = int(rng.choice([16, 32, 64]))
            d = int(rng.integers(2, 500))
            k = int(rng.integers(1, d + 1))
            rows = int(rng.integers(1, 40))
            cols = int(rng.integers(1, 40))
            r = int(rng.integers(1, min(rows, cols) + 1))
            x = DenseVector(rng.standard_normal(d), bits_per_scalar=b)
            xm = DenseVector(rng.standard_normal(rows * cols), bits_per_scalar=b)

            cases = [
                (CompressorSpec("rand_k", k=k),
                 compress(x, CompressorSpec("rand_k", k=k), seed=1), d, {},
                 Fraction(d, k)),
                (CompressorSpec("top_k", k=k), compress(x, CompressorSpec("top_k", k=k)), d, {},
                 Fraction(d * b, k * b + k * index_bits(d))),
                (CompressorSpec("natural"), compress(x, CompressorSpec("natural"), seed=1), d, {},
                 Fraction(b, 9)),
                (CompressorSpec("rank_r", r=r),
                 compress(xm, CompressorSpec("rank_r", r=r), rows=rows, cols=cols),
                 rows * cols, {"rows": rows, "cols": cols},
                 Fraction(rows * cols, r * (rows + cols))),
            ]
            for spec, msg, dim, shape, expected in cases:
                ratio = omega_inf(spec, dim, b, **shape)
                assert ratio == expected
                assert ratio * msg.bits == dim * b
        assert time.perf_counter() - start < 1.0


def test_criterion_2_compression_properties(natural_bounds):
    with criterion(2, "compression operator properties"):
        start = time.perf_counter()
        # rand_k: exact unbiasedness and the d/k second moment, by full subset
        # enumeration (the output depends only on the realized subset)
        rng = np.random.default_rng(200)
        for d in range(1, 7):
            x = DenseVector(rng.standard_normal(d) + 0.1)
            for k in range(1, d + 1):
                want = {frozenset(c) for c in itertools.combinations(range(d), k)}
                seen = {}
                for seed in range(20_000):
                    key = frozenset(int(i) for i in rand_k_indices(d, k, seed))
                    if key not in seen:
                        seen[key] = decompress(
                            compress(x, CompressorSpec("rand_k", k=k), seed)).values
                    if len(seen) == len(want):
                        break
                assert set(seen) == want
                outputs = np.array(list(seen.values()))
                np.testing.assert_allclose(outputs.mean(axis=0), x.values, atol=1e-12)
                second_moment = np.mean(np.sum(outputs**2, axis=1))
                assert second_moment <= (d / k) * np.sum(x.values**2) + 1e-12

        # top_k contraction on 10^4 random vectors
        for _ in range(10_000):
            d = int(rng.integers(2, 33))
            k = int(rng.integers(1, d + 1))
            x = DenseVector(rng.standard_normal(d))
            err = decompress(compress(x, CompressorSpec("top_k", k=k))).values - x.values
            assert np.sum(err**2) <= (1 - k / d) * np.sum(x.values**2) + 1e-12

        # natural rounding unbiasedness identity on 10^4 magnitudes, 30 binades
        mags = np.exp2(rng.uniform(-15, 15, size=10_000))
        lower, upper, p = natural_bounds(mags)
        np.testing.assert_allclose(p * lower + (1 - p) * upper, mags, rtol=1e-12)
        assert time.perf_counter() - start < 10.0


def test_criterion_3_eta_limits_and_bounds():
    with criterion(3, "real-speedup limits and bounds"):
        # exact limits
        for omega in (1.0, 3.5, 1e5):
            assert eta(TimeModelParams(0.0, 1e-9), 1e8, omega) == omega
        assert eta(TimeModelParams(0.7, 0.0), 1e8, 1e5) == 1.0

        # bounds on 10^4 random draws
        rng = np.random.default_rng(300)
        for _ in range(10_000):
            alpha = float(rng.uniform(1e-9, 1.0))
            beta = float(rng.uniform(1e-12, 1e-3))
            s = float(rng.uniform(1.0, 1e10))
            omega = float(rng.uniform(1.0, 1e7))
            value = eta(TimeModelParams(alpha, beta), s, omega)
            assert 1.0 - 1e-12 <= value
            assert value <= min(omega, 1.0 + beta * s / alpha) * (1 + 1e-12)

        # saturation: the curve plateaus at T(s)/alpha once omega passes
        # 1e4 * beta*s/alpha, within 0.1%
        params = TimeModelParams(5e-3, 2e-9)
        s = 1e9
        plateau = expected_time(params, s) / params.alpha_const
        omega_floor = 1e4 * params.beta_const * s / params.alpha_const
        grid = np.geomspace(omega_floor, 100 * omega_floor, 20)
        report = transition_report(params, s, grid)
        for row in report:
            assert abs(row.speedup - plateau) <= 1e-3 * plateau


def test_criterion_4_area3_transition_speedup():
    with criterion(4, "beta-dominated transitions keep 95% of omega"):
        cases = [
            TimeModelParams(1e-6, 1e-3),
            TimeModelParams(1e-4, 1e-2),
            TimeModelParams(2e-7, 5e-5),
        ]
        for params in cases:
            for s in (1e6, 1e8):
                report = transition_report(params, s, [2.0, 10.0, 100.0])
                for row in report:
                    # both endpoints beta-dominated at the 100x level
                    assert params.beta_const * s >= 100 * params.alpha_const
                    assert params.beta_const * row.compressed_bits >= 100 * params.alpha_const
                    assert row.speedup >= 0.95 * row.omega


def test_criterion_5_estimator_correctness():
    with criterion(5, "online estimator equals batch and is unbiased"):
        start = time.perf_counter()
        rng = np.random.default_rng(500)

        # (a) online equals batch on 10^3 random streams of 10^3 points
        for _ in range(1000):
            n_pts = 1000
            x = rng.uniform(1.0, 1e6, size=n_pts)
            y = rng.uniform(0.1, 2.0) + rng.uniform(1e-9, 1e-5) * x
            y = y + rng.normal(0, 0.01, size=n_pts)
            state = estimator.start(p_max=1e6)
            for i in range(n_pts):
                state = estimator.advance(state, x[i], y[i])
            online = estimator.fit(state)
            batch = estimator.batch_ls(zip(x, y))
            assert online.beta_hat == pytest.approx(batch.beta_hat, rel=1e-9)
            assert online.alpha_hat == pytest.approx(batch.alpha_hat, rel=1e-9)

        # (b) noiseless exact recovery
        alpha, beta = 0.375, 7.5e-7
        x = rng.uniform(1.0, 1e6, size=200)
        state = estimator.start(p_max=1e6)
        for i in range(2):
            state = estimator.advance(state, x[i], alpha + beta * x[i])
        for i in range(2, 200):
            state, fit = estimator.update(state, x[i], alpha + beta * x[i])
            assert fit.beta_hat == pytest.approx(beta, rel=1e-9)
            assert fit.alpha_hat == pytest.approx(alpha, rel=1e-9)

        # (c) Monte-Carlo unbiasedness: 10^4 replications of 50 updates
        alpha, beta = 2.0, 3e-6
        sizes = rng.uniform(1.0, 1e6, size=50)  # conditioned-on design
        reps = 10_000
        alpha_hats = np.empty(reps)
        beta_hats = np.empty(reps)
        for rep in range(reps):
            alphas = alpha + rng.normal(0, 0.1 * alpha, size=50)
            betas = beta + rng.normal(0, 0.1 * beta, size=50)
            y = alphas + betas * sizes
            state = estimator.start(p_max=1e6)
            for i in range(50):
                state = estimator.advance(state, sizes[i], y[i])
            fit = estimator.fit(state)
            alpha_hats[rep], beta_hats[rep] = fit.alpha_hat, fit.beta_hat
        for hats, truth in ((alpha_hats, alpha), (beta_hats, beta)):
            stderr = hats.std(ddof=1) / np.sqrt(reps)
            assert abs(hats.mean() - truth) < 3 * stderr
        assert time.perf_counter() - start < 60.0


def test_criterion_6_simulator_fidelity():
    with criterion(6, "simulator matches closed forms"):
        start = time.perf_counter()
        quiet = TimeModelParams(1e-3, 1e-9)

        # (a) mean problem converges in one step with gamma = 1, exactly
        rng = np.random.default_rng(600)
        problem = Problem.mean(rng.standard_normal((6, 12)))
        config = SimConfig(steps=1, time_model=quiet, gamma=1.0, seed=1)
        trace = run_compressed_gd(problem, config)
        x_star, f_star = closed_form_optimum(problem)
        assert np.array_equal(trace.final_x, x_star)
        assert trace.rows[1].objective == f_star

        # (b) zero-noise wall clock equals K * (T_down + T_up) to 1e-9
        d, n, steps = 24, 5, 9
        problem = Problem.mean(rng.standard_normal((n, d)))
        config = SimConfig(steps=steps, time_model=quiet, gamma=0.5, seed=2)
        trace = run_compressed_gd(problem, config)
        per_round = 2 * expected_time(quiet, d * 32)
        assert trace.rows[-1].wall_clock_s == pytest.approx(steps * per_round, rel=1e-9)

        # (c) realized speedup equals the prediction T(s)+T(s) over T(s)+T(s/omega)
        for spec in (CompressorSpec("rand_k", k=3), CompressorSpec("top_k", k=3),
                     CompressorSpec("natural")):
            params = TimeModelParams(2e-4, 3e-8)
            plain_cfg = SimConfig(steps=steps, time_model=params, gamma=0.05, seed=3)
            comp_cfg = SimConfig(steps=steps, time_model=params, gamma=0.05, seed=3,
                                 compressor=spec)
            t_plain = run_compressed_gd(problem, plain_cfg).rows[-1].wall_clock_s
            t_comp = run_compressed_gd(problem, comp_cfg).rows[-1].wall_clock_s
            omega = omega_inf(spec, d, 32)
            t_full = expected_time(params, d * 32)
            predicted = 2 * t_full / (t_full + expected_time(params, d * 32 / float(omega)))
            assert t_plain / t_comp == pytest.approx(predicted, rel=1e-12)
        assert time.perf_counter() - start < 10.0


def test_criterion_7_adaptive_selector():
    with criterion(7, "adaptive power selection"):
        # limit cases
        assert select_power(SelectionObjective("rand_k", d=777, n=9, alpha=0.0, beta=1e-9))[0] == 1
        assert select_power(SelectionObjective("rand_k", d=777, n=9, alpha=1.0, beta=0.0))[0] == 777

        # monotone along an increasing alpha grid (20 points)
        stars = []
        for alpha in np.linspace(0.0, 2e-3, 20):
            obj = SelectionObjective("rand_k", d=1024, n=16, alpha=float(alpha), beta=1e-9)
            stars.append(select_power(obj)[0])
        assert all(a <= b for a, b in zip(stars, stars[1:]))

        # brute force agreement up to d = 10^4
        rng = np.random.default_rng(700)
        dims = [10_000] + [int(v) for v in rng.integers(2, 2000, size=8)]
        for d in dims:
            family = str(rng.choice(["rand_k", "top_k"]))
            obj = SelectionObjective(family, d=d, n=int(rng.integers(1, 32)),
                                     alpha=float(rng.uniform(0, 1e-2)),
                                     beta=float(rng.uniform(0, 1e-8)))
            best_k, best_cost = None, None
            for k in range(1, d + 1):
                cost = predicted_cost(obj, k)
                if best_cost is None or cost <= best_cost:
                    best_k, best_cost = k, cost
            assert select_power(obj) == (best_k, best_cost)

        # scale invariance
        obj = SelectionObjective("rand_k", d=640, n=8, alpha=4e-4, beta=3e-9)
        base = select_power(obj)[0]
        for c in (0.1, 10.0):
            scaled = SelectionObjective("rand_k", d=640, n=8, alpha=c * 4e-4, beta=c * 3e-9)
            assert select_power(scaled)[0] == base


def test_criterion_8_netprobe_loopback():
    with criterion(8, "loopback probe and exact byte accounting"):
        start = time.perf_counter()
        server = PingPongServer(p_max_bytes=2_000_000)
        port = server.start()
        try:
            # 1000 fuzzed frames without desync
            import socket
            import struct

            rng = np.random.default_rng(800)
            sizes = [int(s) for s in rng.integers(1, 4096, size=1000)]
            with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                for size in sizes:
                    sock.sendall(struct.pack(">Q", size) + rng.bytes(size))
                    assert sock.recv(1) == ACK
                sock.sendall(struct.pack(">Q", 0))

            # probe 1 KB and 1 MB; the fitted slope must be positive
            result = probe("127.0.0.1", port, [1024, 1_000_000], reps=8, warmup=2)
            assert result.error is None
            fit = estimator.batch_ls(
                [(s.size_bytes * 8.0, s.rtt_seconds) for s in result.samples]
            )
            assert fit.beta_hat > 0
        finally:
            server.stop()
        # exact byte accounting across everything the server acknowledged
        exchanges = 1000 + 2 * (8 + 2)
        assert server.messages == exchanges
        expected_in = sum(s + 8 for s in sizes) + (1024 + 8) * 10 + (1_000_000 + 8) * 10
        assert server.bytes_in == expected_in
        assert server.bytes_out == exchanges
        assert time.perf_counter() - start < 30.0


def run_cli(run_dir, env, *args):
    proc = subprocess.run(
        [sys.executable, "-m", "gradcomm.cli", *args],
        cwd=run_dir,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, f"{args}: {proc.stderr}"
    return proc.stdout


def run_pipeline(run_dir: Path, env: dict) -> None:
    run_dir.mkdir(parents=True, exist_ok=True)
    run_cli(run_dir, env, "synth", "--alpha", "0.002", "--beta", "1e-8",
            "--alpha-m", "0.05", "--beta-m", "0.05",
            "--sizes", "64:1048576:16", "--reps", "3", "--seed", "42", "--out", ".")
    run_cli(run_dir, env, "fit", "--samples", "samples.csv", "--out", ".")
    run_cli(run_dir, env, "select", "--fit", "fit_trace.csv", "--family", "rand_k",
            "--d", "256", "--n", "8", "--out", ".")
    final = (run_dir / "fit_trace.csv").read_text().strip().splitlines()[-1].split(",")
    alpha_hat, beta_hat = final[1], final[2]
    run_cli(run_dir, env, "simulate", "--n", "4", "--d", "32", "--steps", "5",
            "--alpha", alpha_hat, "--beta", beta_hat,
            "--compressor", "rand_k", "--k", "8", "--seed", "7", "--out", ".")


def test_criterion_9_end_to_end_pipeline(tmp_path, cli_env):
    with criterion(9, "seeded pipeline reproduces byte-identical outputs"):
        start = time.perf_counter()
        run_a, run_b = tmp_path / "run_a", tmp_path / "run_b"
        run_pipeline(run_a, cli_env)
        run_pipeline(run_b, cli_env)
        produced = sorted(p.name for p in run_a.iterdir())
        assert {"samples.csv", "fit_trace.csv", "jcurve.csv", "trace.csv"} <= set(produced)
        assert produced == sorted(p.name for p in run_b.iterdir())
        for name in produced:
            assert (run_a / name).read_bytes() == (run_b / name).read_bytes(), name
        assert time.perf_counter() - start < 120.0
