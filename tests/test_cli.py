import csv
import hashlib
import json
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gradcomm import adaptive, cli, errors, estimator, netprobe
from gradcomm.adaptive import SelectionObjective, predicted_cost
from gradcomm.cli import main, parse_sizes
from gradcomm.errors import ConfigError, ParameterError
from gradcomm.netprobe import PingPongServer, probe


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class TestSynth:
    def test_zero_noise_exact_line(self, tmp_path):
        rc = main(["synth", "--alpha", "3", "--beta", "2", "--sizes", "1,2",
                   "--seed", "0", "--out", str(tmp_path)])
        assert rc == 0
        rows = read_csv(tmp_path / "samples.csv")
        assert [(r["size_bytes"], float(r["time_seconds"])) for r in rows] == [
            ("1", 5.0), ("2", 7.0)
        ]

    def test_fixed_seed_identical_bytes(self, tmp_path):
        for sub in ("a", "b"):
            out = tmp_path / sub
            rc = main(["synth", "--alpha", "0.01", "--beta", "1e-8",
                       "--alpha-m", "0.1", "--beta-m", "0.1",
                       "--sizes", "16:1048576:10", "--reps", "3",
                       "--seed", "99", "--out", str(out)])
            assert rc == 0
        assert (tmp_path / "a/samples.csv").read_bytes() == (tmp_path / "b/samples.csv").read_bytes()
        assert (tmp_path / "a/synth.manifest.json").read_bytes() == (
            tmp_path / "b/synth.manifest.json"
        ).read_bytes()

    def test_sample_mean_tracks_model(self, tmp_path):
        alpha, beta_per_byte, size = 0.5, 1e-6, 100_000
        rc = main(["synth", "--alpha", str(alpha), "--beta", str(beta_per_byte),
                   "--alpha-m", "0.1", "--beta-m", "0.1",
                   "--sizes", str(size), "--reps", "4000",
                   "--seed", "3", "--out", str(tmp_path)])
        assert rc == 0
        times = np.array([float(r["time_seconds"]) for r in read_csv(tmp_path / "samples.csv")])
        expected = alpha + beta_per_byte * size
        stderr = times.std(ddof=1) / np.sqrt(times.size)
        assert abs(times.mean() - expected) < 3 * stderr

    @pytest.mark.parametrize("reps", ["0", "-1"])
    def test_reps_below_one_exit_2(self, tmp_path, reps):
        rc = main(["synth", "--alpha", "1e-3", "--beta", "1e-9", "--sizes", "1,2",
                   f"--reps={reps}", "--out", str(tmp_path)])
        assert rc == 2
        assert not (tmp_path / "samples.csv").exists()


class TestFit:
    def test_two_point_example(self, tmp_path):
        samples = tmp_path / "samples.csv"
        samples.write_text("size_bytes,time_seconds\n1,5\n2,7\n")
        rc = main(["fit", "--samples", str(samples), "--out", str(tmp_path)])
        assert rc == 0
        rows = read_csv(tmp_path / "fit_trace.csv")
        final = rows[-1]
        assert (int(final["k"]), float(final["alpha_hat"]), float(final["beta_hat"])) == (2, 3.0, 2.0)

    def test_degenerate_csv_exit_3(self, tmp_path, capsys):
        samples = tmp_path / "samples.csv"
        samples.write_text("size_bytes,time_seconds\n5,1\n5,2\n5,3\n")
        rc = main(["fit", "--samples", str(samples), "--out", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "degenerate design" in err
        assert "degenerate design: all message sizes are equal" in err

    def test_rows_start_at_first_distinct_size(self, tmp_path):
        rc = main(["synth", "--alpha", "1e-3", "--beta", "2e-9", "--alpha-m", "0.1",
                   "--sizes", "64:65536:8", "--reps", "3", "--seed", "5", "--out", str(tmp_path)])
        assert rc == 0
        rc = main(["fit", "--samples", str(tmp_path / "samples.csv"), "--out", str(tmp_path)])
        assert rc == 0
        rows = read_csv(tmp_path / "fit_trace.csv")
        assert [int(r["k"]) for r in rows] == list(range(4, 25))
        batch = estimator.batch_ls(estimator.read_samples_csv(tmp_path / "samples.csv"))
        assert int(rows[-1]["k"]) == batch.k
        assert float(rows[-1]["alpha_hat"]) == pytest.approx(batch.alpha_hat, rel=1e-9)
        assert float(rows[-1]["beta_hat"]) == pytest.approx(batch.beta_hat * 8, rel=1e-9)

    def test_recovers_noisy_synth_parameters(self, tmp_path):
        alpha, beta = 0.05, 2e-7
        rc = main(["synth", "--alpha", str(alpha), "--beta", str(beta),
                   "--alpha-m", "0.1", "--beta-m", "0.1",
                   "--sizes", "64:1048576:40", "--reps", "25",
                   "--seed", "7", "--out", str(tmp_path)])
        assert rc == 0
        rc = main(["fit", "--samples", str(tmp_path / "samples.csv"), "--out", str(tmp_path)])
        assert rc == 0
        final = read_csv(tmp_path / "fit_trace.csv")[-1]
        assert float(final["alpha_hat"]) == pytest.approx(alpha, rel=0.10)
        assert float(final["beta_hat"]) == pytest.approx(beta, rel=0.10)

    def test_missing_inputs_exit_2(self, tmp_path):
        assert main(["fit", "--out", str(tmp_path)]) == 2
        assert main(["fit", "--samples", str(tmp_path / "none.csv"), "--out", str(tmp_path)]) == 2

    def test_non_numeric_sample_exit_2(self, tmp_path, capsys):
        samples = tmp_path / "samples.csv"
        samples.write_text("size_bytes,time_seconds\n1,5\nlots,7\n")
        rc = main(["fit", "--samples", str(samples), "--out", str(tmp_path)])
        assert rc == 2
        assert "samples.csv" in capsys.readouterr().err

    def test_short_sample_row_names_its_line(self, tmp_path):
        samples = tmp_path / "short.csv"
        samples.write_text("size_bytes,time_seconds\n1,5\n2\n")
        with pytest.raises(ParameterError, match="short.csv, line 3"):
            estimator.read_samples_csv(samples)
        assert main(["fit", "--samples", str(samples), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("row", ["nan,5", "inf,5", "-inf,5", "2,nan", "2,inf", "2,-inf",
                                     "1e308,3", "1e200,3", "0,1", "-2,5"])
    def test_non_finite_sample_names_its_line(self, tmp_path, row):
        samples = tmp_path / "odd.csv"
        samples.write_text(f"size_bytes,time_seconds\n1,5\n{row}\n3,9\n")
        reason = "size_bytes must be positive" if row in ("0,1", "-2,5") else "non-finite"
        with pytest.raises(ParameterError, match=f"odd.csv, line 3: {reason}"):
            estimator.read_samples_csv(samples)
        assert main(["fit", "--samples", str(samples), "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "fit_trace.csv").exists()

    def test_overflowed_sums_are_named(self, tmp_path, capsys):
        samples = tmp_path / "samples.csv"
        samples.write_text("size_bytes,time_seconds\n1,2\n1e153,3\n1e153,4\n1e153,5\n5,4\n")
        rc = main(["fit", "--samples", str(samples), "--out", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "running sums overflowed" in err and "forgetting" not in err
        assert not (tmp_path / "fit_trace.csv").exists()

    def test_overflowed_time_sums_are_named(self, tmp_path, capsys):
        samples = tmp_path / "samples.csv"
        for rows in (
            "1,1e307\n2,1e307\n",  # each bits * time passes the reader; their sum s_xy does not
            # Every sum and product fits; w * s_xy - s_x * s_y, and so beta, does not.
            "0.125,-1.1666666666666667e308\n0.25,0.8333333333333334e308\n",
        ):
            samples.write_text("size_bytes,time_seconds\n" + rows)
            assert main(["fit", "--samples", str(samples), "--out", str(tmp_path)]) == 3
            assert "running sums overflowed" in capsys.readouterr().err
            assert not (tmp_path / "fit_trace.csv").exists()

    def test_blank_lines_and_extra_columns_are_ignored(self, tmp_path):
        samples = tmp_path / "samples.csv"
        samples.write_text("rep,time_seconds,size_bytes\n0,5,1\n\n1,7,2\n\n")
        assert estimator.read_samples_csv(samples).tolist() == [[8.0, 5.0], [16.0, 7.0]]


# Peak traced allocation of ``fit --samples`` on the benchmark pipeline's
# 64 sizes x 1000 reps samples file.  Measured on CPython 3.11 and NumPy 2.4:
# 16.2 MiB while the reader returned a list of tuples and one fit was
# computed per sample, 9.8 MiB with the bulk reader and fit_columns.
FIT_PEAK_BOUND_MIB = 12.0


def test_fit_memory_peak_stays_below_bound(tmp_path, capsys):
    assert main(["synth", "--alpha", "6e-05", "--beta", "1e-09", "--alpha-m", "0.5",
                 "--beta-m", "0.001", "--sizes", "64:67108864:64", "--reps", "1000",
                 "--seed", "7", "--out", str(tmp_path)]) == 0
    argv = ["fit", "--samples", str(tmp_path / "samples.csv"), "--out", str(tmp_path)]
    assert main(argv) == 0  # imports and first-call caches stay out of the measurement
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "k=64000 " in capsys.readouterr().out
    assert peak < FIT_PEAK_BOUND_MIB * 2**20


class TestSelect:
    def test_alpha_zero_selects_one(self, tmp_path):
        rc = main(["select", "--alpha", "0", "--beta", "1e-6", "--family", "rand_k",
                   "--d", "128", "--n", "16", "--out", str(tmp_path)], )
        assert rc == 0
        rows = read_csv(tmp_path / "jcurve.csv")
        assert len(rows) == 128
        costs = [float(r["predicted_cost"]) for r in rows]
        assert costs.index(min(costs)) == 0

    def test_beta_zero_selects_d(self, tmp_path, capsys):
        rc = main(["select", "--alpha", "1", "--beta", "0", "--family", "rand_k",
                   "--d", "64", "--n", "4", "--out", str(tmp_path)])
        assert rc == 0
        assert "k_star=64" in capsys.readouterr().out

    def test_reads_last_fit_row(self, tmp_path, capsys):
        trace = tmp_path / "fit_trace.csv"
        trace.write_text("k,alpha_hat,beta_hat\n2,1.0,0.0\n3,0.0,8e-6\n")
        rc = main(["select", "--fit", str(trace), "--family", "rand_k",
                   "--d", "32", "--n", "9", "--out", str(tmp_path)])
        assert rc == 0
        # last row has alpha=0, so the smallest power wins
        assert "k_star=1" in capsys.readouterr().out

    def test_negative_exponent_alpha_is_a_value(self, tmp_path, capsys):
        outputs = []
        for alpha in (["--alpha", "-1e-3"], ["--alpha=-1e-3"]):
            rc = main(["select", *alpha, "--beta", "1e-9", "--d", "100", "--n", "4",
                       "--out", str(tmp_path)])
            assert rc == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith("k_star=")

    def test_requires_parameters(self, tmp_path):
        assert main(["select", "--d", "8", "--n", "2", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("flag", ["--alpha", "--beta"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_coefficient_exit_2(self, tmp_path, flag, value):
        args = {"--alpha": "1e-3", "--beta": "1e-9", flag: value}
        rc = main(["select", *(item for pair in args.items() for item in pair),
                   "--d", "100", "--n", "4", "--out", str(tmp_path)])
        assert rc == 2

    def test_fit_trace_without_alpha_column_exit_2(self, tmp_path, capsys):
        trace = tmp_path / "fit_trace.csv"
        trace.write_text("k,beta_hat\n2,8e-6\n")
        rc = main(["select", "--fit", str(trace), "--d", "32", "--n", "9",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "fit_trace.csv" in capsys.readouterr().err

    def test_non_numeric_fit_trace_exit_2(self, tmp_path, capsys):
        trace = tmp_path / "fit_trace.csv"
        trace.write_text("k,alpha_hat,beta_hat\n2,1.0,0.0\n3,soon,8e-6\n")
        rc = main(["select", "--fit", str(trace), "--d", "32", "--n", "9",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "fit_trace.csv" in capsys.readouterr().err

    def test_short_last_fit_row_exit_2(self, tmp_path, capsys):
        trace = tmp_path / "fit_trace.csv"
        trace.write_text("k,alpha_hat,beta_hat\n2,1.0,0.0\n3,1.0\n")
        rc = main(["select", "--fit", str(trace), "--d", "32", "--n", "9",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "fit_trace.csv" in capsys.readouterr().err

    def test_blank_lines_after_last_fit_row_are_skipped(self, tmp_path, capsys):
        trace = tmp_path / "fit_trace.csv"
        trace.write_text("k,alpha_hat,beta_hat\n2,1.0,0.0\n3,0.0,8e-6\n\n\n")
        rc = main(["select", "--fit", str(trace), "--d", "32", "--n", "9",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert "k_star=1" in capsys.readouterr().out

    @pytest.mark.parametrize("family", ["rand_k", "top_k"])
    def test_jcurve_rows_are_predicted_costs(self, tmp_path, capsys, family):
        rc = main(["select", "--alpha", "2e-3", "--beta", "1e-8", "--family", family,
                   "--d", "3000", "--n", "16", "--out", str(tmp_path)])
        assert rc == 0
        obj = SelectionObjective(family, d=3000, n=16, alpha=2e-3, beta=1e-8 / 8)
        rows = [(int(r["k"]), float(r["predicted_cost"]))
                for r in read_csv(tmp_path / "jcurve.csv")]
        assert rows == [(k, predicted_cost(obj, k)) for k in range(1, 3001)]
        k_min, cost_min = min(reversed(rows), key=lambda row: row[1])
        assert f"k_star={k_min} predicted_cost={cost_min!r}" in capsys.readouterr().out


class TestRegions:
    def test_classification_and_curve(self, tmp_path):
        rc = main(["regions", "--alpha", "1e-3", "--beta", "1e-9",
                   "--sizes", "1:100000000:7", "--out", str(tmp_path)])
        assert rc == 0
        regions = read_csv(tmp_path / "regions.csv")
        assert regions[0]["region"] == "area1_alpha_dominated"
        assert regions[-1]["region"] == "area3_beta_dominated"
        curve = read_csv(tmp_path / "speedup.csv")
        speeds = [float(r["speedup"]) for r in curve]
        assert all(a <= b + 1e-12 for a, b in zip(speeds, speeds[1:]))

    def test_degenerate_model_exit_2(self, tmp_path):
        rc = main(["regions", "--alpha", "0", "--beta", "0", "--sizes", "10",
                   "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("bad", [["--rho=nan"], ["--rho", "0.5"], ["--omegas", "2,nan"],
                                     ["--omegas", "0.5"]])
    def test_bad_input_writes_no_file(self, tmp_path, bad):
        out = tmp_path / "out"
        rc = main(["regions", "--alpha", "1e-3", "--beta", "1e-8", "--sizes", "10,100",
                   *bad, "--out", str(out)])
        assert rc == 2
        assert not out.exists()


class TestSimulate:
    def test_config_file_with_overrides(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "n = 4\nd = 16\nsteps = 3\nalpha = 0.001\nbeta = 1e-8\n"
            "compressor.kind = rand_k\ncompressor.k = 4\nseed = 7\n"
        )
        rc = main(["simulate", "--config", str(config), "--steps", "5",
                   "--out", str(tmp_path)])
        assert rc == 0
        rows = read_csv(tmp_path / "trace.csv")
        assert len(rows) == 6  # round 0 plus 5 steps
        manifest = json.loads((tmp_path / "simulate.manifest.json").read_text())
        assert manifest["config"]["steps"] == 5
        assert manifest["config"]["compressor.kind"] == "rand_k"
        assert manifest["version"]

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("n = 4\nd = 8\nsteps = 2\nalpha = 1\nbeta = 1\nbogus = 3\n")
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_missing_config_file_exit_2(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_schema_identical_between_compressors(self, tmp_path):
        base = ["simulate", "--n", "3", "--d", "8", "--steps", "4",
                "--alpha", "1e-3", "--beta", "1e-8", "--gamma", "0.2", "--seed", "11"]
        assert main(base + ["--out", str(tmp_path / "id")]) == 0
        assert main(base + ["--compressor", "rand_k", "--k", "8",
                            "--out", str(tmp_path / "rk")]) == 0
        id_rows = read_csv(tmp_path / "id/trace.csv")
        rk_rows = read_csv(tmp_path / "rk/trace.csv")
        assert id_rows[0].keys() == rk_rows[0].keys()
        # rand_k with k=d transmits the identical vector, so the traces agree
        assert id_rows == rk_rows

    def test_alpha_zero_uplink_ratio_is_omega(self, tmp_path):
        # uplink-only accounting: subtract the known zero-noise downlink time
        d, k, steps, beta_per_byte = 64, 4, 5, 1e-6
        omega = d / k
        base = ["simulate", "--n", "3", "--d", str(d), "--steps", str(steps),
                "--alpha", "0", "--beta", str(beta_per_byte), "--gamma", "0.05",
                "--seed", "2"]
        assert main(base + ["--out", str(tmp_path / "id")]) == 0
        assert main(base + ["--compressor", "rand_k", "--k", str(k),
                            "--out", str(tmp_path / "rk")]) == 0
        beta_bit = beta_per_byte / 8
        t_down = steps * beta_bit * d * 32
        plain = float(read_csv(tmp_path / "id/trace.csv")[-1]["wall_clock_s"])
        comp = float(read_csv(tmp_path / "rk/trace.csv")[-1]["wall_clock_s"])
        assert (plain - t_down) / (comp - t_down) == pytest.approx(omega, rel=1e-9)

    def test_determinism(self, tmp_path):
        args = ["simulate", "--n", "3", "--d", "8", "--steps", "4",
                "--alpha", "1e-3", "--beta", "1e-8", "--alpha-m", "0.1",
                "--beta-m", "0.1", "--seed", "5"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a/trace.csv").read_bytes() == (tmp_path / "b/trace.csv").read_bytes()


    @pytest.mark.parametrize("gamma", ["nan", "inf", "-inf"])
    def test_non_finite_stepsize_exit_2(self, tmp_path, capsys, gamma):
        rc = main(["simulate", "--n", "2", "--d", "4", "--steps", "2", "--alpha", "1e-3",
                   "--beta", "1e-8", f"--gamma={gamma}", "--out", str(tmp_path)])
        assert rc == 2
        assert "stepsize must be" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    def test_divergence_exit_1_without_out_dir(self, tmp_path, capsys):
        rc = main(["simulate", "--n", "2", "--d", "3", "--steps", "50", "--alpha", "1e-3",
                   "--beta", "1e-8", "--gamma", "5", "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: objective") and err.endswith("reduce the stepsize\n")
        assert not (tmp_path / "out").exists()


# sha256 of trace.csv from GOLDEN_ARGS, recorded before the simulator added
# uplink gradients in-process instead of through compress/decompress
# messages.  They pin that the two paths give the same trace; never
# regenerate them from the current code.  The rand_k, natural and rank_r
# entries were re-recorded when the seeded kinds' randomness moved
# from one generator per message to one per (seed, stream, round), drawn in
# worker order; identity and top_k were not.  Every entry was re-recorded
# when the trace's objective and grad_norm became O(d) closed forms in the
# mean target: only those two columns moved (objective by <= 6e-16
# relative, grad_norm by <= 1.2e-15 of its round-0 value), while round,
# wall_clock_s, uplink_bits, downlink_bits and final_x were checked
# byte-identical against the previous code first.
# The rand_k entries were re-recorded when rand_k's index sets moved from
# one rng.choice per row to Floyd's rule, drawn for the whole round in one
# stacked pass: only objective and grad_norm moved, while round,
# wall_clock_s, uplink_bits and downlink_bits were checked byte-identical
# against the previous code first.
GOLDEN_ARGS = ["simulate", "--n", "4", "--d", "17", "--steps", "5", "--alpha", "1e-3",
               "--beta", "1e-8", "--alpha-m", "0.1", "--beta-m", "0.1", "--seed", "7"]
GOLDEN_KIND_ARGS = {"identity": [], "rand_k": ["--k", "5"], "top_k": ["--k", "5"],
                    "natural": [], "rank_r": ["--r", "2"]}
GOLDEN_TRACE_SHA256 = {
    ("identity", False): "3dfc3b632285a4ddab76f870fbcc08adc2577966e9b1091449dd96ab33909ff4",
    ("identity", True): "3dfc3b632285a4ddab76f870fbcc08adc2577966e9b1091449dd96ab33909ff4",
    ("rand_k", False): "c4c234610b547f2670e835dff13f57f4a4aea6b3b06718bc8128a90902775c57",
    ("rand_k", True): "6d949c420d5e174ebce7b923661785d6e3b53596f562bb972c3bae1bd94664cd",
    ("top_k", False): "c867d4002db938232b1fa6b06edba7106cbe01bfb3979aa654444f903689859e",
    ("top_k", True): "1286609c743c12e2e0ecaeb9665836359fc84e96fe193596bdfaa4b49b27007b",
    ("natural", False): "8684a26a4072af016a32fa17151054ad844c248d6aebd47431aa82ef54545b27",
    ("natural", True): "b37662018d338fcdc93a25d07b2315ff7c867c0476ba42afea553dbfbcd64c40",
    ("rank_r", False): "c7cbd37fb1caff4923f973d06ae214d522b2ca6001f9f7e321ea13fb0f08a65c",
    ("rank_r", True): "5d79e1cd035c6c1b4e003ac3dabee29d0443f90cafe2539888addf99f9279959",
}


@pytest.mark.parametrize("kind,downlink", sorted(GOLDEN_TRACE_SHA256))
def test_simulate_trace_matches_golden_hash(tmp_path, kind, downlink):
    args = GOLDEN_ARGS + ["--compressor", kind] + GOLDEN_KIND_ARGS[kind]
    if downlink:
        args.append("--downlink-compressed")
    assert main(args + ["--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_TRACE_SHA256[kind, downlink]


def test_trace_does_not_depend_on_blas_threads(tmp_path, cli_env):
    # d = 50 000 is long enough for a multi-threaded BLAS dot product to split
    # its sum, which changed grad_norm's last digits with the thread count.
    args = ["simulate", "--n", "4", "--d", "50000", "--steps", "3", "--alpha", "1e-3",
            "--beta", "1e-8", "--gamma", "0.5", "--seed", "1"]
    traces = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = {**cli_env, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-m", "gradcomm", *args, "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        traces.append((out / "trace.csv").read_bytes())
    assert traces[0] == traces[1]


# sha256 of trace.csv from MULTI_BLOCK_ARGS: 50 workers over 100 rounds send
# 5000 uplink messages.  First recorded while every message's generator was
# built from its own SeedSequence; every entry was re-recorded when
# the randomness moved to one generator per (seed, stream, round), drawn in
# worker order.  Never regenerate them from the current code.
# Every entry was re-recorded when the trace's objective and grad_norm
# became O(d) closed forms in the mean target: only those two columns
# moved (objective by <= 6e-16 relative, grad_norm by <= 1.2e-15 of its
# round-0 value), while round, wall_clock_s, uplink_bits, downlink_bits and
# final_x were checked byte-identical against the previous code first.
# The rand_k entries were re-recorded when rand_k's index sets moved from
# one rng.choice per row to Floyd's rule, drawn for the whole round in one
# stacked pass: only objective and grad_norm moved, while round,
# wall_clock_s, uplink_bits and downlink_bits were checked byte-identical
# against the previous code first.
MULTI_BLOCK_ARGS = ["simulate", "--n", "50", "--d", "6", "--steps", "100", "--alpha", "1e-3",
                    "--beta", "1e-8", "--alpha-m", "0.1", "--beta-m", "0.1", "--seed", "11"]
MULTI_BLOCK_KIND_ARGS = {"rand_k": ["--k", "2"], "natural": [], "rank_r": ["--r", "1"]}
MULTI_BLOCK_TRACE_SHA256 = {
    ("rand_k", False): "ac0c20d6b305582a64efaf4ababbb6aee206c9cb7ce06d0f36824856d44d1bca",
    ("rand_k", True): "6bc46aad9a85599f38c8ac55065bce31172a4a0ce37ac0f1c9d1eb85617f1004",
    ("natural", False): "09affa953500f1fa44b1ab531b0b9113b58a2dc06dca25b5514924ff4a4fb1b3",
    ("natural", True): "8117ff2238ae7f9fb8d3230957a9773921d8ea8b2f807ed277aa5d2ca84ab05b",
    ("rank_r", False): "dd348b89fb0074ea212f5ed2cac811cdc6fe091f5b1465b282142845cc7d471b",
    ("rank_r", True): "8d4d21eb45417a66a0dc376b0bec5c523d65625d3ee1944f3fecfd32a85d35f2",
}


@pytest.mark.parametrize("kind,downlink", sorted(MULTI_BLOCK_TRACE_SHA256))
def test_multi_block_trace_matches_golden_hash(tmp_path, kind, downlink):
    args = MULTI_BLOCK_ARGS + ["--compressor", kind] + MULTI_BLOCK_KIND_ARGS[kind]
    if downlink:
        args.append("--downlink-compressed")
    assert main(args + ["--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest()
    assert digest == MULTI_BLOCK_TRACE_SHA256[kind, downlink]


# sha256 of trace.csv from BATCHED_ARGS, recorded before the simulator added
# a whole round's messages in one call.  70 workers at d = 1000 are 70 000
# values a round, more than one batch of them.  Never regenerate them from
# the current code.  The rand_k, natural and rank_r entries were re-recorded
# when the seeded kinds' randomness moved to one generator per
# (seed, stream, round), drawn in worker order; identity and top_k were
# not.  Every entry was re-recorded when the trace's objective and grad_norm
# became O(d) closed forms in the mean target: only those two columns
# moved (objective by <= 6e-16 relative, grad_norm by <= 1.2e-15 of its
# round-0 value), while round, wall_clock_s, uplink_bits, downlink_bits and
# final_x were checked byte-identical against the previous code first.
# The rand_k entries were re-recorded when rand_k's index sets moved from
# one rng.choice per row to Floyd's rule, drawn for the whole round in one
# stacked pass: only objective and grad_norm moved, while round,
# wall_clock_s, uplink_bits and downlink_bits were checked byte-identical
# against the previous code first.
BATCHED_ARGS = ["simulate", "--n", "70", "--d", "1000", "--steps", "3", "--alpha", "1e-3",
                "--beta", "1e-8", "--alpha-m", "0.1", "--beta-m", "0.1", "--seed", "5"]
BATCHED_KIND_ARGS = {"identity": [], "rand_k": ["--k", "50"], "top_k": ["--k", "50"],
                     "natural": [], "rank_r": ["--r", "2"]}
BATCHED_TRACE_SHA256 = {
    ("identity", False): "923a7e4797fe9eee2400210255434340dd62b19bd970da33063758745957a7cf",
    ("identity", True): "923a7e4797fe9eee2400210255434340dd62b19bd970da33063758745957a7cf",
    ("rand_k", False): "84b74ec112cb86045c3f4ff58f07ec192454fa52a5c9f2d07cb7a7e3afe95e2a",
    ("rand_k", True): "b892a8b1b66f9801854ec27e8b00e73ec947ce9fa26f4e405a9b0eb2b8391f5a",
    ("top_k", False): "7093252f23467a2b838324d11b5a5316ebc4480a0c9ba10f4e581c0f0c235ef4",
    ("top_k", True): "f3feb4e2052e13deaa1058f30a3692b53f7f6a6e360698d961975fec9c561d25",
    ("natural", False): "ff07729808cd87292e51a6524c0b02e9cf394673834e2bf4374752142ab38a24",
    ("natural", True): "a3d3dd5a8d65b0e579aefa32457f1ed9ba57deef63c551aa1708b5b8a2cf1446",
    ("rank_r", False): "8864436f90e70d4a55e380bec2ce0329ade910aeef035fb32d2d71a96a684e37",
    ("rank_r", True): "5e4d4907b422fd27e7176047e28299ae89aebd117e00e61e637ae183c164eb1d",
}


@pytest.mark.parametrize("kind,downlink", sorted(BATCHED_TRACE_SHA256))
def test_batched_trace_matches_golden_hash(tmp_path, kind, downlink):
    args = BATCHED_ARGS + ["--compressor", kind] + BATCHED_KIND_ARGS[kind]
    if downlink:
        args.append("--downlink-compressed")
    assert main(args + ["--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest()
    assert digest == BATCHED_TRACE_SHA256[kind, downlink]


# sha256 of simulate.manifest.json and trace.csv for each SETTINGS_RUNS case,
# recorded while simulate still listed its settings in three places (flags,
# config keys and an override map).  They pin how the config file and the
# flags combine, key by key; never regenerate them from the current code.
# The trace.csv entries of the rand_k and rank_r runs (file, flags and the
# three downlink runs) were re-recorded when the seeded kinds'
# randomness moved to one generator per (seed, stream, round), drawn in
# worker order; the top_k run's trace was not.  Every trace.csv entry was
# re-recorded when the trace's objective and grad_norm became O(d) closed
# forms in the mean target: only those two columns moved (objective by
# <= 6e-16 relative, grad_norm by <= 1.2e-15 of its round-0 value), while
# the other columns and final_x were checked byte-identical against the
# previous code first.  The manifests are the original records.
# The trace.csv entries of the rand_k config file (file and its three
# downlink runs) were re-recorded when rand_k's index sets moved from one
# rng.choice per row to Floyd's rule, drawn for the whole round in one
# stacked pass: only objective and grad_norm moved, while the other
# columns and the manifests were checked byte-identical first.
SETTINGS_FILE = ("n = 3\nd = 12\nsteps = 4\ngamma = 0.25\nalpha = 0.001\nbeta = 1e-8\n"
                 "alpha_m = 0.1\nbeta_m = 0.1\ncompressor.kind = rand_k\ncompressor.k = 4\n"
                 "seed = 7\n")
SETTINGS_RUNS = {
    "file": (SETTINGS_FILE, []),
    "flags": (None, ["--n", "3", "--d", "12", "--steps", "4", "--alpha", "1e-3",
                     "--beta", "1e-8", "--alpha-m", "0.1", "--compressor", "rank_r",
                     "--r", "2", "--seed", "3"]),
    "flags_override_file": (SETTINGS_FILE, ["--compressor", "top_k", "--k", "5", "--seed", "9"]),
    "downlink_file": (SETTINGS_FILE + "downlink_compressed = true\n", []),
    "downlink_flag": (SETTINGS_FILE, ["--downlink-compressed"]),
    "downlink_both": (SETTINGS_FILE + "downlink_compressed = true\n", ["--downlink-compressed"]),
}
SETTINGS_SHA256 = {
    ("file", "simulate.manifest.json"):
        "7921afe34fa62093195368d597082174d83194197b43373ccf65822e8cb3db7c",
    ("file", "trace.csv"):
        "095cfc99e96c41bdf750a3007ed6bdcefe6dda85dc5dccc5cba6173eeaa1a03a",
    ("flags", "simulate.manifest.json"):
        "de2911511bc470a39c207126a8b00672237a54cb03bb88844f7fe0ef2e8b0837",
    ("flags", "trace.csv"):
        "eef0ca47b596ed3b5607633ed428d8cf61900c02817503c440e6cc4cb39c9ce9",
    ("flags_override_file", "simulate.manifest.json"):
        "7a3a2f32072c33a69cc9107cf1ae5a2249dfd553831f57ca8c1e0155fd12a932",
    ("flags_override_file", "trace.csv"):
        "7c9da321bea073836db800df52342bd40e35e2096bc839d8e7f2d86287a3506a",
    ("downlink_file", "simulate.manifest.json"):
        "b78865e247f264420aa0a4d369ab662fe4a07c5c6e1a9c8dcb7b0ea500258be5",
    ("downlink_file", "trace.csv"):
        "a90ada07f8abd1751a3e80776d0ede61ea8271fc5ae2eb987fd7f521097ac492",
    ("downlink_flag", "simulate.manifest.json"):
        "b78865e247f264420aa0a4d369ab662fe4a07c5c6e1a9c8dcb7b0ea500258be5",
    ("downlink_flag", "trace.csv"):
        "a90ada07f8abd1751a3e80776d0ede61ea8271fc5ae2eb987fd7f521097ac492",
    ("downlink_both", "simulate.manifest.json"):
        "b78865e247f264420aa0a4d369ab662fe4a07c5c6e1a9c8dcb7b0ea500258be5",
    ("downlink_both", "trace.csv"):
        "a90ada07f8abd1751a3e80776d0ede61ea8271fc5ae2eb987fd7f521097ac492",
}


@pytest.mark.parametrize("run,filename", sorted(SETTINGS_SHA256))
def test_simulate_settings_match_golden_hash(tmp_path, run, filename):
    config, flags = SETTINGS_RUNS[run]
    argv = ["simulate", *flags, "--out", str(tmp_path / "out")]
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert main(argv) == 0
    digest = hashlib.sha256((tmp_path / "out" / filename).read_bytes()).hexdigest()
    assert digest == SETTINGS_SHA256[run, filename]


# A value given to --downlink-compressed overrides the file's; bare, it means true.
@pytest.mark.parametrize("value,run", [(["false"], "file"), (["off"], "file"),
                                       (["true"], "downlink_file"), ([], "downlink_file")])
def test_downlink_flag_value_overrides_the_file(tmp_path, value, run):
    (tmp_path / "run.cfg").write_text(SETTINGS_FILE + "downlink_compressed = true\n")
    argv = ["simulate", "--config", str(tmp_path / "run.cfg"), "--downlink-compressed", *value,
            "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    for filename in ("simulate.manifest.json", "trace.csv"):
        digest = hashlib.sha256((tmp_path / "out" / filename).read_bytes()).hexdigest()
        assert digest == SETTINGS_SHA256[run, filename]


def test_downlink_flag_refuses_a_non_boolean(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["simulate", "--n", "2", "--d", "3", "--steps", "1", "--alpha", "1e-3",
              "--beta", "1e-8", "--downlink-compressed", "maybe", "--out", str(tmp_path)])
    assert exit_info.value.code == 2
    assert "invalid boolean value: 'maybe'" in capsys.readouterr().err


# sha256 of the offline outputs of GOLDEN_OFFLINE_RUNS, recorded while
# write_csv still went through csv.writer and the sample and fit-trace readers
# through csv.DictReader.  They pin that every byte stayed the same; never
# regenerate them from the current code.  "{name}" in an argument is the output
# directory of the earlier run of that name.
GOLDEN_OFFLINE_RUNS = {
    "synth": ["synth", "--alpha", "0.01", "--beta", "1e-8", "--alpha-m", "0.1",
              "--beta-m", "0.1", "--sizes", "16:1048576:40", "--reps", "5", "--seed", "99"],
    "fit": ["fit", "--samples", "{synth}/samples.csv"],
    "fit_forgetting": ["fit", "--samples", "{synth}/samples.csv", "--forgetting", "0.9"],
    "select": ["select", "--fit", "{fit}/fit_trace.csv", "--d", "10000", "--n", "16"],
    "regions": ["regions", "--alpha", "1e-3", "--beta", "1e-8", "--sizes", "16:1048576:20"],
}
GOLDEN_OFFLINE_SHA256 = {
    ("synth", "samples.csv"):
        "c2644fbaee132c8a279bbead684c299befa375f23df38f3b601dafe622d8e769",
    ("fit", "fit_trace.csv"):
        "53aa2ee11be579512afb0fefd138ed39417f0a7240297a0d61d21518dbc0eaf3",
    ("fit_forgetting", "fit_trace.csv"):
        "fda2f9f1b1af7f47e2bb4a2034d83ac8cbacf3fc216cc466fcac526ca094bde3",
    ("select", "jcurve.csv"):
        "f5fb7bc982870e02a1edf1de722898cefa9654707ee51ac7c1a739ef41eca4e8",
    ("regions", "regions.csv"):
        "c8244fa8083fb6bdc4c76cd894a3ab0c7afb428f0fc142ad0259e9f190e516fb",
    ("regions", "speedup.csv"):
        "5f70732cb1313939e12b9eeef3c0cd4bff5968114374784610620f9b0e0e2a21",
}


@pytest.fixture(scope="module")
def golden_offline_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("golden_offline")
    dirs = {name: str(base / name) for name in GOLDEN_OFFLINE_RUNS}
    for name, argv in GOLDEN_OFFLINE_RUNS.items():
        assert main([arg.format(**dirs) for arg in argv] + ["--out", dirs[name]]) == 0, name
    return base


@pytest.mark.parametrize("run,filename", sorted(GOLDEN_OFFLINE_SHA256))
def test_offline_output_matches_golden_hash(golden_offline_dir, run, filename):
    digest = hashlib.sha256((golden_offline_dir / run / filename).read_bytes()).hexdigest()
    assert digest == GOLDEN_OFFLINE_SHA256[run, filename]


# Probe samples written through netprobe.write_samples_csv, and the sha256 of
# the bytes, recorded while ProbeSample was a dataclass whose fields were
# written one by one.  It pins that every byte stayed the same; never
# regenerate it from the current code.
PROBE_ROWS = [netprobe.ProbeSample(1, 1e-9, 0),
              netprobe.ProbeSample(1048576, 0.012345678901234567, 4),
              netprobe.ProbeSample(3, 2.5e-05, 1),
              netprobe.ProbeSample(1 << 30, 1.0, 123)]
GOLDEN_PROBE_SAMPLES_SHA256 = "4fac6fadfb5de084fb1694d34ed0c34967a67af1b04a9e5cc12c2ac48abed7b0"


def test_probe_samples_match_golden_hash(tmp_path):
    netprobe.write_samples_csv(tmp_path / "samples.csv", PROBE_ROWS)
    assert _digest(tmp_path / "samples.csv") == GOLDEN_PROBE_SAMPLES_SHA256


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_file_headers():
    """The table under README's ``## File formats``: file name -> header as written there."""
    section = README.read_text().split("\n## File formats\n", 1)[1].split("\n## ", 1)[0]
    return dict(re.findall(r"^\| `([\w.]+)` +\|[^|]+\| `([^`]+)`", section, re.M))


def test_readme_file_formats_match_the_written_headers(golden_offline_dir, tmp_path):
    assert main(GOLDEN_ARGS + ["--out", str(tmp_path)]) == 0
    netprobe.write_samples_csv(tmp_path / "samples.csv", PROBE_ROWS)
    runs = golden_offline_dir
    written = {
        "samples.csv": [runs / "synth" / "samples.csv", tmp_path / "samples.csv"],
        "fit_trace.csv": [runs / run / "fit_trace.csv" for run in ("fit", "fit_forgetting")],
        "jcurve.csv": [runs / "select" / "jcurve.csv"],
        "regions.csv": [runs / "regions" / "regions.csv"],
        "speedup.csv": [runs / "regions" / "speedup.csv"],
        "trace.csv": [tmp_path / "trace.csv"],
    }
    headers = readme_file_headers()
    assert headers.keys() == written.keys() >= {path.name for path in runs.rglob("*.csv")}
    for name, paths in written.items():
        # A bracketed "[,rep]" is written by some producers (probe) and not others (synth).
        header = headers[name]
        allowed = {re.sub(r"\[.*?\]", "", header), re.sub(r"\[(.*?)\]", r"\1", header)}
        for path in paths:
            assert path.read_text().split("\n", 1)[0] in allowed, path


# sha256 of jcurve.csv from `select --alpha 2e-3 --beta 1e-8 --d JCURVE_D --n 16`
# per family, recorded while jcurve.csv was still formatted in one process.  At
# this d the rows span four full blocks of 2**14 powers and a partial one, so
# they pin that the worker pool writes the same bytes; never regenerate them
# from the current code.
JCURVE_D = 4 * (1 << 14) + 7
GOLDEN_JCURVE_SHA256 = {
    "rand_k": "08013b9175bc15082642e189154ca2dc42de48dd50f0e415bdacc60e5aabc4f1",
    "top_k": "56864543f104bc2ae4816dc9757f267fbdd54daf487049a0cc5a41a3f7f99980",
}


def _select_jcurve(out, family="rand_k"):
    """Run the golden jcurve select into ``out``: its exit code."""
    return main(["select", "--alpha", "2e-3", "--beta", "1e-8", "--family", family,
                 "--d", str(JCURVE_D), "--n", "16", "--out", str(out)])


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestJcurveWorkers:
    @pytest.fixture
    def forks(self, monkeypatch):
        """The ids of the processes that call ``os.fork``, one per call."""
        calls, fork = [], os.fork

        def counting_fork():
            calls.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        return calls

    @pytest.fixture
    def cpus(self, monkeypatch):
        """Set how many CPUs this process may run on."""
        def set_count(count):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                                raising=False)
        return set_count

    @pytest.mark.parametrize("family", sorted(GOLDEN_JCURVE_SHA256))
    def test_worker_blocks_match_golden_hash(self, tmp_path, forks, cpus, family):
        assert JCURVE_D // cli.JCURVE_CHUNK >= 4 and JCURVE_D % cli.JCURVE_CHUNK
        cpus(2)
        assert _select_jcurve(tmp_path, family) == 0
        assert _digest(tmp_path / "jcurve.csv") == GOLDEN_JCURVE_SHA256[family]
        assert len(forks) == 2
        assert not multiprocessing.active_children()

    def test_one_cpu_formats_in_process(self, tmp_path, forks, cpus):
        cpus(1)
        assert _select_jcurve(tmp_path) == 0
        assert _digest(tmp_path / "jcurve.csv") == GOLDEN_JCURVE_SHA256["rand_k"]
        assert not forks

    def test_second_thread_formats_in_process(self, tmp_path, forks, cpus):
        cpus(2)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert _select_jcurve(tmp_path) == 0
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert _digest(tmp_path / "jcurve.csv") == GOLDEN_JCURVE_SHA256["rand_k"]
        assert not forks

    def test_worker_exception_surfaces_from_select(self, tmp_path, monkeypatch, forks, cpus):
        cpus(2)
        parent, cost = os.getpid(), adaptive.predicted_cost

        def failing_in_workers(obj, k):
            if os.getpid() != parent and k[0] > 2 * cli.JCURVE_CHUNK:
                raise RuntimeError("worker failed")
            return cost(obj, k)

        monkeypatch.setattr(adaptive, "predicted_cost", failing_in_workers)
        with pytest.raises(RuntimeError, match="worker failed"):
            _select_jcurve(tmp_path)
        assert forks == [parent, parent]
        assert not multiprocessing.active_children()


def test_cli_import_loads_no_process_pool(cli_env):
    code = ("import sys, gradcomm, gradcomm.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & sys.modules.keys()))")
    run = subprocess.run([sys.executable, "-c", code], env=cli_env, capture_output=True,
                         text=True, check=True)
    assert run.stdout == "[]\n"


class TestProbeAndServe:
    def test_probe_against_local_server(self, tmp_path):
        srv = PingPongServer()
        port = srv.start()
        try:
            rc = main(["probe", "--port", str(port), "--sizes", "64,4096",
                       "--reps", "2", "--warmup", "1", "--out", str(tmp_path)])
        finally:
            srv.stop()
        assert rc == 0
        rows = read_csv(tmp_path / "samples.csv")
        assert len(rows) == 4
        assert all(float(r["time_seconds"]) > 0 for r in rows)

    def test_probe_manifest_records_every_setting(self, tmp_path):
        srv = PingPongServer()
        port = srv.start()
        try:
            rc = main(["probe", "--port", str(port), "--sizes", "64,4096", "--reps", "2",
                       "--warmup", "0", "--timeout", "7.5", "--out", str(tmp_path)])
        finally:
            srv.stop()
        assert rc == 0
        manifest = json.loads((tmp_path / "probe.manifest.json").read_text())
        assert manifest["config"] == {"host": "127.0.0.1", "port": port, "sizes": "64,4096",
                                      "reps": 2, "warmup": 0, "timeout": 7.5}

    def test_probe_aborted_mid_stream_exit_4_keeps_partial_samples(self, tmp_path, capsys):
        srv = PingPongServer(p_max_bytes=100)  # resets the connection at the 4096-byte frame
        port = srv.start()
        try:
            rc = main(["probe", "--port", str(port), "--sizes", "64,4096", "--reps", "2",
                       "--out", str(tmp_path)])
        finally:
            srv.stop()
        assert rc == 4
        err = capsys.readouterr().err
        assert re.search(r"^error: probe aborted mid-stream: .+ \(2 partial samples kept\)$",
                         err, re.M), err
        assert [r["size_bytes"] for r in read_csv(tmp_path / "samples.csv")] == ["64", "64"]
        manifest = json.loads((tmp_path / "probe.manifest.json").read_text())
        assert manifest["outputs"] == ["samples.csv"]

    def test_probe_unreachable_exit_4(self, tmp_path):
        import socket

        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        rc = main(["probe", "--port", str(port), "--sizes", "64", "--reps", "1",
                   "--timeout", "0.5", "--out", str(tmp_path)])
        assert rc == 4

    @pytest.mark.parametrize("timeout", ["nan", "inf", "-inf", "0", "-1"])
    def test_bad_timeout_exit_2_before_connecting(self, tmp_path, monkeypatch, capsys, timeout):
        def no_probe(*args, **kwargs):
            raise AssertionError("probe called")

        monkeypatch.setattr(netprobe, "probe", no_probe)
        rc = main(["probe", "--port", "1", "--sizes", "64", f"--timeout={timeout}",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "--timeout" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("reps", ["0", "-1"])
    def test_bad_reps_exit_2_before_connecting(self, tmp_path, monkeypatch, capsys, reps):
        def no_probe(*args, **kwargs):
            raise AssertionError("probe called")

        monkeypatch.setattr(netprobe, "probe", no_probe)
        rc = main(["probe", "--port", "1", "--sizes", "64", f"--reps={reps}",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "--reps" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["probe", "--port", "70000", "--sizes", "64"],
        ["fit", "--live", "127.0.0.1:70000", "--rounds", "2", "--pmax", "4096"],
        ["serve", "--port", "70000"],
    ], ids=["probe", "fit-live", "serve"])
    def test_port_out_of_range_exit_2_without_a_socket(self, tmp_path, monkeypatch, capsys,
                                                      argv):
        # 70000 wraps to 4464 if it ever reaches a socket call.
        import socket

        def no_socket(*args, **kwargs):
            raise AssertionError("socket opened")

        monkeypatch.setattr(socket, "create_connection", no_socket)
        monkeypatch.setattr(socket, "socket", no_socket)
        out = [] if argv[0] == "serve" else ["--out", str(tmp_path)]
        assert main(argv + out) == 2
        assert "port must lie in" in capsys.readouterr().err

    def test_fit_live(self, tmp_path):
        srv = PingPongServer()
        port = srv.start()
        try:
            rc = main(["fit", "--live", f"127.0.0.1:{port}", "--rounds", "6",
                       "--pmax", "65536", "--policy", "grid", "--seed", "1",
                       "--out", str(tmp_path)])
        finally:
            srv.stop()
        assert rc == 0
        rows = read_csv(tmp_path / "fit_trace.csv")
        assert len(rows) == 7
        assert int(rows[-1]["k"]) == 8

    def test_fit_live_probes_over_one_connection(self, tmp_path, monkeypatch):
        calls = []

        def counting_probe(*args, **kwargs):
            calls.append(args[2])
            return probe(*args, **kwargs)

        monkeypatch.setattr(netprobe, "probe", counting_probe)
        srv = PingPongServer()
        port = srv.start()
        try:
            rc = main(["fit", "--live", f"127.0.0.1:{port}", "--rounds", "5",
                       "--pmax", "4096", "--policy", "uniform", "--warmup", "1",
                       "--out", str(tmp_path)])
        finally:
            srv.stop()
        assert rc == 0
        assert len(calls) == 1 and len(calls[0]) == 5 + 2
        assert calls[0][:2] == [4096, 256]
        assert srv.messages == 2 * (5 + 2)  # one warm-up and one timed exchange per size
        assert int(read_csv(tmp_path / "fit_trace.csv")[-1]["k"]) == 5 + 2

    def test_fit_live_bad_forgetting_exits_before_probing(self, tmp_path):
        srv = PingPongServer()
        port = srv.start()
        try:
            rc = main(["fit", "--live", f"127.0.0.1:{port}", "--rounds", "4",
                       "--pmax", "4096", "--forgetting", "0", "--out", str(tmp_path)])
        finally:
            srv.stop()
        assert rc == 2
        assert srv.messages == 0

    def test_fit_live_negative_rounds_exits_before_probing(self, tmp_path, capsys):
        srv = PingPongServer()
        port = srv.start()
        try:
            rc = main(["fit", "--live", f"127.0.0.1:{port}", "--rounds", "-5",
                       "--pmax", "4096", "--out", str(tmp_path)])
        finally:
            srv.stop()
        assert rc == 2
        assert "--rounds" in capsys.readouterr().err
        assert srv.messages == 0
        assert not (tmp_path / "fit_trace.csv").exists()

    def test_fit_live_zero_rounds_probes_the_two_anchor_sizes(self, tmp_path):
        srv = PingPongServer()
        port = srv.start()
        try:
            rc = main(["fit", "--live", f"127.0.0.1:{port}", "--rounds", "0",
                       "--pmax", "4096", "--warmup", "0", "--out", str(tmp_path)])
        finally:
            srv.stop()
        assert rc == 0
        assert srv.messages == 2
        assert srv.bytes_in == 2 * 8 + 4096 + 256
        assert [int(row["k"]) for row in read_csv(tmp_path / "fit_trace.csv")] == [2]

    def test_serve_subcommand_answers_probes(self, tmp_path, cli_env):
        import re
        import subprocess
        import sys

        proc = subprocess.Popen(
            [sys.executable, "-m", "gradcomm.cli", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            text=True,
            env=cli_env,
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r":(\d+) ", banner)
            if match is None:
                # an empty banner means the child is exiting: give it time to be reaped
                try:
                    proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    pass
            assert match is not None, (
                f"serve banner {banner!r}, exit status {proc.returncode}"
            )
            port = int(match.group(1))
            rc = main(["probe", "--port", str(port), "--sizes", "128",
                       "--reps", "2", "--out", str(tmp_path)])
            assert rc == 0
            assert len(read_csv(tmp_path / "samples.csv")) == 2
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            proc.stdout.close()

    def test_serve_bind_failure_exit_4(self):
        import socket

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        try:
            rc = main(["serve", "--port", str(blocker.getsockname()[1])])
            assert rc == 4
        finally:
            blocker.close()


class TestManifests:
    def test_manifest_fields_and_relative_outputs(self, tmp_path):
        rc = main(["synth", "--alpha", "1", "--beta", "1", "--sizes", "1,2",
                   "--seed", "4", "--out", str(tmp_path)])
        assert rc == 0
        manifest = json.loads((tmp_path / "synth.manifest.json").read_text())
        assert manifest["subcommand"] == "synth"
        assert manifest["seed"] == 4
        assert manifest["outputs"] == ["samples.csv"]
        assert "/" not in manifest["outputs"][0]

    def test_select_draws_no_seed(self, tmp_path):
        rc = main(["select", "--alpha", "1e-3", "--beta", "1e-8", "--d", "50", "--n", "4",
                   "--out", str(tmp_path)])
        assert rc == 0
        manifest = json.loads((tmp_path / "select.manifest.json").read_text())
        assert manifest["seed"] is None

    @pytest.mark.parametrize("argv", [
        ["serve", "--pmax", "0", "--out", "."],  # a bad --pmax, so it can never start serving
        ["select", "--alpha", "1e-3", "--beta", "1e-8", "--d", "50", "--n", "4", "--seed", "1"],
        ["regions", "--alpha", "1e-3", "--beta", "1e-8", "--sizes", "10", "--seed", "1"],
        ["probe", "--port", "1", "--sizes", "64", "--seed", "1"],
        ["synth", "--alpha", "1", "--beta", "1", "--sizes", "1", "--config", "whatever.cfg"],
    ], ids=["serve-out", "select-seed", "regions-seed", "probe-seed", "synth-config"])
    def test_flag_outside_its_subcommands_is_usage_error(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("argv, bad", [
    (["synth", "--alpha", "1", "--beta", "1", "--sizes", "a:10:3"], "a:10:3"),
    (["synth", "--alpha", "1", "--beta", "1", "--sizes", "1:10:2.5"], "1:10:2.5"),
    (["regions", "--alpha", "1e-3", "--beta", "1e-9", "--sizes", "10", "--omegas", "2,x"], "2,x"),
], ids=["range-bound", "range-count", "omegas"])
def test_non_numeric_range_exit_2(tmp_path, capsys, argv, bad):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert bad in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["synth", "--alpha", "1e-3", "--beta", "1e-8", "--sizes", "1:1e300:3"],
    ["regions", "--alpha", "1e-3", "--beta", "1e-8", "--sizes", "1:1e20:3"],
    ["synth", "--alpha", "1e-3", "--beta", "1e-8", "--sizes", "1:inf:3"],
], ids=["synth", "regions", "synth-inf"])
def test_size_range_reaching_2_63_exit_2(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    text = argv[argv.index("--sizes") + 1]
    assert f"size range {text!r} reaches 2**63 bytes" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_size_range_stops_below_2_63():
    below = 2.0**63 - 1024  # the largest float below 2**63
    assert parse_sizes(f"1:{below!r}:2") == [1, int(below)]
    with pytest.raises(ConfigError, match="reaches 2"):
        parse_sizes(f"1:{2.0**63!r}:2")


@pytest.mark.parametrize("argv", [
    ["synth", "--alpha", "1e-3", "--beta", "1e-8", "--sizes", "1,2"],
    ["simulate", "--n", "2", "--d", "4", "--steps", "2", "--alpha", "1e-3", "--beta", "1e-8"],
    ["fit", "--live", "127.0.0.1:1"],
], ids=["synth", "simulate", "fit-live"])
@pytest.mark.parametrize("seed", ["-1", "2.5"])
def test_bad_seed_is_usage_error(tmp_path, capsys, argv, seed):
    with pytest.raises(SystemExit) as exc:
        main(argv + [f"--seed={seed}", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_negative_config_seed_exit_2(tmp_path, capsys):
    config = tmp_path / "sim.cfg"
    config.write_text("n=2\nd=4\nsteps=2\nalpha=1e-3\nbeta=1e-8\nseed=-1\n")
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "bad value for 'seed'" in capsys.readouterr().err
    assert not (tmp_path / "out" / "trace.csv").exists()


# One value for each simulate setting, and the other settings its run needs.
SETTING_VALUES = {
    "n": "3", "d": "12", "steps": "4", "gamma": "0.2", "compressor.kind": "natural",
    "compressor.k": "5", "compressor.r": "2", "alpha": "2e-3", "beta": "3e-8",
    "alpha_m": "0.1", "beta_m": "0.2", "downlink_compressed": "true", "seed": "9",
}
SETTING_CONTEXT = {"compressor.k": {"compressor.kind": "top_k"},
                   "compressor.r": {"compressor.kind": "rank_r"},
                   "downlink_compressed": {"compressor.kind": "rand_k", "compressor.k": "3"}}
REQUIRED_SETTINGS = ["n", "d", "steps", "alpha", "beta"]


@pytest.mark.parametrize("key", list(SETTING_VALUES))
def test_setting_as_flag_or_config_key_writes_the_same_bytes(tmp_path, key):
    assert SETTING_VALUES.keys() == cli.SETTINGS.keys()
    value, flag = SETTING_VALUES[key], cli.SETTINGS[key].flag
    base = {**{k: SETTING_VALUES[k] for k in REQUIRED_SETTINGS}, **SETTING_CONTEXT.get(key, {})}
    base.pop(key, None)
    runs = {"flag": (base, [flag] if value == "true" else [flag, value]),  # a bool flag takes no value
            "file": ({**base, key: value}, [])}
    outputs = {}
    for name, (config, flags) in runs.items():
        (tmp_path / f"{name}.cfg").write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
        out = tmp_path / name
        assert main(["simulate", "--config", str(tmp_path / f"{name}.cfg"), *flags,
                     "--out", str(out)]) == 0
        outputs[name] = [(out / f).read_bytes() for f in ("trace.csv", "simulate.manifest.json")]
    assert outputs["flag"] == outputs["file"]
    manifest = json.loads(outputs["file"][1])
    assert manifest["config"][key] == cli.SETTINGS[key].parse(value)


@pytest.mark.parametrize("missing", [REQUIRED_SETTINGS, ["d", "beta"],
                                     *([key] for key in REQUIRED_SETTINGS)],
                         ids=lambda keys: "-".join(keys))
def test_missing_required_settings_exit_2_named_in_order(tmp_path, capsys, missing):
    assert [k for k, s in cli.SETTINGS.items() if s.default is cli.REQUIRED] == REQUIRED_SETTINGS
    flags = [arg for key in REQUIRED_SETTINGS if key not in missing
             for arg in (cli.SETTINGS[key].flag, SETTING_VALUES[key])]
    out = tmp_path / "out"
    assert main(["simulate", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: simulate needs values for: {', '.join(missing)}\n"
    assert not out.exists()


# An option given as the empty string is a bad value, not an absent option.
@pytest.mark.parametrize("argv, named", [
    (["regions", "--alpha", "1e-3", "--beta", "1e-8", "--sizes", "10", "--omegas", ""],
     "bad compression ratio list ''"),
    (["simulate", "--n", "2", "--d", "4", "--steps", "2", "--alpha", "1e-3", "--beta", "1e-8",
      "--config", ""], "Is a directory"),  # the path "" is the working directory
    (["fit", "--live", ""], "--live expects HOST:PORT, got ''"),
], ids=["regions-omegas", "simulate-config", "fit-live"])
def test_empty_option_value_exit_2(tmp_path, capsys, argv, named):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


_REGIONS = ["regions", "--alpha", "1e-3", "--beta", "1e-8", "--sizes", "10"]
_SIMULATE = ["simulate", "--n", "2", "--d", "4", "--steps", "2"]
# Every float option of every subcommand, with a finite value for each other
# required one.  Each case passes its value as --flag=value, so that -inf
# reaches the program's own check and not argparse's.  fit --live refuses a
# bad --forgetting before it connects.
_FLOAT_FLAGS = [
    (["synth", "--alpha", "1e-3", "--beta", "1e-8", "--sizes", "1,2"],
     ["--alpha", "--beta", "--alpha-m", "--beta-m"]),
    (["fit", "--live", "127.0.0.1:1"], ["--forgetting"]),
    (["select", "--alpha", "1e-3", "--beta", "1e-8", "--d", "100", "--n", "4"],
     ["--alpha", "--beta"]),
    (_REGIONS, ["--alpha", "--beta", "--rho", "--omegas"]),
    (_SIMULATE + ["--alpha", "1e-3", "--beta", "1e-8"],
     ["--gamma", "--alpha", "--beta", "--alpha-m", "--beta-m"]),
]
_SIMULATE_CONFIG = {"n": "2", "d": "4", "steps": "2", "alpha": "1e-3", "beta": "1e-8"}
_NON_FINITE = ["nan", "inf", "-inf"]


@pytest.mark.parametrize("argv, config", [
    (["synth", "--alpha=nan", "--beta", "1e-9", "--sizes", "1,2"], None),
    (["synth", "--alpha", "1e-3", "--beta", "inf", "--sizes", "1,2"], None),
    (["simulate", "--alpha=nan", "--beta", "1e-8", "--n", "2", "--d", "4", "--steps", "2"], None),
    (["regions", "--alpha=nan", "--beta", "1e-8", "--sizes", "10"], None),
    (_REGIONS + ["--omegas", "nan"], None),
    (_REGIONS + ["--omegas", "inf"], None),
    (_REGIONS + ["--rho", "nan"], None),
    *((base + [f"{flag}={value}"], None)
      for base, flags in _FLOAT_FLAGS for flag in flags for value in _NON_FINITE),
    *((["simulate"], {**_SIMULATE_CONFIG, key: value})
      for key in ("gamma", "alpha", "beta", "alpha_m", "beta_m") for value in _NON_FINITE),
], ids=["synth-alpha-nan", "synth-beta-inf", "simulate-alpha-nan", "regions-alpha-nan",
        "regions-omegas-nan", "regions-omegas-inf", "regions-rho-nan",
        *(f"{base[0]}{flag}={value}"
          for base, flags in _FLOAT_FLAGS for flag in flags for value in _NON_FINITE),
        *(f"simulate-config-{key}={value}"
          for key in ("gamma", "alpha", "beta", "alpha_m", "beta_m") for value in _NON_FINITE)])
def test_non_finite_input_exit_2(tmp_path, argv, config):
    if config is not None:
        path = tmp_path / "sim.cfg"
        path.write_text("".join(f"{key}={value}\n" for key, value in config.items()))
        argv = argv + ["--config", str(path)]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    for written in out.glob("*"):
        words = set(re.findall(r"[a-z]+", written.read_text().lower()))
        assert not words & {"nan", "inf", "infinity"}, written


def test_no_csv_output_has_crlf_line_ends(tmp_path):
    srv = PingPongServer()
    port = srv.start()
    try:
        runs = {
            "synth": ["synth", "--alpha", "1e-3", "--beta", "1e-8", "--sizes", "1,100,1000"],
            "fit": ["fit", "--samples", str(tmp_path / "synth/samples.csv")],
            "select": ["select", "--alpha", "1e-3", "--beta", "1e-8", "--d", "50", "--n", "4"],
            "regions": ["regions", "--alpha", "1e-3", "--beta", "1e-8", "--sizes", "1:1000:4"],
            "simulate": ["simulate", "--n", "2", "--d", "8", "--steps", "3",
                         "--alpha", "1e-3", "--beta", "1e-8"],
            "probe": ["probe", "--port", str(port), "--sizes", "64", "--reps", "2"],
        }
        for name, argv in runs.items():
            assert main(argv + ["--out", str(tmp_path / name)]) == 0, name
    finally:
        srv.stop()
    written = sorted(tmp_path.glob("*/*.csv"))
    assert len(written) == 7
    for path in written:
        assert b"\r" not in path.read_bytes(), path


# Each writing subcommand with valid inputs; "{samples}" is a valid sample CSV.
_WRITERS = {
    "synth": ["synth", "--alpha", "1e-3", "--beta", "1e-8", "--sizes", "1,2"],
    "fit": ["fit", "--samples", "{samples}"],
    "select": ["select", "--alpha", "1e-3", "--beta", "1e-8", "--d", "50", "--n", "4"],
    "regions": _REGIONS,
    "simulate": _SIMULATE + ["--alpha", "1e-3", "--beta", "1e-8"],
    "probe": ["probe", "--port", "1", "--sizes", "64"],
}


# An unusable path exits 2 naming it; a traceback would be an exception out of main.
@pytest.mark.parametrize("name", sorted(_WRITERS))
def test_out_naming_a_file_exit_2(tmp_path, capsys, name):
    samples = tmp_path / "samples.csv"
    samples.write_text("size_bytes,time_seconds\n1,5\n2,7\n")
    taken = tmp_path / "taken"
    taken.write_text("")
    argv = [arg.format(samples=samples) for arg in _WRITERS[name]]
    assert main(argv + ["--out", str(taken)]) == 2
    assert f"error: {taken}: " in capsys.readouterr().err
    assert taken.read_text() == ""


@pytest.mark.parametrize("argv", [
    ["fit", "--samples", "{folder}"],
    ["select", "--fit", "{folder}", "--d", "50", "--n", "4"],
    ["simulate", "--config", "{folder}"],
], ids=["fit-samples", "select-fit", "simulate-config"])
def test_input_naming_a_directory_exit_2(tmp_path, capsys, argv):
    folder = tmp_path / "folder"
    folder.mkdir()
    argv = [arg.format(folder=folder) for arg in argv]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert f"error: {folder}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# Each writing subcommand with one input it refuses.
@pytest.mark.parametrize("argv", [
    ["synth", "--alpha", "-1", "--beta", "1e-9", "--sizes", "1,2"],
    ["select", "--alpha", "1e-3", "--beta", "1e-8", "--d", "0", "--n", "4"],
    ["regions", "--alpha", "1e-3", "--beta", "1e-8", "--sizes", "10", "--rho", "0.5"],
    ["probe", "--port", "70000", "--sizes", "64"],
    ["fit", "--live", "127.0.0.1:1", "--rounds", "-5"],
    ["simulate", "--n", "0"],
], ids=lambda argv: argv[0])
def test_refused_input_makes_no_out_dir(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "new")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "new").exists()


EXIT_CODES = {
    errors.GradcommError: 1,
    errors.DivergenceError: 1,
    errors.ParameterError: 2,
    errors.ConfigError: 2,
    errors.DecodeError: 2,
    errors.DegenerateModelError: 2,
    errors.DegenerateDesignError: 3,
    errors.NetworkError: 4,
}


def test_exit_code_table_names_every_error_type():
    types = {value for value in vars(errors).values()
             if isinstance(value, type) and issubclass(value, errors.GradcommError)}
    assert types == EXIT_CODES.keys()


@pytest.mark.parametrize("error, code", EXIT_CODES.items(), ids=lambda v: getattr(v, "__name__", v))
def test_each_error_type_carries_its_exit_code(tmp_path, monkeypatch, capsys, error, code):
    assert error.exit_code == code

    def fail(args):
        raise error("refused")

    monkeypatch.setattr(cli, "cmd_regions", fail)
    rc = main(["regions", "--alpha", "1e-3", "--beta", "1e-8", "--sizes", "10",
               "--out", str(tmp_path)])
    assert (rc, capsys.readouterr().err) == (code, "error: refused\n")
