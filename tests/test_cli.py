import csv
import hashlib
import json
import re

import numpy as np
import pytest

from gradcomm import estimator, netprobe
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
        # Each bits * time passes the reader; their sum s_xy does not fit.
        samples = tmp_path / "samples.csv"
        samples.write_text("size_bytes,time_seconds\n1,1e307\n2,1e307\n")
        assert main(["fit", "--samples", str(samples), "--out", str(tmp_path)]) == 3
        assert "running sums overflowed" in capsys.readouterr().err
        assert not (tmp_path / "fit_trace.csv").exists()

    def test_blank_lines_and_extra_columns_are_ignored(self, tmp_path):
        samples = tmp_path / "samples.csv"
        samples.write_text("rep,time_seconds,size_bytes\n0,5,1\n\n1,7,2\n\n")
        assert estimator.read_samples_csv(samples) == [(8.0, 5.0), (16.0, 7.0)]


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
        assert list(out.iterdir()) == []


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


# sha256 of trace.csv from GOLDEN_ARGS, recorded before the simulator added
# uplink gradients in-process instead of through compress/decompress
# messages.  They pin that the two paths give the same trace; never
# regenerate them from the current code.
GOLDEN_ARGS = ["simulate", "--n", "4", "--d", "17", "--steps", "5", "--alpha", "1e-3",
               "--beta", "1e-8", "--alpha-m", "0.1", "--beta-m", "0.1", "--seed", "7"]
GOLDEN_KIND_ARGS = {"identity": [], "rand_k": ["--k", "5"], "top_k": ["--k", "5"],
                    "natural": [], "rank_r": ["--r", "2"]}
GOLDEN_TRACE_SHA256 = {
    ("identity", False): "4386741ebd2a52d0d7492a2b17e7e6e8aa5fed1f89097be6237b612a7b6c0ea0",
    ("identity", True): "4386741ebd2a52d0d7492a2b17e7e6e8aa5fed1f89097be6237b612a7b6c0ea0",
    ("rand_k", False): "e736d2735270a39148519909d038cd2a332a3bb3625538f7e09dd67cc9c48df8",
    ("rand_k", True): "e254ef3b546584107def4f276aa165f4c4ccdae6298c07bacaf317595ca4c28e",
    ("top_k", False): "1a37ac45d7e65b928e559e102f627a19de7e3edb6d70f23684abfa7e45a02877",
    ("top_k", True): "b1391dabe591ea0cf6dddef936606f9ec1f1bd49d883a5c011b49c7398178c23",
    ("natural", False): "19b8be4a20158d819de9ffedae3771bf85a9f89974f2e21b7876ca2044bc744d",
    ("natural", True): "7b26045186a7341b4043e4bb245b8ab8a6c5520a55ee5c3857d73ae102a004ea",
    ("rank_r", False): "eb0df2a4da106134d0b564abfa50457c06394acf8bf21a4786c3c082e599309b",
    ("rank_r", True): "88901270327e9b64a1f35aa006791bee65c2e5cf20de4ca706ba145f35f5e237",
}


@pytest.mark.parametrize("kind,downlink", sorted(GOLDEN_TRACE_SHA256))
def test_simulate_trace_matches_golden_hash(tmp_path, kind, downlink):
    args = GOLDEN_ARGS + ["--compressor", kind] + GOLDEN_KIND_ARGS[kind]
    if downlink:
        args.append("--downlink-compressed")
    assert main(args + ["--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_TRACE_SHA256[kind, downlink]


# sha256 of trace.csv from MULTI_BLOCK_ARGS, recorded while every message's
# generator was still built from its own SeedSequence.  50 workers over 100
# rounds send 5000 uplink messages, more than one block of message states.
# Never regenerate them from the current code.
MULTI_BLOCK_ARGS = ["simulate", "--n", "50", "--d", "6", "--steps", "100", "--alpha", "1e-3",
                    "--beta", "1e-8", "--alpha-m", "0.1", "--beta-m", "0.1", "--seed", "11"]
MULTI_BLOCK_KIND_ARGS = {"rand_k": ["--k", "2"], "natural": [], "rank_r": ["--r", "1"]}
MULTI_BLOCK_TRACE_SHA256 = {
    ("rand_k", False): "4965d71e726e6b64c786dfd6e4fd6a0861c7b7551ee022eed350d6b8383021f5",
    ("rand_k", True): "044dcc280b8661c0d5ca93c3653afe935df83cfc06331464bebf69820397ad7e",
    ("natural", False): "47a9fd5ac32620aab98a52379ac5558e477c2ef926fe6bd4649cd78441f5be14",
    ("natural", True): "9162cd95912d704aa713a473cddfa44345d6bc316afac438d8f72e5849f14c39",
    ("rank_r", False): "515a4b5ec5a65c058ad9753824212263fb0cb72165f2cb11cacb797b539e3960",
    ("rank_r", True): "b1899007a7a0182baeda0323d91b799627e49bfaab6b8a20c00b67aa6a6f41e2",
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
# the current code.
BATCHED_ARGS = ["simulate", "--n", "70", "--d", "1000", "--steps", "3", "--alpha", "1e-3",
                "--beta", "1e-8", "--alpha-m", "0.1", "--beta-m", "0.1", "--seed", "5"]
BATCHED_KIND_ARGS = {"identity": [], "rand_k": ["--k", "50"], "top_k": ["--k", "50"],
                     "natural": [], "rank_r": ["--r", "2"]}
BATCHED_TRACE_SHA256 = {
    ("identity", False): "a454df64ced573ba2c483d04093481c0889e76a337b4b62586aec0d93de55ebf",
    ("identity", True): "a454df64ced573ba2c483d04093481c0889e76a337b4b62586aec0d93de55ebf",
    ("rand_k", False): "88b8bb70d259fc93308c0ecca6ea7fef92ffbcac1d640ffc34fd381e16a35b9e",
    ("rand_k", True): "803e3bb6737088fb293e3211b0016dd565371189a177e07d1d447060cf5b4318",
    ("top_k", False): "2d56f7ebd4846fdddf059786117f4e36729b0e26b948cedc3fb3af8d7b4eab7a",
    ("top_k", True): "df8a2ca631fdebd8ae9f3e8c9e72c923ac4fc454a5cfd143119bdb0380938319",
    ("natural", False): "0eb0ba397eaff7e10d39cacb1e812f1f4bce965ecceb6070f8238f3483a798d4",
    ("natural", True): "46ded8184ca2121488fced50343ea0e70aa0fb9b3d71f09f315b8c44d8d218f9",
    ("rank_r", False): "ccb6cadea40139cd24a0a6970e14c2833351066edb4fc9c716680c21d2fcdf04",
    ("rank_r", True): "cd928a93373e23297000b397872bd928916242591cc87858b4fc78a3e140993b",
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
        "81806fdea497424be43412c9a0782584450d9c71cdde2327019179d49439a432",
    ("flags", "simulate.manifest.json"):
        "de2911511bc470a39c207126a8b00672237a54cb03bb88844f7fe0ef2e8b0837",
    ("flags", "trace.csv"):
        "2776abca6f68114852905f57075693c55b9b8cfabe2e9b950a3a40ac42e04b61",
    ("flags_override_file", "simulate.manifest.json"):
        "7a3a2f32072c33a69cc9107cf1ae5a2249dfd553831f57ca8c1e0155fd12a932",
    ("flags_override_file", "trace.csv"):
        "f462cad97020f412b7245c9a8daf91538286751be3a617044f03f294e7edd304",
    ("downlink_file", "simulate.manifest.json"):
        "b78865e247f264420aa0a4d369ab662fe4a07c5c6e1a9c8dcb7b0ea500258be5",
    ("downlink_file", "trace.csv"):
        "c684490da995632322983970c9240fa6333de3b837e8de4cac3430761090ebe7",
    ("downlink_flag", "simulate.manifest.json"):
        "b78865e247f264420aa0a4d369ab662fe4a07c5c6e1a9c8dcb7b0ea500258be5",
    ("downlink_flag", "trace.csv"):
        "c684490da995632322983970c9240fa6333de3b837e8de4cac3430761090ebe7",
    ("downlink_both", "simulate.manifest.json"):
        "b78865e247f264420aa0a4d369ab662fe4a07c5c6e1a9c8dcb7b0ea500258be5",
    ("downlink_both", "trace.csv"):
        "c684490da995632322983970c9240fa6333de3b837e8de4cac3430761090ebe7",
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
    assert not list((tmp_path / "out").iterdir())
