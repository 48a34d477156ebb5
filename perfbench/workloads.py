"""The three benchmark workloads, their output checks and their metrics.

Every workload drives gradcomm through its public API and looks each entry
point up on its module at call time (``cli.main``, ``optimizer.run_compressed_gd``,
``netprobe.probe``, ...), so a traced run sees the wrappers ``spans.Tracer``
installs.  Inputs come from the seed alone.  A *session* is one fixed unit of
work made of timed steps; a run repeats sessions for the requested seconds.
The end-to-end metrics are built from each step's median time over the
sessions, scaled to nominal host speed by ``HostSpeed``.

Generic end-to-end metrics, defined per workload (see README.md):

* ``job_s``: wall time of the workload's headline job.
* ``op_us``: time of its repeated unit operation.
* ``bulk_ns_per_byte``: time per byte of its bulk phase.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import re
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from gradcomm import adaptive, cli, netprobe, optimizer
from gradcomm.commodel import TimeModelParams
from gradcomm.compression import CompressorSpec
from spans import SpanTable, Tracer

SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 60.0
BYTES_PER_COORD = 4  # coordinates travel as 32-bit scalars
KINDS = ("identity", "rand_k", "top_k", "natural", "rank_r")
REGIMES = ("small", "large")
CLI_STEPS = ("synth", "fit", "select", "simulate")
# The output checks read files and evaluate the O(d) oracle in pieces of this
# many bytes or values, so their memory stays far below the program's peak RSS.
CHUNK = 1 << 16


class Tally:
    """Counts output checks; ``failed / attempted`` is the run's fail ratio."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run one gradcomm subcommand in-process: (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def last_csv_row(path: Path) -> list[str]:
    with open(path, "rb") as handle:
        handle.seek(max(0, handle.seek(0, os.SEEK_END) - 4096))
        tail = handle.read()
    return tail.decode().rstrip("\n").rsplit("\n", 1)[-1].split(",")


def digest(path: Path) -> str:
    with open(path, "rb") as handle:
        return hashlib.file_digest(handle, "sha256").hexdigest()


def count_lines(path: Path) -> int:
    lines = 0
    with open(path, "rb") as handle:
        while chunk := handle.read(CHUNK):
            lines += chunk.count(b"\n")
    return lines


def brute_force_k_star(alpha: float, beta_per_bit: float, d: int, n: int, b: int = 32) -> int:
    """Argmin over every k in [1, d] of the rand_k predicted cost; ties go to larger k.

    J(k) = (1 + (d/k)/sqrt(n)) * (alpha + beta * k*b), the selector's
    documented objective, evaluated independently of ``gradcomm.adaptive``.
    """
    best_cost, best_k = math.inf, 0
    for lo in range(1, d + 1, CHUNK):
        ks = np.arange(lo, min(lo + CHUNK, d + 1), dtype=np.int64)
        costs = (1.0 + (d / ks) / math.sqrt(n)) * (alpha + beta_per_bit * (ks * b))
        i = ks.size - 1 - int(np.argmin(costs[::-1]))  # the last minimum in this piece
        if costs[i] <= best_cost:
            best_cost, best_k = float(costs[i]), int(ks[i])
    return best_k


def expected_message_bits(kind: str, d: int, k: int, r: int, b: int = 32) -> int:
    """Wire bits of one compressed d-vector, from the operators' definitions."""
    if kind == "identity":
        return d * b
    if kind == "rand_k":
        return k * b  # indices are re-derived from the shared seed
    if kind == "top_k":
        return k * (b + math.ceil(math.log2(d)))
    if kind == "natural":
        return 9 * d  # sign and 8-bit exponent
    if kind == "rank_r":
        rows = math.ceil(math.sqrt(d))
        return r * (rows + math.ceil(d / rows)) * b
    raise ValueError(kind)


def median(values) -> float:
    return float(statistics.median(values))


class Server:
    """``gradcomm serve`` in its own process, as it would run on the far end."""

    HOST = "127.0.0.1"

    def __init__(self, src: Path, cwd: Path, p_max: int):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "gradcomm.cli", "serve", "--host", self.HOST,
             "--port", "0", "--pmax", str(p_max)],
            stdout=subprocess.PIPE, text=True, env=child_env(src), cwd=cwd,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], CHILD_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        match = re.search(r":(\d+) ", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"gradcomm serve printed no port line: {line!r}")
        self.port = int(match.group(1))

    def stop(self) -> float:
        """Terminate, reap, and return the server's peak RSS in MB."""
        self.proc.terminate()
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.01)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        return usage.ru_maxrss / 1024


NETPROBE_METRICS = tuple(
    [f"netprobe.ns_per_byte.{label}" for label in ("1k", "1m", "16m", "64m")]
    + [f"netprobe.{name}" for name in ("slope_ratio_64m_16m", "rtt_1k_p99_us", "live_fit_alpha_us",
                                       "client_peak_rss_mb", "server_peak_rss_mb")])


class HostSpeed:
    """Scales wall times to nominal host speed with a fixed reference kernel.

    The host is shared: its speed shifts by up to 2x between states that last
    seconds to minutes, and CPU time shifts with wall time, so no statistic of
    raw times holds steady from one run to the next.  The kernel mixes the
    benchmark's in-process work: Python float formatting (CSV I/O),
    element-wise passes over fresh 1e6-value temporaries (the selector) and
    many small-array operations (the simulator).  It is timed after every
    timed step; a step's time multiplied by ``NOMINAL_S`` over the mean of the
    kernel times just before and after it is its time on a host where the
    kernel takes ``NOMINAL_S``.
    """

    NOMINAL_S = 0.07

    def __init__(self):
        rng = np.random.default_rng(0)
        self.floats = rng.random(20_000).tolist()
        self.small = rng.random(1_000)
        self.time()  # warm up
        self.kernel_s = [self.time()]

    def time(self) -> float:
        t0 = time.perf_counter()
        ",".join(f"{x!r}" for x in self.floats)
        for _ in range(3):
            ks = np.arange(1, 1_000_001, dtype=np.int64)
            (1.0 + (1e6 / ks) / 4.0) * (5e-5 + 1e-9 * (ks * 32))
        x = self.small
        for _ in range(3_000):
            x = np.abs(x - 0.5) * 1.0001 + self.small[::-1]
        return time.perf_counter() - t0

    def nominal(self, elapsed: float) -> float:
        """Call right after timing a step: its nominal time."""
        self.kernel_s.append(self.time())
        return elapsed * self.NOMINAL_S / ((self.kernel_s[-2] + self.kernel_s[-1]) / 2)


class Workload:
    """One workload: inputs from the seed, a fixed session, and its metrics."""

    name = ""

    def __init__(self, seed: int, src: Path, work: Path, tally: Tally):
        self.clock = HostSpeed()
        self.seed = seed
        self.src = src
        self.work = work
        self.tally = tally
        self.reference: dict = {}  # first session's outputs; later ones must match

    def prepare(self) -> None:
        """Generate the inputs (and start processes); timed as set-up."""

    def reset(self) -> None:
        """Undo ``prepare`` before it is timed again."""

    def timed(self, fn, *args):
        """Run one timed step: (its result, its nominal seconds)."""
        t0 = time.perf_counter()
        result = fn(*args)
        return result, self.clock.nominal(time.perf_counter() - t0)

    def session(self, tracer: Tracer | None) -> dict:
        raise NotImplementedError

    def end_to_end(self, sessions: list[dict]) -> dict:
        """The generic end-to-end metrics, from each step's median nominal time."""
        steps = {step: median(s["steps"][step] for s in sessions) for step in sessions[0]["steps"]}
        return self.metrics(steps, sessions)

    def metrics(self, steps: dict, sessions: list[dict]) -> dict:
        raise NotImplementedError

    def named(self, metrics: dict, sessions: list[dict]) -> dict:
        """The end-to-end metrics under their workload-specific names and units."""
        raise NotImplementedError

    def netprobe_metrics(self, sessions: list[dict]) -> dict:
        """The netprobe per-layer metrics; 0 on a workload that never probes."""
        return dict.fromkeys(NETPROBE_METRICS, 0.0)

    def close(self) -> float:
        """Stop child processes; return their summed peak RSS in MB."""
        return 0.0

    def same_as_reference(self, key, value, what: str) -> None:
        expected = self.reference.setdefault(key, value)
        self.tally.check(value == expected, f"{what} differs from the first session")

    def fresh_dir(self) -> Path:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        return self.work


class Pipeline(Workload):
    """synth -> fit -> select -> simulate through ``cli.main``, then the controller."""

    name = "pipeline"
    SIZE_COUNT, REPS = 64, 1000
    SIZES = f"64:67108864:{SIZE_COUNT}"  # bytes, geometric
    ALPHA_M, BETA_M = 0.5, 0.001  # relative noise of alpha and beta
    SELECT_D, SELECT_N = 10**6, 16
    CONTROLLER_SAMPLES = 128
    FORGETTING = 0.9
    # Tolerances on the fit against the synth truth, about 7x (alpha) and 13x
    # (beta) the largest relative error seen over 40 seeds with this noise.
    ALPHA_TOL, BETA_TOL = 0.05, 5e-4

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.alpha = float(rng.uniform(40e-6, 80e-6))  # seconds
        self.beta = float(rng.uniform(0.8e-9, 1.2e-9))  # seconds per byte
        # Drifting channel: sizes interleave over a 16-point grid, and alpha
        # steps up tenfold halfway through.
        n = self.CONTROLLER_SAMPLES
        grid = np.geomspace(8 * 64, 8 * (4 << 20), 16)  # bits
        xs = grid[(np.arange(n) * 7) % grid.size]
        alphas = np.where(np.arange(n) < n // 2, self.alpha, 10 * self.alpha)
        ys = alphas + self.beta / 8 * xs + rng.normal(0.0, 0.05 * self.alpha, n)
        self.samples = list(zip(xs.tolist(), ys.tolist()))
        self.p_max = float(xs.max())

    def session(self, tracer):
        out = self.fresh_dir()
        seed, alpha, beta = str(self.seed), repr(self.alpha), repr(self.beta)
        argvs = {
            "synth": ["synth", "--alpha", alpha, "--beta", beta,
                      "--alpha-m", str(self.ALPHA_M), "--beta-m", str(self.BETA_M),
                      "--sizes", self.SIZES, "--reps", str(self.REPS), "--seed", seed],
            "fit": ["fit", "--samples", str(out / "samples.csv")],
            "select": ["select", "--fit", str(out / "fit_trace.csv"), "--family", "rand_k",
                       "--d", str(self.SELECT_D), "--n", str(self.SELECT_N)],
            "simulate": ["simulate", "--n", "8", "--d", "1000", "--steps", "20",
                         "--compressor", "rand_k", "--k", "10",
                         "--alpha", alpha, "--beta", beta, "--seed", seed],
        }
        times, stdout, codes = {}, {}, {}
        for step, argv in argvs.items():
            (codes[step], stdout[step]), times[step] = self.timed(run_cli, argv + ["--out", str(out)])
            self.tally.check(codes[step] == 0, f"pipeline: {step} exited with {codes[step]}")
        objective = adaptive.SelectionObjective(
            family="rand_k", d=self.SELECT_D, n=self.SELECT_N, alpha=self.alpha, beta=self.beta / 8)
        decisions, times["controller"] = self.timed(lambda: list(adaptive.adaptive_controller(
            self.samples, objective, self.p_max, forgetting=self.FORGETTING)))

        self.written = sum(p.stat().st_size for p in out.iterdir())
        if tracer is not None:
            tracer.count("cli.bytes_written", self.written)
        if not any(codes.values()):
            self.check_outputs(out, stdout["select"], decisions)
        return {"steps": times}

    def metrics(self, steps, sessions):
        return {
            "job_s": sum(steps.values()),
            "op_us": steps["controller"] / (self.CONTROLLER_SAMPLES - 2) * 1e6,
            "bulk_ns_per_byte": sum(steps[step] for step in CLI_STEPS) / self.written * 1e9,
        }

    def check_outputs(self, out: Path, select_stdout: str, decisions) -> None:
        check = self.tally.check
        k, alpha_hat, beta_hat = last_csv_row(out / "fit_trace.csv")
        alpha_hat, beta_hat = float(alpha_hat), float(beta_hat)
        samples = self.SIZE_COUNT * self.REPS
        check(int(k) == samples, f"fit: last row k={k}, expected {samples}")
        check(abs(alpha_hat - self.alpha) <= self.ALPHA_TOL * self.alpha,
              f"fit: alpha_hat={alpha_hat!r} not within {self.ALPHA_TOL:.0%} of {self.alpha!r}")
        check(abs(beta_hat - self.beta) <= self.BETA_TOL * self.beta,
              f"fit: beta_hat={beta_hat!r} not within {self.BETA_TOL:.2%} of {self.beta!r}")
        match = re.search(r"k_star=(\d+)", select_stdout)
        expected = brute_force_k_star(alpha_hat, beta_hat / 8, self.SELECT_D, self.SELECT_N)
        check(match is not None and int(match.group(1)) == expected,
              f"select: {select_stdout.strip()!r}, brute-force k*={expected}")
        check(count_lines(out / "jcurve.csv") == self.SELECT_D + 1, "select: jcurve.csv row count")
        for path in sorted(out.iterdir()):
            self.same_as_reference(path.name, digest(path), f"pipeline: {path.name}")

        check(bool(decisions) and decisions[0].sample_index == 2,
              "controller: first decision is not the initial fit")
        if decisions:
            # Decisions up to this sample index saw only pre-step samples; the
            # first one rests on two samples alone, so compare with the last.
            before = [d for d in decisions if d.sample_index <= self.CONTROLLER_SAMPLES // 2]
            last = decisions[-1]
            check(last.k_star > before[-1].k_star,
                  f"controller: k* went from {before[-1].k_star} before the alpha step "
                  f"to {last.k_star}, expected a rise")
            check(last.k_star == brute_force_k_star(
                last.fit.alpha_hat, last.fit.beta_hat, self.SELECT_D, self.SELECT_N),
                "controller: last k* is not the brute-force argmin")
        self.same_as_reference(
            "decisions", [(d.sample_index, d.k_star, d.predicted_cost) for d in decisions],
            "controller: decisions")

    def named(self, metrics, sessions):
        return {"pipeline_s": (metrics["job_s"], "s")}


class TrainSim(Workload):
    """``optimizer.run_compressed_gd`` over all five compressors, two regimes."""

    name = "train_sim"
    # Small: many tiny messages, per-message overhead dominates.
    # Large: few big messages, per-element work dominates.
    REGIME = {
        "small": {"n": 64, "d": 1_000, "k": 10, "steps": 20},
        "large": {"n": 16, "d": 100_000, "k": 1_000, "steps": 2},
    }
    RANK = 2
    TIME_MODEL = TimeModelParams(50e-6, 1e-9 / 8, 0.1, 0.1)  # per bit

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.problems, self.configs = {}, {}
        for reg, p in self.REGIME.items():
            # Targets share a common offset, so the optimum lies far from x0 = 0.
            targets = rng.normal(0.0, 2.0, p["d"]) + rng.standard_normal((p["n"], p["d"]))
            self.problems[reg] = optimizer.Problem.mean(targets)
            self.configs[reg] = {
                kind: optimizer.SimConfig(
                    steps=p["steps"], time_model=self.TIME_MODEL, seed=self.seed,
                    compressor=CompressorSpec(
                        kind=kind,
                        k=p["k"] if kind in ("rand_k", "top_k") else None,
                        r=self.RANK if kind == "rank_r" else None))
                for kind in KINDS
            }

    def messages(self, reg: str) -> int:
        p = self.REGIME[reg]
        return p["n"] * p["steps"] * len(KINDS)

    def session(self, tracer):
        times = {}
        for reg in REGIMES:
            traces, times[reg] = self.timed(lambda: {
                kind: optimizer.run_compressed_gd(self.problems[reg], self.configs[reg][kind])
                for kind in KINDS})
            for kind, trace in traces.items():
                self.check_trace(reg, kind, trace)
        return {"steps": times}

    def metrics(self, steps, sessions):
        return {
            "job_s": steps["small"] + steps["large"],
            "op_us": steps["small"] / self.messages("small") * 1e6,
            "bulk_ns_per_byte": steps["large"] * 1e9
            / (self.messages("large") * self.REGIME["large"]["d"] * BYTES_PER_COORD),
        }

    def check_trace(self, reg: str, kind: str, trace) -> None:
        p = self.REGIME[reg]
        bits = expected_message_bits(kind, p["d"], p["k"], self.RANK) * p["n"] * p["steps"]
        first, final = trace.rows[0], trace.rows[-1]
        self.tally.check(final.uplink_bits == bits,
                         f"{reg}/{kind}: uplink_bits={final.uplink_bits}, expected {bits}")
        self.tally.check(math.isfinite(final.objective) and final.objective < first.objective,
                         f"{reg}/{kind}: objective {final.objective!r} not below "
                         f"round-0 {first.objective!r}")
        buf = io.StringIO()
        trace.to_csv(buf)
        self.same_as_reference((reg, kind), hashlib.sha256(buf.getvalue().encode()).hexdigest(),
                               f"{reg}/{kind}: trace.csv")

    def named(self, metrics, sessions):
        d = self.REGIME["large"]["d"]
        return {
            "sim_small_msgs_per_s": (1e6 / metrics["op_us"], "msg/s"),
            "sim_large_msgs_per_s": (1e9 / (metrics["bulk_ns_per_byte"] * d * BYTES_PER_COORD),
                                     "msg/s"),
        }


class ProbeLoopback(Workload):
    """netprobe against ``gradcomm serve`` over the host loopback interface."""

    name = "probe_loopback"
    PING_BYTES, PINGS, PING_WARMUP = 1024, 1000, 10
    # A 1 MiB round trip takes about 0.5 ms and its time scatters by 2x, so it
    # gets more repeats than the 16 and 64 MiB frames.
    FRAME_REPS = {1 << 20: 32, 16 << 20: 3, 64 << 20: 3}
    LIVE_PMAX, LIVE_ROUNDS = 16 << 20, 64
    SERVER_PMAX = 64 << 20

    server: Server | None = None
    server_rss_mb = 0.0

    def __init__(self, *args):
        super().__init__(*args)
        self.cpus = os.sched_getaffinity(0)

    def prepare(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        self.server = Server(self.src, self.work, self.SERVER_PMAX)
        # Client and server share one CPU.  Left to the scheduler, they shared
        # a core in some runs and not in others, which moved the 64 MiB and
        # fit --live times by 25 % from run to run; on a CPU each, every round
        # trip waits for cross-CPU wake-ups, and in some host states those
        # doubled the 1 MiB round trip for whole runs.
        cpu = {min(self.cpus)}
        os.sched_setaffinity(self.server.proc.pid, cpu)
        os.sched_setaffinity(0, cpu)

    def reset(self) -> None:
        """Stop the server and give the benchmark process its CPUs back."""
        self.close()
        os.sched_setaffinity(0, self.cpus)

    def session(self, tracer):
        out = self.fresh_dir()
        host, port = Server.HOST, self.server.port
        pings = netprobe.probe(host, port, [self.PING_BYTES], reps=self.PINGS,
                               warmup=self.PING_WARMUP, payload_seed=self.seed)
        self.check_probe("1 KiB ping-pongs", pings, self.PINGS)
        rtts = {self.PING_BYTES: [sample.rtt_seconds for sample in pings.samples]}
        steps = {}
        for size, reps in self.FRAME_REPS.items():
            frames = netprobe.probe(host, port, [size], reps=reps, payload_seed=self.seed)
            self.check_probe(f"{size >> 20} MiB frames", frames, reps)
            rtts[size] = [sample.rtt_seconds for sample in frames.samples]
            steps[f"frame_{size >> 20}m"] = self.clock.nominal(float(np.median(rtts[size])))
        (rc, _), steps["live_fit"] = self.timed(run_cli, [
            "fit", "--live", f"{host}:{port}", "--policy", "grid",
            "--pmax", str(self.LIVE_PMAX), "--rounds", str(self.LIVE_ROUNDS),
            "--seed", str(self.seed), "--out", str(out)])
        self.tally.check(rc == 0, f"fit --live exited with {rc}")
        if tracer is not None:
            tracer.count("cli.bytes_written", sum(p.stat().st_size for p in out.iterdir()))
        k, alpha_hat, _ = last_csv_row(out / "fit_trace.csv")
        self.tally.check(int(k) == self.LIVE_ROUNDS + 2, f"fit --live: last row k={k}")
        return {
            "steps": steps,
            "rtts": rtts,
            "live_alpha_s": float(alpha_hat),
        }

    def metrics(self, steps, sessions):
        # The unit operation is a 1 MiB round trip, not a 1 KiB one: the
        # 1 KiB round trip sits at about 15, 20 or 30 us depending on the
        # host's state, which flips between runs.
        return {
            "job_s": steps["live_fit"],
            "op_us": steps["frame_1m"] * 1e6,
            "bulk_ns_per_byte": steps["frame_64m"] / (64 << 20) * 1e9,
        }

    def check_probe(self, what: str, result, expected: int) -> None:
        self.tally.check(result.error is None, f"{what}: {result.error}")
        self.tally.check(len(result.samples) == expected,
                         f"{what}: {len(result.samples)} of {expected} samples")

    @staticmethod
    def pooled(sessions, size: int) -> np.ndarray:
        return np.concatenate([s["rtts"].get(size, []) for s in sessions])

    def ns_per_byte(self, sessions, size: int) -> float:
        return float(np.median(self.pooled(sessions, size))) / size * 1e9

    def named(self, metrics, sessions):
        return {
            "probe_rtt_1k_p50_us": (
                float(np.median(self.pooled(sessions, self.PING_BYTES))) * 1e6, "us"),
            "probe_ns_per_byte_64m": (metrics["bulk_ns_per_byte"], "ns/B"),
            "live_fit_s": (metrics["job_s"], "s"),
            "server_peak_rss_mb": (self.server_rss_mb, "MB"),
        }

    def netprobe_metrics(self, sessions):
        per_byte = {label: self.ns_per_byte(sessions, size) for label, size in
                    (("1k", self.PING_BYTES), ("1m", 1 << 20), ("16m", 16 << 20),
                     ("64m", 64 << 20))}
        metrics = super().netprobe_metrics(sessions)
        metrics.update({f"netprobe.ns_per_byte.{label}": v for label, v in per_byte.items()})
        metrics["netprobe.slope_ratio_64m_16m"] = per_byte["64m"] / per_byte["16m"]
        metrics["netprobe.rtt_1k_p99_us"] = float(
            np.percentile(self.pooled(sessions, self.PING_BYTES), 99)) * 1e6
        metrics["netprobe.live_fit_alpha_us"] = median(s["live_alpha_s"] for s in sessions) * 1e6
        metrics["netprobe.client_peak_rss_mb"] = peak_rss_mb()
        metrics["netprobe.server_peak_rss_mb"] = self.server_rss_mb
        return metrics

    def close(self) -> float:
        if self.server is not None:
            self.server_rss_mb = self.server.stop()
            self.server = None
        return self.server_rss_mb


WORKLOADS = {cls.name: cls for cls in (Pipeline, TrainSim, ProbeLoopback)}


def set_up(workload: Workload) -> None:
    subprocess.run([sys.executable, "-c", "import gradcomm, gradcomm.cli"],
                   env=child_env(workload.src), check=True, timeout=CHILD_TIMEOUT_S)
    workload.prepare()


def measure_setup(workload: Workload) -> float:
    """Median nominal time of fresh-interpreter import + input generation (+ server start)."""
    totals = []
    for _ in range(SETUP_REPEATS):
        workload.reset()
        totals.append(workload.timed(set_up, workload)[1])
    return median(totals)


def run_sessions(workload: Workload, seconds: float, tracer: Tracer | None = None) -> list[dict]:
    """Repeat sessions until ``seconds`` have passed (at least one)."""
    sessions = []
    start = time.perf_counter()
    while not sessions or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.begin_session()
        sessions.append(workload.session(tracer))
    return sessions


def layer_metrics(tracer: Tracer, workload: Workload, traced: list[dict]) -> dict:
    """Every per-layer metric; 0 where this workload never calls the layer."""
    t = SpanTable(tracer)
    m = {}
    for op in ("compress", "decompress"):
        for kind in KINDS[1:]:  # the simulator never calls compress for identity
            for reg in REGIMES:
                m[f"compression.{op}_us.{kind}.{reg}"] = (
                    t.mean_ns(f"compression.{op}.{kind}.{reg}") / 1e3)
    m["compression.calls"] = t.calls("compression.compress")
    m["compression.uplink_bits"] = t.counter("compression.uplink_bits")
    m["commodel.sample_time_us"] = t.mean_ns("commodel.sample_time") / 1e3
    m["commodel.sample_time_calls"] = t.calls("commodel.sample_time")
    for kind in KINDS:
        for reg in REGIMES:
            msgs = t.counter_total(f"optimizer.msgs.{kind}.{reg}")
            self_ns = t.total_ns(f"optimizer.run_compressed_gd.{kind}.{reg}", self_time=True)
            m[f"optimizer.self_us_per_msg.{kind}.{reg}"] = self_ns / msgs / 1e3 if msgs else 0.0
    for op in ("update", "advance", "fit"):
        m[f"estimator.{op}_us"] = t.mean_ns(f"estimator.{op}") / 1e3
    m["estimator.read_samples_s"] = t.mean_ns("estimator.read_samples_csv") / 1e9
    m["estimator.update_calls"] = t.calls("estimator.update")
    m["estimator.advance_calls"] = t.calls("estimator.advance")
    m["adaptive.select_power_ms"] = t.mean_ns("adaptive.select_power") / 1e6
    m["adaptive.select_power_calls"] = t.calls("adaptive.select_power")
    m["adaptive.predicted_cost_calls"] = t.calls("adaptive.predicted_cost")
    m["adaptive.controller_self_s"] = (
        t.mean_ns("adaptive.adaptive_controller", self_time=True) / 1e9)
    m["adaptive.decisions"] = t.counter("adaptive.adaptive_controller.items")
    for step in CLI_STEPS:
        m[f"cli.{step}_s"] = t.mean_ns(f"cli.{step}") / 1e9
        m[f"cli.{step}_self_s"] = t.mean_ns(f"cli.{step}", self_time=True) / 1e9
    m["cli.bytes_written"] = t.counter("cli.bytes_written")
    m.update(workload.netprobe_metrics(traced))
    m["netprobe.live_fit_connections"] = t.children_calls("netprobe.probe", "cli.fit")
    return m


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(name: str, seed: int, seconds: float, trace: bool, src: Path, work: Path) -> dict:
    """Run one workload; returns metrics, workload-specific report values and the tally."""
    tally = Tally()
    workload = WORKLOADS[name](seed, src, work / name, tally)
    try:
        setup_s = measure_setup(workload)
        if trace:
            untraced = run_sessions(workload, seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_sessions(workload, seconds / 2, tracer)
            finally:
                tracer.uninstall()
        else:
            untraced = run_sessions(workload, seconds)
    finally:
        child_rss_mb = workload.close()
        shutil.rmtree(work / name, ignore_errors=True)
    generic = workload.end_to_end(untraced)
    total_rss_mb = peak_rss_mb() + child_rss_mb
    report = workload.named(generic, untraced)
    report.update(setup_s=(setup_s, "s"), peak_rss_mb=(total_rss_mb, "MB"),
                  host_kernel_ms=(median(workload.clock.kernel_s) * 1e3, "ms"))
    result = {"tally": tally, "report": report, "sessions": len(untraced)}
    if trace:
        metrics = layer_metrics(tracer, workload, traced)
        traced_job_s = workload.end_to_end(traced)["job_s"]
        metrics["trace.overhead_s"] = traced_job_s - generic["job_s"]
        report["trace.overhead_s"] = (metrics["trace.overhead_s"], "s")
        result.update(metrics=metrics, tracer=tracer, traced_sessions=len(traced))
    else:
        metrics = dict(generic)
        metrics.update(setup_s=setup_s, peak_rss_mb=total_rss_mb)
        result["metrics"] = metrics
    return result
