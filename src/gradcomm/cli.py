"""Command-line interface: simulate, regions, fit, select, synth, probe, serve.

Unit conventions at this boundary: message sizes are BYTES and rates are
seconds per byte (human convention); all library internals work in bits and
seconds per bit.  ``estimator.BITS_PER_BYTE`` is the one factor between them,
applied exactly once on the way in or out: here, or by
``estimator.read_samples_csv`` to the byte sizes of a samples CSV.

``fit`` takes every fit of its samples from one ``estimator.fit_columns``
call.  ``fit --samples`` and ``select --fit`` parse their CSV columns in bulk
(``csvio.load_columns``); a file that parse cannot vouch for is read row by
row, which names a faulty file and line.  Every run writes a manifest next
to its outputs (``_write_manifest``): its parsed flags overlaid with what it
resolved, its seed (null for subcommands that draw no random numbers),
output names, and tool version.

``simulate``'s settings are the rows of ``SETTINGS``; a run takes each default,
then the config file, then the flags given.  ``run_compressed_gd`` resolves
an unset stepsize and returns it for the manifest.

Exit codes: 0 success, 1 the simulation diverged, 2 usage/config error or an
unusable path (the error names it), 3 degenerate data, 4 network error.  Each
package error carries its status as ``exit_code``; ``main`` prints the error
and returns that status.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import re
import sys
import threading
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, adaptive, commodel, estimator, netprobe, optimizer
from .commodel import TimeModelParams
from .compression import DEFAULT_BITS_PER_SCALAR, KINDS, CompressorSpec
from .csvio import format_rows, load_columns, read_csv, write_csv
from .errors import ConfigError, DegenerateDesignError, GradcommError, NetworkError
from .estimator import BITS_PER_BYTE


def non_negative_int(text: str) -> int:
    """Parse a seed: a base-10 integer >= 0 (NumPy refuses negative seeds)."""
    value = int(text)
    if value < 0:
        raise ValueError(f"expected an integer >= 0, got {value}")
    return value


def boolean(text: str) -> bool:
    """Parse a bool setting: true, 1, yes or on; false, 0, no or off (any case)."""
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


REQUIRED = object()  # the default of a setting that simulate cannot run without


class Setting(NamedTuple):
    flag: str
    parse: Callable[[str], object]
    default: object = None  # None: unset unless given
    help: str | None = None
    choices: tuple[str, ...] | None = None  # checked on the flag only


# simulate's settings, one row per config-file key; a flag stores under its key.
# Unknown keys are rejected so an experiment cannot run silently misconfigured.
SETTINGS = {
    "n": Setting("--n", int, REQUIRED, "number of workers"),
    "d": Setting("--d", int, REQUIRED, "dimension"),
    "steps": Setting("--steps", int, REQUIRED, "rounds"),
    "gamma": Setting("--gamma", float, None, "stepsize (default: 1/L, k/(d*L) for rand_k)"),
    "compressor.kind": Setting("--compressor", str, "identity", choices=KINDS),
    "compressor.k": Setting("--k", int, None, "rand_k and top_k's kept entries"),
    "compressor.r": Setting("--r", int, None, "rank_r's rank"),
    "alpha": Setting("--alpha", float, REQUIRED, "startup time, seconds"),
    "beta": Setting("--beta", float, REQUIRED, "seconds per byte"),
    "alpha_m": Setting("--alpha-m", float, 0.0, "relative jitter (sd) of alpha"),
    "beta_m": Setting("--beta-m", float, 0.0, "relative jitter (sd) of beta"),
    "downlink_compressed": Setting("--downlink-compressed", boolean, False,
                                   "compress the broadcast too: true or false (bare: true)"),
    "seed": Setting("--seed", non_negative_int, 0, "randomness seed (default: config's, else 0)"),
}

FIT_TRACE_COLUMNS = ("k", "alpha_hat", "beta_hat")  # select --fit reads the last two

# jcurve.csv lists every power up to SCAN_LIMIT and a geometric grid above it;
# the powers are computed and formatted in blocks of JCURVE_CHUNK.
SCAN_LIMIT = 10**7
GRID_SIZE = 64
JCURVE_CHUNK = 1 << 14

# A negative decimal number, exponent allowed: -5, -.5, -1e-3, -2.5E+4.
_NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


def read_config(path: Path) -> dict:
    """Parse a flat key=value config file of ``SETTINGS`` keys; unknown keys are errors."""
    config = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            config[key] = SETTINGS[key].parse(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return config


def parse_sizes(text: str) -> list[int]:
    """Sizes in bytes: either 'a,b,c' or a geometric range 'lo:hi:count'."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"size range must be lo:hi:count, got {text!r}")
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ConfigError(f"bad size range {text!r}: {exc}") from exc
        if not 1 <= lo <= hi or count < 1:
            raise ConfigError(f"invalid size range {text!r}")
        if not hi < 2**63:  # the sizes are int64
            raise ConfigError(f"size range {text!r} reaches 2**63 bytes")
        grid = np.unique(np.round(np.geomspace(lo, hi, count)).astype(np.int64))
        return [int(s) for s in grid]
    try:
        sizes = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad size list {text!r}: {exc}") from exc
    if not sizes or any(s < 1 for s in sizes):
        raise ConfigError("sizes must be positive integers (bytes)")
    return sizes


def _time_model(alpha: float, beta_per_byte: float, alpha_m: float = 0.0,
                beta_m: float = 0.0) -> TimeModelParams:
    return TimeModelParams(alpha, beta_per_byte / BITS_PER_BYTE, alpha_m, beta_m)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, args, outputs: list[str], resolved: dict | None = None) -> None:
    """Record a run: its parsed flags overlaid with what it ``resolved``, unset (None)
    ones left out, and its seed: the resolved one, else ``--seed``, else null."""
    resolved = resolved or {}
    flags = {key: value for key, value in vars(args).items()
             if key not in ("command", "func", "out", "config", "seed")}
    manifest = {
        "subcommand": args.command,
        "config": {key: value for key, value in {**flags, **resolved}.items() if value is not None},
        "seed": resolved.get("seed", getattr(args, "seed", None)),
        "outputs": outputs,
        "version": __version__,
    }
    path = out / f"{args.command}.manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def cmd_synth(args) -> None:
    if args.reps < 1:
        raise ConfigError(f"--reps must be >= 1, got {args.reps}")
    params = _time_model(args.alpha, args.beta, args.alpha_m, args.beta_m)
    sizes = [size for size in parse_sizes(args.sizes) for _ in range(args.reps)]
    rng = np.random.default_rng(args.seed)
    times = commodel.sample_time(params, np.array(sizes, dtype=np.float64) * BITS_PER_BYTE, rng)
    out = _out_dir(args)
    path = out / "samples.csv"
    write_csv(path, ",".join(estimator.SAMPLE_COLUMNS), zip(sizes, times.tolist()))
    _write_manifest(out, args, [path.name])
    print(f"wrote {len(sizes)} samples to {path}")


def cmd_fit(args) -> None:
    if args.live is not None:
        samples = _probe_live(args)
    elif args.samples is not None:
        samples = estimator.read_samples_csv(args.samples)
    else:
        raise ConfigError("fit needs --samples PATH or --live HOST:PORT")
    fits = estimator.fit_columns(
        estimator.start(math.inf, args.forgetting), samples[:, 0], samples[:, 1])
    fitted = np.flatnonzero(~np.isnan(fits.alpha_hat))
    first = fitted[0] if fitted.size else len(fits.count)
    if fitted.size < len(fits.count) - first:  # a sample after the first fit has none
        raise DegenerateDesignError(
            "degenerate design: forgetting has washed out the size variation")
    if fits.fault is not None:
        raise fits.fault
    if not fitted.size:
        raise DegenerateDesignError(estimator.SIZES_NEVER_VARIED)
    # beta_hat is written in seconds per byte (boundary convention).
    columns = (fits.count[first:], fits.alpha_hat[first:], fits.beta_hat[first:] * BITS_PER_BYTE)
    rows = [column.tolist() for column in columns]
    out = _out_dir(args)
    path = out / "fit_trace.csv"
    write_csv(path, ",".join(FIT_TRACE_COLUMNS), zip(*rows))
    _write_manifest(out, args, [path.name])
    k, alpha, beta = (column[-1] for column in rows)
    print(f"k={k} alpha_hat={alpha!r} beta_hat={beta!r} (s/byte)")


def _probe_live(args) -> np.ndarray:
    """Probe p_max, p_max/16 and one proposed size per round over one connection.

    Returns the (size_bits, rtt_seconds) samples as an (N, 2) array, sizes in [1, --pmax] bytes.
    """
    host, _, port_text = args.live.rpartition(":")
    if not host or not port_text.isdigit():
        raise ConfigError(f"--live expects HOST:PORT, got {args.live!r}")
    p_max_bytes = args.pmax
    if p_max_bytes < 2:
        raise ConfigError("--pmax must be at least 2 bytes for two distinct sizes")
    if args.rounds < 0:
        raise ConfigError(f"--rounds must be >= 0, got {args.rounds}")
    p_max = p_max_bytes * BITS_PER_BYTE
    estimator.start(math.inf, args.forgetting)  # refuse a bad --forgetting before any exchange
    rng = np.random.default_rng(args.seed)
    proposals = (estimator.propose_next_size(count, p_max, args.policy, rng)
                 for count in range(2, args.rounds + 2))
    sizes = [p_max_bytes, max(1, p_max_bytes // 16)] + [
        min(p_max_bytes, max(1, round(bits / BITS_PER_BYTE))) for bits in proposals]
    result = netprobe.probe(host, int(port_text), sizes, reps=1, warmup=args.warmup)
    if result.error or len(result.samples) < len(sizes):
        raise NetworkError(result.error or "probe returned too few samples")
    samples = [(s.size_bytes * BITS_PER_BYTE, s.rtt_seconds) for s in result.samples]
    return np.array(samples, dtype=np.float64)


def _jcurve_rows(obj: adaptive.SelectionObjective, ks: np.ndarray) -> str:
    """The jcurve.csv rows of the powers ``ks``, as ``write_csv`` formats them."""
    return format_rows(zip(ks.tolist(), adaptive.predicted_cost(obj, ks).tolist()), 2)


def _jcurve_block(obj: adaptive.SelectionObjective, lo: int, hi: int) -> str:
    """The jcurve.csv rows of the powers lo..hi-1: one worker task."""
    return _jcurve_rows(obj, np.arange(lo, hi, dtype=np.int64))


def _write_jcurve(handle, obj: adaptive.SelectionObjective) -> None:
    """Write the jcurve.csv rows of ``obj`` to ``handle``, in ascending k.

    Above SCAN_LIMIT the rows are a grid of at most GRID_SIZE powers.  Up to
    it they are every power 1..d in blocks of JCURVE_CHUNK, computed and
    formatted by forked worker processes, one per CPU this process may run
    on.  At most one block per worker is queued beyond the one being written,
    so memory does not grow with d.  The blocks are formatted here instead
    when there is one block or one CPU, or when this process runs a second
    thread, since a forked child could inherit a lock that thread holds.
    Every path writes the same bytes.
    """
    d = obj.d
    if d > SCAN_LIMIT:
        grid = np.unique(np.clip(np.round(np.geomspace(1, d, GRID_SIZE)), 1, d).astype(np.int64))
        handle.write(_jcurve_rows(obj, grid))
        return
    blocks = [(lo, min(lo + JCURVE_CHUNK, d + 1)) for lo in range(1, d + 1, JCURVE_CHUNK)]
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if len(blocks) == 1 or workers == 1 or threading.active_count() > 1:
        handle.writelines(_jcurve_block(obj, lo, hi) for lo, hi in blocks)
        return
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        pending = collections.deque()
        for lo, hi in blocks:
            pending.append(pool.submit(_jcurve_block, obj, lo, hi))
            if len(pending) > workers:
                handle.write(pending.popleft().result())
        for future in pending:
            handle.write(future.result())


def cmd_select(args) -> None:
    """Write jcurve.csv, J(k) at every listed power, and print the exact k* and its cost.

    The rows come from ``_write_jcurve``, in worker processes when there are
    several blocks and CPUs; their bytes do not depend on that.
    """
    if args.fit is not None:
        fits = load_columns(args.fit, FIT_TRACE_COLUMNS[1:])
        if fits is None:  # read_csv checks every row and names a faulty one
            fits = list(read_csv(args.fit, FIT_TRACE_COLUMNS[1:]))
        if not len(fits):
            raise ConfigError(f"fit trace {args.fit} has no rows")
        alpha, beta_per_byte = map(float, fits[-1])
    elif args.alpha is not None and args.beta is not None:
        alpha, beta_per_byte = args.alpha, args.beta
    else:
        raise ConfigError("select needs either --fit PATH or both --alpha and --beta")
    if args.d >= 2**63 or float(args.d) >= 2**63:  # jcurve's powers are int64, spaced as floats
        raise ConfigError(f"--d must round to a float below 2**63, got {args.d}")
    obj = adaptive.SelectionObjective(
        family=args.family, d=args.d, n=args.n,
        alpha=alpha, beta=beta_per_byte / BITS_PER_BYTE, b=args.b,
    )
    k_star, cost = adaptive.select_power(obj)
    out = _out_dir(args)
    path = out / "jcurve.csv"
    with open(path, "w", newline="") as handle:
        write_csv(handle, "k,predicted_cost", ())
        _write_jcurve(handle, obj)
    _write_manifest(out, args, [path.name], {"alpha": alpha, "beta": beta_per_byte})
    print(f"k_star={k_star} predicted_cost={cost!r}")


def cmd_regions(args) -> None:
    params = _time_model(args.alpha, args.beta)
    sizes = parse_sizes(args.sizes)
    bits = [size * BITS_PER_BYTE for size in sizes]
    # Classify and tabulate first: a bad --rho or --omegas makes no directory or file.
    regions = [(s, commodel.classify_region(params, s, args.rho)) for s in bits]
    if args.omegas is not None:
        try:
            omegas = [float(w) for w in args.omegas.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad compression ratio list {args.omegas!r}: {exc}") from exc
    else:
        omegas = [float(w) for w in np.geomspace(1.0, 1e6, 61)]
    curve = commodel.transition_report(params, max(bits), sorted(omegas), args.rho)
    out = _out_dir(args)
    regions_path = out / "regions.csv"
    write_csv(regions_path, "size_bits,region", regions)
    speedup_path = out / "speedup.csv"
    write_csv(speedup_path, ",".join(commodel.SpeedupRow._fields), curve)
    _write_manifest(out, args, [regions_path.name, speedup_path.name])
    print(f"wrote {regions_path} and {speedup_path}")


def cmd_simulate(args) -> None:
    # Each setting's default, then the config file, then the flags given.
    given = {**(read_config(Path(args.config)) if args.config is not None else {}),
             **{key: value for key, value in vars(args).items()
                if key in SETTINGS and value is not None}}
    config = {key: given.get(key, setting.default) for key, setting in SETTINGS.items()}
    missing = [key for key, value in config.items() if value is REQUIRED]
    if missing:
        raise ConfigError(f"simulate needs values for: {', '.join(missing)}")
    for key in ("n", "d"):  # the problem's shape: refused before it is drawn
        if config[key] < 1:
            raise ConfigError(f"simulate needs {key} >= 1, got {config[key]}")
    seed = config["seed"]

    params = _time_model(config["alpha"], config["beta"], config["alpha_m"], config["beta_m"])
    spec = CompressorSpec(config["compressor.kind"], config["compressor.k"], config["compressor.r"])
    problem_rng = optimizer.stream_rng(seed, optimizer.PROBLEM_STREAM)
    problem = optimizer.Problem.mean(problem_rng.standard_normal((config["n"], config["d"])))
    sim_config = optimizer.SimConfig(
        steps=config["steps"],
        time_model=params,
        gamma=config["gamma"],
        compressor=spec,
        seed=seed,
        downlink_compressed=config["downlink_compressed"],
    )
    trace = optimizer.run_compressed_gd(problem, sim_config)
    config["gamma"] = trace.gamma
    out = _out_dir(args)
    path = out / "trace.csv"
    trace.to_csv(path)
    final = trace.rows[-1]
    _write_manifest(out, args, [path.name], config)
    print(
        f"final_objective={final.objective!r} wall_clock_s={final.wall_clock_s!r} "
        f"uplink_bits={final.uplink_bits} downlink_bits={final.downlink_bits}"
    )


def cmd_probe(args) -> None:
    if not 0 < args.timeout < math.inf:
        raise ConfigError(f"--timeout must be a finite number of seconds > 0, got {args.timeout}")
    if args.reps < 1:
        raise ConfigError(f"--reps must be >= 1, got {args.reps}")
    sizes = parse_sizes(args.sizes)
    netprobe.check_probe(args.port, sizes, args.reps, args.warmup, args.timeout)
    out = _out_dir(args)  # before connecting, so an unusable --out costs no measurement
    result = netprobe.probe(
        args.host, args.port, sizes, reps=args.reps, warmup=args.warmup,
        timeout=args.timeout,
    )
    path = out / "samples.csv"
    netprobe.write_samples_csv(path, result.samples)
    _write_manifest(out, args, [path.name])
    if result.error:
        raise NetworkError(f"{result.error} ({len(result.samples)} partial samples kept)")
    print(f"wrote {len(result.samples)} samples to {path}")


def cmd_serve(args) -> None:
    server = netprobe.PingPongServer(args.host, args.port, args.pmax)
    port = server.bind()
    print(f"serving on {args.host}:{port} (p_max={args.pmax} bytes)", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


def build_parser() -> argparse.ArgumentParser:
    writes = argparse.ArgumentParser(add_help=False)
    writes.add_argument("--out", default=".", help="output directory")

    parser = argparse.ArgumentParser(
        prog="gradcomm",
        description="Model, measure, and simulate communication cost of "
                    "distributed optimization with gradient compression.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[writes],
                       help="generate synthetic (size, delay) samples")
    p.add_argument("--alpha", type=float, required=True, help="startup time, seconds")
    p.add_argument("--beta", type=float, required=True, help="seconds per byte")
    p.add_argument("--alpha-m", type=float, default=0.0, dest="alpha_m")
    p.add_argument("--beta-m", type=float, default=0.0, dest="beta_m")
    p.add_argument("--sizes", required=True, help="bytes: 'a,b,c' or 'lo:hi:count'")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--seed", type=non_negative_int, default=0, help="randomness seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit", parents=[writes],
                       help="estimate (alpha, beta) from samples or a live server")
    p.add_argument("--samples", default=None, help="samples.csv, as synth or probe writes it")
    p.add_argument("--live", default=None, help="HOST:PORT of a running serve instance")
    p.add_argument("--policy", choices=("uniform", "grid"), default="uniform")
    p.add_argument("--rounds", type=int, default=16, help="live probe rounds")
    p.add_argument("--pmax", type=int, default=1 << 20, help="largest probe size, bytes")
    p.add_argument("--warmup", type=int, default=1)
    p.add_argument("--forgetting", type=float, default=1.0)
    p.add_argument("--seed", type=non_negative_int, default=0,
                   help="seed of the --live size proposals")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("select", parents=[writes],
                       help="pick the compression power minimizing predicted time")
    p.add_argument("--alpha", type=float, default=None, help="startup time, seconds")
    p.add_argument("--beta", type=float, default=None, help="seconds per byte")
    p.add_argument("--fit", default=None, help="fit trace CSV; its last row is used")
    p.add_argument("--family", choices=adaptive.SELECTION_FAMILIES, default="rand_k")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=int, default=DEFAULT_BITS_PER_SCALAR)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("regions", parents=[writes],
                       help="classify sizes and tabulate the speedup curve")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True, help="seconds per byte")
    p.add_argument("--sizes", required=True, help="bytes: 'a,b,c' or 'lo:hi:count'")
    p.add_argument("--rho", type=float, default=commodel.DEFAULT_RHO)
    p.add_argument("--omegas", default=None, help="comma list of compression ratios")
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser("simulate", parents=[writes],
                       help="run the distributed GD simulator on the mean problem")
    for key, setting in SETTINGS.items():  # each flag is None unless given
        # A bool flag takes an optional value; given bare, it sets its setting true.
        optional = {"nargs": "?", "const": True} if setting.parse is boolean else {}
        p.add_argument(setting.flag, type=setting.parse, choices=setting.choices, dest=key,
                       metavar=None if setting.choices else key.rpartition(".")[2].upper(),
                       help=setting.help, **optional)
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("probe", parents=[writes],
                       help="measure (size, RTT) samples against a serve instance")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--sizes", required=True, help="bytes: 'a,b,c' or 'lo:hi:count'")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--warmup", type=int, default=1)
    p.add_argument("--timeout", type=float, default=netprobe.DEFAULT_TIMEOUT_S)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("serve", help="run the ping-pong measurement server")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--pmax", type=int, default=netprobe.DEFAULT_P_MAX_BYTES,
                   help="largest accepted payload, bytes")
    p.set_defaults(func=cmd_serve)

    return parser


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Rewrite ``--alpha -1e-3`` as ``--alpha=-1e-3``.

    argparse reads a dash-led token that is not a plain ``-5`` or ``-0.5``,
    such as ``-1e-3``, as an option, so a negative coefficient as ``fit``
    prints it would otherwise be refused.
    """
    joined: list[str] = []
    for token in argv:
        if (joined and joined[-1].startswith("--") and "=" not in joined[-1]
                and _NEGATIVE_NUMBER.fullmatch(token)):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        args.func(args)
    except GradcommError as exc:  # first: a NetworkError is also an OSError
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # a path that cannot be read or written as asked
        if exc.filename is None:
            raise
        problem = "not found" if isinstance(exc, FileNotFoundError) else exc.strerror
        print(f"error: {exc.filename}: {problem}", file=sys.stderr)
        return ConfigError.exit_code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
