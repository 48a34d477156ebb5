"""Command-line interface: simulate, regions, fit, select, synth, probe, serve.

Unit conventions at this boundary: message sizes are BYTES and rates are
seconds per byte (human convention); all library internals work in bits and
seconds per bit, with the factor of 8 applied exactly once on the way in or
out.  Every run writes a manifest next to its outputs recording the resolved
configuration, seed (null for subcommands that draw no random numbers),
output names, and tool version.

Exit codes: 0 success, 2 usage/config error or an unusable path (the error
names it), 3 degenerate data, 4 network error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__, adaptive, commodel, estimator, netprobe, optimizer
from .commodel import TimeModelParams
from .compression import DEFAULT_BITS_PER_SCALAR, KINDS, CompressorSpec
from .csvio import read_csv, write_csv
from .errors import (
    ConfigError,
    DegenerateDesignError,
    DivergenceError,
    NetworkError,
    ParameterError,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_NETWORK = 4

BITS_PER_BYTE = 8


def non_negative_int(text: str) -> int:
    """Parse a seed: a base-10 integer >= 0 (NumPy refuses negative seeds)."""
    value = int(text)
    if value < 0:
        raise ValueError(f"expected an integer >= 0, got {value}")
    return value


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


# Flat config keys accepted by `simulate`, with their parsers; each simulate
# flag stores under its key.  Unknown keys are rejected outright so an
# experiment cannot run silently misconfigured.
_CONFIG_KEYS = {
    "n": int,
    "d": int,
    "steps": int,
    "gamma": float,
    "compressor.kind": str,
    "compressor.k": int,
    "compressor.r": int,
    "alpha": float,
    "beta": float,
    "alpha_m": float,
    "beta_m": float,
    "seed": non_negative_int,
    "downlink_compressed": _parse_bool,
}

_PROBLEM_STREAM = 3  # SeedSequence spawn key for synthetic problem data

# jcurve.csv lists every power up to SCAN_LIMIT and a geometric grid above it,
# computed and written JCURVE_CHUNK rows at a time.
SCAN_LIMIT = 10**7
GRID_SIZE = 64
JCURVE_CHUNK = 1 << 16

# A negative decimal number, exponent allowed: -5, -.5, -1e-3, -2.5E+4.
_NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


def read_config(path: Path) -> dict:
    """Parse a flat key=value config file; unknown keys are errors."""
    config = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            config[key] = _CONFIG_KEYS[key](value)
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


def _write_manifest(out: Path, subcommand: str, config: dict, seed, outputs: list[str]) -> None:
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "seed": seed,
        "outputs": outputs,
        "version": __version__,
    }
    path = out / f"{subcommand}.manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def cmd_synth(args) -> int:
    if args.reps < 1:
        raise ConfigError(f"--reps must be >= 1, got {args.reps}")
    out = _out_dir(args)
    params = _time_model(args.alpha, args.beta, args.alpha_m, args.beta_m)
    sizes = [size for size in parse_sizes(args.sizes) for _ in range(args.reps)]
    rng = np.random.default_rng(args.seed)
    times = commodel.sample_time(params, np.array(sizes, dtype=np.float64) * BITS_PER_BYTE, rng)
    path = out / "samples.csv"
    write_csv(path, "size_bytes,time_seconds", zip(sizes, times.tolist()))
    config = {
        "alpha": args.alpha, "beta": args.beta,
        "alpha_m": args.alpha_m, "beta_m": args.beta_m,
        "sizes": args.sizes, "reps": args.reps,
    }
    _write_manifest(out, "synth", config, args.seed, [path.name])
    print(f"wrote {len(sizes)} samples to {path}")
    return EXIT_OK


def cmd_fit(args) -> int:
    out = _out_dir(args)
    path = out / "fit_trace.csv"
    if args.live:
        samples, p_max = _probe_live(args)
        config = {
            "live": args.live, "policy": args.policy, "rounds": args.rounds,
            "pmax": args.pmax, "warmup": args.warmup, "forgetting": args.forgetting,
        }
    else:
        if args.samples is None:
            raise ConfigError("fit needs --samples PATH or --live HOST:PORT")
        samples = estimator.read_samples_csv(args.samples)
        p_max = max((x for x, _ in samples), default=1.0)
        config = {"samples": args.samples, "forgetting": args.forgetting}
    # beta_hat is written in seconds per byte (boundary convention).
    rows = []
    for _, result in estimator.running_fits(samples, p_max, args.forgetting):
        if result is None:
            raise DegenerateDesignError(
                "degenerate design: forgetting has washed out the size variation")
        rows.append((result.k, result.alpha_hat, result.beta_hat * BITS_PER_BYTE))
    write_csv(path, "k,alpha_hat,beta_hat", rows)
    _write_manifest(out, "fit", config, args.seed, [path.name])
    k, alpha, beta = rows[-1]
    print(f"k={k} alpha_hat={alpha!r} beta_hat={beta!r} (s/byte)")
    return EXIT_OK


def _probe_live(args) -> tuple[list[tuple[float, float]], float]:
    """Probe p_max, p_max/16 and one proposed size per round over one connection."""
    host, _, port_text = args.live.rpartition(":")
    if not host or not port_text.isdigit():
        raise ConfigError(f"--live expects HOST:PORT, got {args.live!r}")
    p_max_bytes = args.pmax
    if p_max_bytes < 2:
        raise ConfigError("--pmax must be at least 2 bytes for two distinct sizes")
    p_max = p_max_bytes * BITS_PER_BYTE
    estimator.start(p_max, args.forgetting)  # refuse a bad --forgetting before any exchange
    rng = np.random.default_rng(args.seed)
    proposals = (estimator.propose_next_size(count, p_max, args.policy, rng)
                 for count in range(2, args.rounds + 2))
    sizes = [p_max_bytes, max(1, p_max_bytes // 16)] + [
        min(p_max_bytes, max(1, round(bits / BITS_PER_BYTE))) for bits in proposals]
    result = netprobe.probe(host, int(port_text), sizes, reps=1, warmup=args.warmup)
    if result.error or len(result.samples) < len(sizes):
        raise NetworkError(result.error or "probe returned too few samples")
    return [(s.size_bytes * BITS_PER_BYTE, s.rtt_seconds) for s in result.samples], p_max


def candidate_powers(d: int):
    """The powers jcurve.csv lists, as arrays of at most JCURVE_CHUNK ascending values."""
    if d > SCAN_LIMIT:
        yield np.unique(np.clip(np.round(np.geomspace(1, d, GRID_SIZE)), 1, d).astype(np.int64))
        return
    for lo in range(1, d + 1, JCURVE_CHUNK):
        yield np.arange(lo, min(lo + JCURVE_CHUNK, d + 1), dtype=np.int64)


def cmd_select(args) -> int:
    out = _out_dir(args)
    if args.fit is not None:
        last = None
        for last in read_csv(args.fit, ("alpha_hat", "beta_hat")):  # every row is checked
            pass
        if last is None:
            raise ConfigError(f"fit trace {args.fit} has no rows")
        alpha, beta_per_byte = last
    elif args.alpha is not None and args.beta is not None:
        alpha, beta_per_byte = args.alpha, args.beta
    else:
        raise ConfigError("select needs either --fit PATH or both --alpha and --beta")
    obj = adaptive.SelectionObjective(
        family=args.family, d=args.d, n=args.n,
        alpha=alpha, beta=beta_per_byte / BITS_PER_BYTE, b=args.b,
    )
    k_star, cost = adaptive.select_power(obj)
    path = out / "jcurve.csv"
    write_csv(path, "k,predicted_cost", itertools.chain.from_iterable(
        zip(ks.tolist(), adaptive.predicted_cost(obj, ks).tolist())
        for ks in candidate_powers(obj.d)
    ))
    config = {
        "family": args.family, "d": args.d, "n": args.n, "b": args.b,
        "alpha": alpha, "beta": beta_per_byte,
        "fit": args.fit,
    }
    _write_manifest(out, "select", config, None, [path.name])
    print(f"k_star={k_star} predicted_cost={cost!r}")
    return EXIT_OK


def cmd_regions(args) -> int:
    out = _out_dir(args)
    params = _time_model(args.alpha, args.beta)
    sizes = parse_sizes(args.sizes)
    bits = [size * BITS_PER_BYTE for size in sizes]
    # Classify and tabulate first: a bad --rho or --omegas writes no file.
    regions = [(s, commodel.classify_region(params, s, args.rho).value) for s in bits]
    if args.omegas:
        try:
            omegas = [float(w) for w in args.omegas.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad compression ratio list {args.omegas!r}: {exc}") from exc
    else:
        omegas = [float(w) for w in np.geomspace(1.0, 1e6, 61)]
    curve = commodel.transition_report(params, max(bits), sorted(omegas), args.rho)
    regions_path = out / "regions.csv"
    write_csv(regions_path, "size_bits,region", regions)
    speedup_path = out / "speedup.csv"
    curve.to_csv(speedup_path)
    config = {"alpha": args.alpha, "beta": args.beta, "sizes": args.sizes,
              "rho": args.rho, "omegas": args.omegas}
    _write_manifest(out, "regions", config, None, [regions_path.name, speedup_path.name])
    print(f"wrote {regions_path} and {speedup_path}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    out = _out_dir(args)
    # The optional keys' defaults, then the config file, then the flags given.
    config = {"alpha_m": 0.0, "beta_m": 0.0, "compressor.kind": "identity",
              "downlink_compressed": False, "seed": 0,
              **(read_config(Path(args.config)) if args.config else {}),
              **{key: value for key, value in vars(args).items()
                 if key in _CONFIG_KEYS and value is not None}}
    missing = [key for key in ("n", "d", "steps", "alpha", "beta") if key not in config]
    if missing:
        raise ConfigError(f"simulate needs values for: {', '.join(missing)}")
    seed = config["seed"]

    params = _time_model(config["alpha"], config["beta"], config["alpha_m"], config["beta_m"])
    spec = CompressorSpec(
        kind=config["compressor.kind"],
        k=config.get("compressor.k"),
        r=config.get("compressor.r"),
    )
    problem_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(_PROBLEM_STREAM,))
    )
    problem = optimizer.Problem.mean(problem_rng.standard_normal((config["n"], config["d"])))
    gamma = config.get("gamma")
    if gamma is None:
        gamma = optimizer.default_stepsize(problem, spec)
    config["gamma"] = gamma
    sim_config = optimizer.SimConfig(
        steps=config["steps"],
        time_model=params,
        gamma=gamma,
        compressor=spec,
        seed=seed,
        downlink_compressed=config["downlink_compressed"],
    )
    trace = optimizer.run_compressed_gd(problem, sim_config)
    path = out / "trace.csv"
    trace.to_csv(path)
    final = trace.rows[-1]
    _write_manifest(out, "simulate", config, seed, [path.name])
    print(
        f"final_objective={final.objective!r} wall_clock_s={final.wall_clock_s!r} "
        f"uplink_bits={final.uplink_bits} downlink_bits={final.downlink_bits}"
    )
    return EXIT_OK


def cmd_probe(args) -> int:
    if not 0 < args.timeout < math.inf:
        raise ConfigError(f"--timeout must be a finite number of seconds > 0, got {args.timeout}")
    out = _out_dir(args)
    sizes = parse_sizes(args.sizes)
    result = netprobe.probe(
        args.host, args.port, sizes, reps=args.reps, warmup=args.warmup,
        timeout=args.timeout,
    )
    path = out / "samples.csv"
    netprobe.write_samples_csv(path, result.samples)
    config = {"host": args.host, "port": args.port, "sizes": args.sizes,
              "reps": args.reps, "warmup": args.warmup}
    _write_manifest(out, "probe", config, None, [path.name])
    if result.error:
        print(f"error: {result.error} ({len(result.samples)} partial samples kept)",
              file=sys.stderr)
        return EXIT_NETWORK
    print(f"wrote {len(result.samples)} samples to {path}")
    return EXIT_OK


def cmd_serve(args) -> int:
    server = netprobe.PingPongServer(args.host, args.port, args.pmax)
    port = server.bind()
    print(f"serving on {args.host}:{port} (p_max={args.pmax} bytes)", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return EXIT_OK


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
    p.add_argument("--samples", default=None, help="sample CSV (size_bytes,time_seconds)")
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
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--compressor", default=None, choices=KINDS, dest="compressor.kind")
    p.add_argument("--k", type=int, default=None, dest="compressor.k", metavar="K")
    p.add_argument("--r", type=int, default=None, dest="compressor.r", metavar="R")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None, help="seconds per byte")
    p.add_argument("--alpha-m", type=float, default=None, dest="alpha_m")
    p.add_argument("--beta-m", type=float, default=None, dest="beta_m")
    p.add_argument("--downlink-compressed", action="store_const", const=True, default=None,
                   dest="downlink_compressed")
    p.add_argument("--seed", type=non_negative_int, default=None,
                   help="randomness seed (default: the config's seed, else 0)")
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
        return args.func(args)
    except (ConfigError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DegenerateDesignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except NetworkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NETWORK
    except OSError as exc:  # a path that cannot be read or written as asked
        if exc.filename is None:
            raise
        problem = "not found" if isinstance(exc, FileNotFoundError) else exc.strerror
        print(f"error: {exc.filename}: {problem}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
