"""Synchronous distributed gradient descent simulator with communication timing.

Each round the server broadcasts the iterate, every worker computes its local
gradient (optionally compressed for the uplink), and the server averages the
received vectors.  Simulated wall-clock time charges one downlink transmission
plus the maximum of the n parallel uplink transmissions per round; gradient
compute time is charged as zero.  Bit accounting uses the compressors' exact
message sizes.  Each compressed gradient, and a compressed downlink's iterate,
is reconstructed in-process by ``compression.add_decompressed``, from the same
operator code and seeds as a message round trip, so the trace is identical to
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .commodel import TimeModelParams, sample_time
from .compression import (
    DEFAULT_BITS_PER_SCALAR,
    RANDOMIZED_KINDS,
    CompressorSpec,
    add_decompressed,
    compress,  # noqa: F401  (unused here; perfbench/spans.py patches it on this module)
    decompress,  # noqa: F401  (same)
)
from .csvio import write_csv
from .errors import DivergenceError, ParameterError

DIVERGENCE_LIMIT = 1e12

# SeedSequence spawn-key prefixes; they keep the time-noise stream independent
# of per-message compression seeds, so runs that differ only in the compressor
# draw identical noise.
_TIME_STREAM = 0
_UPLINK_STREAM = 1
_DOWNLINK_STREAM = 2

TRACE_CSV_HEADER = "round,objective,grad_norm,wall_clock_s,uplink_bits,downlink_bits"


@dataclass(frozen=True, eq=False)
class Problem:
    """Finite-sum quadratic: f(x) = (1/n) * sum_i f_i(x).

    Two flavors: the mean problem f_i(x) = 0.5*||x - a_i||^2 (targets set) and
    general PSD quadratics f_i(x) = 0.5*x'A_i x - b_i'x (mats/vecs set).  Both
    have a closed-form minimizer, used as the test oracle.
    """

    n: int
    d: int
    targets: np.ndarray | None = None
    mats: np.ndarray | None = None
    vecs: np.ndarray | None = None

    @classmethod
    def mean(cls, targets) -> "Problem":
        arr = np.asarray(targets, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ParameterError("targets must be an (n, d) array with n, d >= 1")
        if not np.all(np.isfinite(arr)):
            raise ParameterError("targets must be finite")
        return cls(n=arr.shape[0], d=arr.shape[1], targets=arr)

    @classmethod
    def random_quadratic(cls, n: int, d: int, seed=0) -> "Problem":
        rng = np.random.default_rng(seed)
        mats = np.empty((n, d, d))
        for i in range(n):
            m = rng.standard_normal((d, d))
            mats[i] = m @ m.T / d + 0.5 * np.eye(d)
        vecs = rng.standard_normal((n, d))
        return cls(n=n, d=d, mats=mats, vecs=vecs)

    def worker_gradients(self, x: np.ndarray) -> np.ndarray:
        """All n local gradients at x, stacked as an (n, d) array."""
        if self.targets is not None:
            return x[None, :] - self.targets
        return np.einsum("nij,j->ni", self.mats, x) - self.vecs

    def objective(self, x: np.ndarray) -> float:
        if self.targets is not None:
            diff = x[None, :] - self.targets
            return float(0.5 * np.mean(np.sum(diff * diff, axis=1)))
        quad = 0.5 * np.einsum("i,nij,j->n", x, self.mats, x)
        return float(np.mean(quad - self.vecs @ x))

    def smoothness(self) -> float:
        """L = largest eigenvalue of the averaged Hessian."""
        if self.targets is not None:
            return 1.0
        return float(np.linalg.eigvalsh(self.mats.mean(axis=0)).max())

    def strong_convexity(self) -> float:
        if self.targets is not None:
            return 1.0
        return float(np.linalg.eigvalsh(self.mats.mean(axis=0)).min())


def closed_form_optimum(problem: Problem) -> tuple[np.ndarray, float]:
    """Exact minimizer and optimal value."""
    if problem.targets is not None:
        x_star = problem.targets.mean(axis=0)
    else:
        try:
            x_star = np.linalg.solve(problem.mats.mean(axis=0), problem.vecs.mean(axis=0))
        except np.linalg.LinAlgError as exc:
            raise ParameterError("averaged quadratic system is singular") from exc
    return x_star, problem.objective(x_star)


@dataclass(frozen=True)
class SimConfig:
    steps: int
    time_model: TimeModelParams
    gamma: float | None = None  # None = default_stepsize
    compressor: CompressorSpec = field(default_factory=CompressorSpec)
    seed: int = 0
    downlink_compressed: bool = False

    def __post_init__(self):
        if self.steps < 1:
            raise ParameterError("steps must be >= 1")


@dataclass(frozen=True)
class TraceRow:
    round: int
    objective: float
    grad_norm: float
    wall_clock_s: float
    uplink_bits: int
    downlink_bits: int


@dataclass(eq=False)
class SimTrace:
    rows: list[TraceRow]
    final_x: np.ndarray

    def to_csv(self, target) -> None:
        """Write the trace; ``target`` is a path or a writable text file."""
        write_csv(target, TRACE_CSV_HEADER, (
            (row.round, row.objective, row.grad_norm, row.wall_clock_s,
             row.uplink_bits, row.downlink_bits)
            for row in self.rows
        ))


def default_stepsize(problem: Problem, spec: CompressorSpec) -> float:
    # Unbiased sparsification inflates gradient variance by zeta = d/k, so the
    # safe default shrinks the plain 1/L step by that factor.
    L = problem.smoothness()
    if spec.kind == "rand_k":
        return 1.0 / (L * spec.zeta(problem.d))
    return 1.0 / L


def _message_seed(seed: int, stream: int, round_idx: int, worker: int) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, round_idx, worker))
    return int(ss.generate_state(1)[0])


def run_compressed_gd(problem: Problem, config: SimConfig) -> SimTrace:
    """Distributed GD with compressed uplink gradients.

    Workers send C(grad_i) and the server averages the decompressed vectors.
    Per-worker compression randomness is keyed by (seed, round, worker), so
    results do not depend on scheduling.  Downlink broadcasts the iterate
    uncompressed unless ``downlink_compressed`` is set.
    """
    spec = config.compressor
    d, n, b = problem.d, problem.n, DEFAULT_BITS_PER_SCALAR
    gamma = config.gamma if config.gamma is not None else default_stepsize(problem, spec)
    if not 0 < gamma < math.inf:
        raise ParameterError(f"stepsize must be positive and finite, got {gamma}")
    time_model = config.time_model
    time_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(_TIME_STREAM,))
    )
    x = np.zeros(d)

    compress_downlink = config.downlink_compressed and spec.kind != "identity"
    seeded = spec.kind in RANDOMIZED_KINDS
    wall = 0.0
    up_total = 0
    down_total = 0
    # Gradients at the current iterate: they give the trace's grad_norm and,
    # with an exact downlink, the next round's worker gradients.
    grads = problem.worker_gradients(x)
    rows = [TraceRow(0, problem.objective(x), float(np.linalg.norm(grads.mean(axis=0))),
                     0.0, 0, 0)]
    for k in range(config.steps):
        down_bits = d * b
        if compress_downlink:
            x_bcast = np.zeros(d)
            down_bits = add_decompressed(
                x_bcast, spec, x,
                _message_seed(config.seed, _DOWNLINK_STREAM, k, 0) if seeded else None,
            )
            grads = problem.worker_gradients(x_bcast)

        agg = np.zeros(d)
        up_bits = [
            add_decompressed(
                agg, spec, grads[i],
                _message_seed(config.seed, _UPLINK_STREAM, k, i) if seeded else None,
            )
            for i in range(n)
        ]
        # One draw per round: the downlink's time first, then each uplink's.
        t_down, *t_up = sample_time(time_model, [down_bits, *up_bits], time_rng).tolist()

        x = x - gamma * (agg / n)
        wall += t_down + max(t_up)
        up_total += sum(up_bits)
        down_total += down_bits
        obj = problem.objective(x)
        if not obj <= DIVERGENCE_LIMIT:
            raise DivergenceError(
                f"objective {obj:.3e} exceeded {DIVERGENCE_LIMIT:.0e} at round {k + 1}; "
                "reduce the stepsize"
            )
        grads = problem.worker_gradients(x)
        grad_norm = float(np.linalg.norm(grads.mean(axis=0)))
        rows.append(TraceRow(k + 1, obj, grad_norm, wall, up_total, down_total))
    return SimTrace(rows=rows, final_x=x)
