"""Synchronous distributed gradient descent simulator with communication timing.

Each round the server broadcasts the iterate, every worker computes its local
gradient of a diagonal quadratic ``Problem`` (optionally compressed for the
uplink), and the server averages the received vectors.  Simulated wall-clock
time charges each round ``commodel.round_times``, one downlink transmission plus
the maximum of the n parallel uplinks; gradient compute time is charged as zero.
Round t's bit columns are t*n*up and t*down, from exact message sizes.  The
round's compressed gradients are reconstructed in-process by one
``compression.add_decompressed`` call, and a compressed downlink's iterate by
another, from the same operator code and seeds as message round trips, so
the trace is identical to one.  A run makes no (n, d) array: the uplink
computes each worker's gradient entries as ``add_decompressed`` reads them,
whole rows a batch at a time, or for rand_k with 2k <= d only the kept
entries.  The trace's objective and gradient norm come from O(d) closed
forms in the mean target and the optimal value, which each ``Problem``
computes once.  With unit curvature (``Problem.mean``) a gradient is one
subtraction and the trace's two numbers share one sum of squares.

Every seeded draw comes from ``stream_rng(seed, *spawn_key)`` and the one
spawn-key table below: one generator per run for the time noise and the
CLI's problem data, keyed (stream,), and one per round for the seeded kinds'
uplink and downlink, keyed (stream, round), drawn from in worker order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .commodel import TimeModelParams, round_times
from .commodel import sample_time  # noqa: F401  (unused; perfbench/spans.py patches it here)
from .compression import (
    RANDOMIZED_KINDS,
    CompressorSpec,
    add_decompressed,
    compress,  # noqa: F401  (same)
    decompress,  # noqa: F401  (same)
    message_bits,
    row_batches,
)
from .csvio import write_csv
from .errors import DivergenceError, ParameterError, is_int

DIVERGENCE_LIMIT = 1e12

# The SeedSequence spawn-key prefix of every seeded stream; a new stream takes
# a new row.  No stream draws another's numbers, so runs that differ only in
# the compressor draw identical time noise and problem data.
_TIME_STREAM = 0
_UPLINK_STREAM = 1
_DOWNLINK_STREAM = 2
PROBLEM_STREAM = 3


def stream_rng(seed: int, *spawn_key: int) -> np.random.Generator:
    """The generator of stream ``spawn_key`` under ``seed``: key (stream,) or (stream, round)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=spawn_key))


@dataclass(frozen=True, eq=False)
class Problem:
    """Finite-sum diagonal quadratic: f(x) = (1/n) * sum_i 0.5 * sum_j h_j * (x_j - a_ij)**2.

    Worker i holds row a_i of ``targets`` (n, d); the positive ``curvature``
    h (length d) is shared, so the minimizer is the mean target, L = max h and
    mu = min h; both arrays must be finite.  ``mean`` is the problem with h = 1.
    The mean target and f* are cached on first use, so both arrays are made
    read-only once it is built, a caller's float64 array included.
    """

    targets: np.ndarray
    curvature: np.ndarray

    def __post_init__(self):
        # Float64 arrays are kept as given: a copy of the targets would double
        # the problem's memory.
        targets = np.asarray(self.targets, dtype=np.float64)
        curvature = np.asarray(self.curvature, dtype=np.float64)
        if targets.ndim != 2 or targets.shape[0] < 1 or targets.shape[1] < 1:
            raise ParameterError("targets must be an (n, d) array with n, d >= 1")
        if curvature.shape != targets.shape[1:]:
            raise ParameterError(f"curvature must be a 1-D array of length d = {targets.shape[1]}, "
                                 f"got shape {curvature.shape}")
        if not np.all((curvature > 0) & (curvature < math.inf)):
            raise ParameterError("curvature must be finite and positive")
        if not np.all(np.isfinite(targets)):  # before the caller's array is made read-only
            raise ParameterError("targets must be finite")
        targets.flags.writeable = curvature.flags.writeable = False
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "curvature", curvature)

    @property
    def n(self) -> int:
        return self.targets.shape[0]

    @property
    def d(self) -> int:
        return self.targets.shape[1]

    @classmethod
    def mean(cls, targets) -> "Problem":
        return cls(targets=targets, curvature=np.ones(np.shape(targets)[-1:]))

    @classmethod
    def random_quadratic(cls, n: int, d: int, seed=0) -> "Problem":
        """Standard normal targets and h ~ U(0.5, 5), so mu >= 0.5 and L/mu <= 10."""
        rng = np.random.default_rng(seed)
        return cls(targets=rng.standard_normal((n, d)), curvature=rng.uniform(0.5, 5.0, d))

    @cached_property
    def _optimum(self) -> tuple[np.ndarray, float]:
        """The mean target a-bar and f* = f(a-bar), from the ``_WorkerGradients`` at
        a-bar, one ``row_batches`` batch at a time: no (n, d) temporary is made."""
        mean = self.targets.mean(axis=0)
        grads = _WorkerGradients(self, mean)
        sums = np.empty(self.n)
        for part in row_batches(self.n, self.d):
            terms = grads[part]
            terms *= mean - self.targets[part]  # h * (a-bar - a)**2
            terms.sum(axis=1, out=sums[part])
        return mean, float(0.5 * np.mean(sums))

    @cached_property
    def _unit_curvature(self) -> bool:
        """Whether h = 1, where multiplying by h changes no bit and is skipped."""
        return bool(np.all(self.curvature == 1.0))

    def objective_and_grad_norm(self, x: np.ndarray) -> tuple[float, float]:
        """f(x) = f* + 0.5 * sum_j h_j * (x_j - a-bar_j)**2 and the norm of the mean
        gradient h * (x - a-bar), in O(d).  The norm sums with ``np.add.reduce``:
        a BLAS dot product would split the sum by the host's thread count.
        With h = 1 both are the one sum of (x - a-bar)**2."""
        mean, f_star = self._optimum
        diff = x - mean
        if self._unit_curvature:
            square = np.add.reduce(diff * diff)
            return f_star + 0.5 * float(square), math.sqrt(square)
        grad = diff * self.curvature
        return (f_star + 0.5 * float(np.add.reduce(grad * diff)),
                math.sqrt(np.add.reduce(grad * grad)))

    def worker_gradients(self, x: np.ndarray) -> np.ndarray:
        """All n local gradients h * (x - a_i) at x, stacked as a new (n, d) array."""
        return self._gradients(x, self.targets, slice(None), None)

    def _gradients(self, x, targets, cols, out) -> np.ndarray:
        """h * (x - a) entry by entry, into ``out``: x and a as given, h as ``curvature[cols]``."""
        grads = np.subtract(x, targets, out=out)
        if not self._unit_curvature:
            grads *= self.curvature[cols]
        return grads

    def smoothness(self) -> float:
        """L = largest eigenvalue of the averaged Hessian diag(h)."""
        return float(self.curvature.max())

    def strong_convexity(self) -> float:
        return float(self.curvature.min())


class _WorkerGradients:
    """``problem.worker_gradients(x)`` as ``compression.add_decompressed`` reads it:
    each entry is computed when it is read, and no (n, d) array is made.

    ``grads[part]`` computes the rows of a ``row_batches(n, d)`` slice, or a
    shorter one, into one scratch array, which the next slice overwrites.
    ``grads.take(flat)`` reads an (m, k) array of flat indices, row i's into
    row i.  With 2k <= d it computes only those m*k entries; otherwise
    whole rows, a scratch batch at a time.  Either way each entry is the
    float ``worker_gradients`` gives it.  ``x`` may be rebound between reads.
    """

    def __init__(self, problem: Problem, x: np.ndarray):
        self.problem, self.x = problem, x
        self.shape = problem.targets.shape
        self._scratch = np.empty((next(row_batches(problem.n, problem.d)).stop, problem.d))

    def __getitem__(self, rows: slice) -> np.ndarray:
        targets = self.problem.targets[rows]  # more rows than the scratch raise ValueError
        return self.problem._gradients(self.x, targets, slice(None), self._scratch[: len(targets)])

    def take(self, flat: np.ndarray) -> np.ndarray:
        d = self.shape[1]
        if 2 * flat.shape[1] <= d:
            cols = flat - np.arange(0, len(flat) * d, d)[:, None]
            x = self.x.take(cols)
            return self.problem._gradients(x, self.problem.targets.take(flat), cols, x)
        # Taken straight into ``values``: with ``out``, mode "raise" takes
        # through a temporary, and freed temporaries of this size can let the
        # heap shrink, so that the next round faults their pages back in.
        # The indices are in range, so "wrap" moves none of them.
        values = np.empty(flat.shape)
        for part in row_batches(len(flat), d):
            idx = flat[part]
            np.take(self[part], idx - part.start * d if part.start else idx,
                    out=values[part], mode="wrap")
        return values


def closed_form_optimum(problem: Problem) -> tuple[np.ndarray, float]:
    """Exact minimizer (the mean target) and optimal value, as the problem caches them."""
    x_star, f_star = problem._optimum
    return x_star.copy(), f_star


@dataclass(frozen=True)
class SimConfig:
    steps: int
    time_model: TimeModelParams
    gamma: float | None = None  # None = default_stepsize
    compressor: CompressorSpec = field(default_factory=CompressorSpec)
    seed: int = 0
    downlink_compressed: bool = False

    def __post_init__(self):
        if not is_int(self.steps, 1):
            raise ParameterError(f"steps must be an integer of at least 1, got {self.steps!r}")
        if not is_int(self.seed, 0):
            raise ParameterError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not isinstance(self.downlink_compressed, bool):
            raise ParameterError(
                f"downlink_compressed must be a bool, got {self.downlink_compressed!r}")


class TraceRow(NamedTuple):
    round: int
    objective: float
    grad_norm: float
    wall_clock_s: float
    uplink_bits: int
    downlink_bits: int


TRACE_CSV_HEADER = ",".join(TraceRow._fields)  # a trace.csv row is a TraceRow


@dataclass(frozen=True, eq=False)
class SimTrace:
    rows: list[TraceRow]
    final_x: np.ndarray
    gamma: float  # the stepsize used: SimConfig.gamma, else default_stepsize

    def to_csv(self, target) -> None:
        """Write the trace; ``target`` is a path or a writable text file."""
        write_csv(target, TRACE_CSV_HEADER, self.rows)


def default_stepsize(problem: Problem, spec: CompressorSpec) -> float:
    # Unbiased sparsification inflates gradient variance by zeta = d/k, so the
    # safe default shrinks the plain 1/L step by that factor.
    L = problem.smoothness()
    if spec.kind == "rand_k":
        return 1.0 / (L * spec.zeta(problem.d))
    return 1.0 / L


def run_compressed_gd(problem: Problem, config: SimConfig) -> SimTrace:
    """Distributed GD with compressed uplink gradients.

    Workers send C(grad_i) and the server averages the decompressed vectors.
    Compression randomness is keyed by (seed, stream, round): one generator
    per stream and round, drawn from in worker order, so results do not
    depend on scheduling.  Downlink broadcasts the iterate uncompressed
    unless ``downlink_compressed`` is set.
    """
    spec = config.compressor
    d, n = problem.d, problem.n
    gamma = config.gamma if config.gamma is not None else default_stepsize(problem, spec)
    if not 0 < gamma < math.inf:
        raise ParameterError(f"stepsize must be positive and finite, got {gamma}")
    time_rng = stream_rng(config.seed, _TIME_STREAM)
    x = np.zeros(d)

    compress_downlink = config.downlink_compressed and spec.kind != "identity"
    up_bits = message_bits(spec, d)
    down_bits = up_bits if compress_downlink else message_bits(CompressorSpec(), d)

    def round_rng(stream: int, round_idx: int):  # None for identity and top_k, which never draw
        return stream_rng(config.seed, stream, round_idx) if spec.kind in RANDOMIZED_KINDS else None

    wall = 0.0
    # The gradients the uplink reads, at the iterate the workers received,
    # computed as it reads them.  The trace needs only O(d).
    grads = _WorkerGradients(problem, x)
    rows = [TraceRow(0, *problem.objective_and_grad_norm(x), 0.0, 0, 0)]
    times = round_times(config.time_model, down_bits, up_bits, n, config.steps, time_rng)
    for k, round_time in enumerate(times):
        x_sent = x
        if compress_downlink:
            x_sent = np.zeros(d)
            add_decompressed(x_sent, spec, x[None], round_rng(_DOWNLINK_STREAM, k))
        grads.x = x_sent

        agg = np.zeros(d)
        add_decompressed(agg, spec, grads, round_rng(_UPLINK_STREAM, k))

        x = x - gamma * (agg / n)
        wall += round_time
        obj, grad_norm = problem.objective_and_grad_norm(x)
        if not obj <= DIVERGENCE_LIMIT:
            raise DivergenceError(
                f"objective {obj:.3e} exceeded {DIVERGENCE_LIMIT:.0e} at round {k + 1}; "
                "reduce the stepsize"
            )
        rows.append(TraceRow(k + 1, obj, grad_norm, wall,
                             (k + 1) * n * up_bits, (k + 1) * down_bits))
    return SimTrace(rows=rows, final_x=x, gamma=gamma)
