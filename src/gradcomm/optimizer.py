"""Synchronous distributed gradient descent simulator with communication timing.

Each round the server broadcasts the iterate, every worker computes its local
gradient of a diagonal quadratic ``Problem`` (optionally compressed for the
uplink), and the server averages the received vectors.  Simulated wall-clock
time charges one downlink transmission plus the maximum of the n parallel
uplink transmissions per round; gradient compute time is charged as zero.
Bit accounting uses the compressors' exact message sizes.  The round's
compressed gradients are reconstructed in-process by one
``compression.add_decompressed`` call, and a compressed downlink's iterate by
another, from the same operator code and seeds as message round trips, so
the trace is identical to one.  A run allocates one (n, d) gradient buffer,
which ``Problem.evaluate`` fills every round; the objective pass works
through a scratch array of at most ``compression.BATCH_VALUES`` values, so
no second (n, d) array lives across rounds.

Message (round, worker) of a seeded compressor draws from
``default_rng(int(SeedSequence(seed, spawn_key=(stream, round, worker))
.generate_state(1)[0]))``.  The simulator does not build those two
SeedSequences per message: ``_message_generators`` runs the same integer
recurrences (NumPy's SeedSequence hash and PCG64's set-seed step) once per
block of whole rounds, vectorized over the block's messages, and sets one
generator per run to each message's state in turn.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .commodel import TimeModelParams, sample_time
from .compression import (
    BATCH_VALUES,
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

# NumPy's SeedSequence hash (after O'Neill's seed_seq_fe) and PCG64's LCG
# multiplier: _message_generators derives message states with them.
_MASK32 = 0xFFFF_FFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Most messages of one stream whose states are derived in one pass; a pass
# holds whole rounds, at least one.
_SEED_BLOCK = 4096

TRACE_CSV_HEADER = "round,objective,grad_norm,wall_clock_s,uplink_bits,downlink_bits"


@dataclass(frozen=True, eq=False)
class Problem:
    """Finite-sum diagonal quadratic: f(x) = (1/n) * sum_i 0.5 * sum_j h_j * (x_j - a_ij)**2.

    Worker i holds row a_i of ``targets`` (n, d); the positive ``curvature``
    h (length d) is shared, so the minimizer is the mean target, L = max h and
    mu = min h.  ``mean`` is the problem with h = 1.
    """

    targets: np.ndarray
    curvature: np.ndarray

    @property
    def n(self) -> int:
        return self.targets.shape[0]

    @property
    def d(self) -> int:
        return self.targets.shape[1]

    @classmethod
    def mean(cls, targets) -> "Problem":
        arr = np.asarray(targets, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ParameterError("targets must be an (n, d) array with n, d >= 1")
        if not np.all(np.isfinite(arr)):
            raise ParameterError("targets must be finite")
        return cls(targets=arr, curvature=np.ones(arr.shape[1]))

    @classmethod
    def random_quadratic(cls, n: int, d: int, seed=0) -> "Problem":
        """Standard normal targets and h ~ U(0.5, 5), so mu >= 0.5 and L/mu <= 10."""
        rng = np.random.default_rng(seed)
        return cls(targets=rng.standard_normal((n, d)), curvature=rng.uniform(0.5, 5.0, d))

    def evaluate(self, x: np.ndarray, out: np.ndarray | None = None) -> tuple[float, np.ndarray]:
        """f(x) and the n local gradients at x, from one pass over x - targets.

        The gradients fill ``out`` (n, d) when it is given, else a new array.
        The pass takes whole rows, up to ``BATCH_VALUES`` values at a time
        (at least one row), through one scratch array for x - a_i, so the
        objective needs no second (n, d) array.  Each row's sum does not
        depend on that chunking.
        """
        grads = np.empty_like(self.targets) if out is None else out
        step = max(1, BATCH_VALUES // self.d)
        diff = np.empty((min(step, self.n), self.d))
        sums = np.empty(self.n)
        for start in range(0, self.n, step):
            stop = min(start + step, self.n)
            part = diff[: stop - start]
            np.subtract(x, self.targets[start:stop], out=part)
            np.multiply(part, self.curvature, out=grads[start:stop])
            part *= grads[start:stop]  # h * (x - a)**2
            part.sum(axis=1, out=sums[start:stop])
        return float(0.5 * np.mean(sums)), grads

    def objective(self, x: np.ndarray) -> float:
        return self.evaluate(x)[0]

    def worker_gradients(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """All n local gradients h * (x - a_i) at x, stacked as an (n, d) array.

        They fill ``out`` when it is given, else a new array.
        """
        grads = np.subtract(x, self.targets, out=out)
        grads *= self.curvature
        return grads

    def smoothness(self) -> float:
        """L = largest eigenvalue of the averaged Hessian diag(h)."""
        return float(self.curvature.max())

    def strong_convexity(self) -> float:
        return float(self.curvature.min())


def closed_form_optimum(problem: Problem) -> tuple[np.ndarray, float]:
    """Exact minimizer (the mean target) and optimal value."""
    x_star = problem.targets.mean(axis=0)
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
        # Message generators take the round index as one uint32 word.
        if not 1 <= self.steps <= 2**32:
            raise ParameterError("steps must be between 1 and 2**32")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ParameterError(f"seed must be a non-negative integer, got {self.seed!r}")


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


def _hash(value, consts):
    """One SeedSequence hash of ``value`` (a Python int or a uint32 array)."""
    xor, mult = consts
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of two words, each a Python int or a uint32 array.

    Each product is masked to 32 bits first, so an int may meet an array.
    """
    result = (_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32) & _MASK32
    return result ^ result >> 16


def _hash_consts(init: int, mult: int):
    """Yield the (xor, multiply) constants of successive SeedSequence hashes."""
    while True:
        nxt = init * mult & _MASK32
        yield init, nxt
        init = nxt


def _mix_entropy(entropy: list):
    """SeedSequence's entropy pool for ``entropy``, a list of uint32 words.

    Each word is a Python int or a uint32 array; arrays broadcast, so one call
    mixes the pools of many seeds.  Also returns the hash constants that
    mixing further words would use.
    """
    consts = _hash_consts(_INIT_A, _MULT_A)
    pool = [_hash(entropy[i] if i < len(entropy) else 0, next(consts))
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], next(consts)))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hash(word, next(consts)))
    return pool, consts


def _generate_state(pool: list, n_words: int) -> list:
    """SeedSequence.generate_state(n_words) as a list of uint32 words."""
    consts = _hash_consts(_INIT_B, _MULT_B)
    return [_hash(pool[i % _POOL_SIZE], next(consts)) for i in range(n_words)]


def _message_generators(rng: np.random.Generator, seed: int, stream: int,
                        rounds: range, n_workers: int):
    """Yield ``rng`` once per message (round, worker) of ``stream``, round-major.

    Each time ``rng`` holds the state that ``np.random.default_rng(int(
    SeedSequence(entropy=seed, spawn_key=(stream, round, worker))
    .generate_state(1)[0]))`` starts in.  The states are derived for blocks of
    whole rounds, up to ``_SEED_BLOCK`` messages, with the same integer
    recurrences NumPy runs per seed, vectorized over the block.  ``seed`` is a
    non-negative int; rounds and workers are below 2**32.
    """
    seed_words = []
    while True:  # the seed's little-endian uint32 words, zero-padded to the pool
        seed_words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    seed_words += [0] * (_POOL_SIZE - len(seed_words))
    pool, consts = _mix_entropy(seed_words + [stream])
    # The round and worker words are mixed in last.  generate_state(1) reads
    # only pool[0], which takes each of them through the first of its four
    # hashes.
    round_consts, *_, worker_consts = itertools.islice(consts, _POOL_SIZE + 1)
    worker_hash = _hash(np.arange(n_workers, dtype=np.uint32), worker_consts)
    bitgen = rng.bit_generator
    rounds_per_block = max(1, _SEED_BLOCK // n_workers)
    for start in range(0, len(rounds), rounds_per_block):
        block = rounds[start:start + rounds_per_block]
        round_hash = _hash(np.arange(block.start, block.stop, dtype=np.uint32), round_consts)
        head = _mix(_mix(pool[0], round_hash)[:, None], worker_hash).ravel()
        # default_rng(word) seeds PCG64 from SeedSequence(word).generate_state(4, uint64).
        (message_seed,) = _generate_state([head], 1)
        words = np.array(_generate_state(_mix_entropy([message_seed])[0], 8), dtype=np.uint64)
        halves = words[0::2] | words[1::2] << 32  # little-endian pairs: initstate, initseq
        for state_hi, state_lo, seq_hi, seq_lo in zip(*halves.tolist()):
            # pcg64_set_seed: state 0, inc = initseq << 1 | 1, step, add initstate, step.
            inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
            state = ((state_hi << 64 | state_lo) + inc) * _PCG64_MULT + inc & _MASK128
            bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
            yield rng


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
    if spec.kind in RANDOMIZED_KINDS:
        # One generator serves every message; each takes it at its own state.
        rng = np.random.Generator(np.random.PCG64())
        rounds = range(config.steps)
        up_seeds = _message_generators(rng, int(config.seed), _UPLINK_STREAM, rounds, n)
        down_seeds = _message_generators(rng, int(config.seed), _DOWNLINK_STREAM, rounds, 1)
    else:
        up_seeds = down_seeds = itertools.repeat(None)
    wall = 0.0
    up_total = 0
    down_total = 0
    # The one (n, d) array that lives across rounds.  One pass fills it with
    # the iterate's gradients and gives its objective; the gradients give
    # grad_norm and, with an exact downlink, the next round's uplink.
    grads = np.empty((n, d))
    obj, _ = problem.evaluate(x, out=grads)
    rows = [TraceRow(0, obj, float(np.linalg.norm(grads.mean(axis=0))), 0.0, 0, 0)]
    for k in range(config.steps):
        down_bits = d * b
        if compress_downlink:
            x_bcast = np.zeros(d)
            down_bits = add_decompressed(x_bcast, spec, x[None], down_seeds)
            problem.worker_gradients(x_bcast, out=grads)

        agg = np.zeros(d)
        up_bits = add_decompressed(agg, spec, grads, up_seeds)
        # One draw per round: the downlink's time first, then each uplink's.
        t_down, *t_up = sample_time(time_model, [down_bits] + [up_bits] * n, time_rng).tolist()

        x = x - gamma * (agg / n)
        wall += t_down + max(t_up)
        up_total += n * up_bits
        down_total += down_bits
        obj, _ = problem.evaluate(x, out=grads)
        if not obj <= DIVERGENCE_LIMIT:
            raise DivergenceError(
                f"objective {obj:.3e} exceeded {DIVERGENCE_LIMIT:.0e} at round {k + 1}; "
                "reduce the stepsize"
            )
        grad_norm = float(np.linalg.norm(grads.mean(axis=0)))
        rows.append(TraceRow(k + 1, obj, grad_norm, wall, up_total, down_total))
    return SimTrace(rows=rows, final_x=x)
