"""Gradient compression operators with exact transmitted-bit accounting.

``compress(x, spec, seed)`` applies the operator ``spec`` names, and the
message it returns carries the exact number of bits a real transmission would
need, from ``message_bits``, the package's one bit formula:

* ``identity`` -- the full vector: d * b bits.
* ``rand_k``  -- unbiased random sparsification: a k-subset drawn from the
  shared seed, scaled by d/k.  The receiver re-derives the subset from the
  seed, so index positions cost zero bits: k * b.
* ``top_k``   -- magnitude sparsification: the k largest magnitudes, ties
  going to the lowest index, with explicit indices at ceil(log2(d)) bits
  each: k * b + k * ceil(log2(d)).
* ``natural`` -- stochastic rounding of each scalar to an adjacent power of
  two, unbiased; only sign and an 8-bit exponent travel: 9 bits per scalar.
* ``rank_r``  -- low-rank factor transmission: the vector is reshaped into a
  rows x cols matrix (square-ish unless given), one power-iteration step
  produces factors P and Q, and P @ Q.T is the decompressed approximation:
  r * (rows + cols) * b bits.

``decompress`` is the receiver side.  Randomness enters only through explicit
seeds.  ``omega_inf`` reports the uncompressed-to-compressed bit ratio as an
exact rational.

``add_decompressed`` is the in-process twin of ``compress`` followed by
``decompress`` for a whole round of messages: it adds each receiver's vector
straight into an aggregate, one call per round.  Both paths build their
values from the same index, rounding and factor helpers, so each operator's
math exists once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DecodeError, ParameterError

DEFAULT_BITS_PER_SCALAR = 32
# Sign bit plus the 8 exponent bits of a 32-bit float.
NATURAL_BITS_PER_SCALAR = 9

KINDS = ("identity", "rand_k", "top_k", "natural", "rank_r")
# The operators that draw from their seed; the others ignore it.
RANDOMIZED_KINDS = ("rand_k", "natural", "rank_r")
# Most values that one stacked batch of rank_r matrices holds, and that one
# chunk of the simulator's objective pass holds; a batch or chunk takes whole
# rows, at least one.  It bounds the batch temporaries (2**16 values are
# 512 KiB), so a large gradient does not raise peak memory.
BATCH_VALUES = 1 << 16


def index_bits(d: int) -> int:
    """Bits needed to address one of d coordinates: ceil(log2(d)); 0 for d=1."""
    if d < 1:
        raise ParameterError("dimension must be >= 1")
    return (d - 1).bit_length()


@dataclass(frozen=True, eq=False)
class DenseVector:
    """A flat real vector together with its declared per-scalar encoding width."""

    values: np.ndarray
    bits_per_scalar: int = DEFAULT_BITS_PER_SCALAR

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64, copy=True).reshape(-1)
        if arr.size < 1:
            raise ParameterError("vector must contain at least one entry")
        if not np.all(np.isfinite(arr)):
            raise ParameterError("vector entries must be finite")
        if int(self.bits_per_scalar) < 1:
            raise ParameterError("bits_per_scalar must be a positive integer")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "bits_per_scalar", int(self.bits_per_scalar))

    @property
    def d(self) -> int:
        return self.values.size

    @property
    def total_bits(self) -> int:
        """Uncompressed wire size: d * bits_per_scalar."""
        return self.d * self.bits_per_scalar


@dataclass(frozen=True, eq=False)
class CompressedMessage:
    """Operator output plus the exact number of bits it would occupy on the wire.

    ``seed`` is present only for ``rand_k``: the receiver re-derives the index
    set from it, which is why those indices are free.
    """

    kind: str
    payload: dict
    bits: int
    d: int
    bits_per_scalar: int = DEFAULT_BITS_PER_SCALAR
    seed: int | None = None


def _check_k(k: int, d: int) -> None:
    if not 1 <= k <= d:
        raise ParameterError(f"sparsity level k={k} outside [1, {d}]")


def rand_k_indices(d: int, k: int, seed) -> np.ndarray:
    """Uniformly random k-subset of range(d), reproducible from the shared seed."""
    if seed is None:
        raise ParameterError("rand_k requires a shared randomness seed")
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(d, size=k, replace=False))


def top_k_indices(values: np.ndarray, k: int) -> np.ndarray:
    """Ascending indices of the k largest magnitudes, ties going to the lowest index.

    Equals ``np.sort(np.argsort(-np.abs(values), kind="stable")[:k])``, but a
    partial selection finds the k-th largest magnitude in O(d); every larger
    magnitude is kept, and the remaining places go to the lowest-indexed
    entries equal to it.  k must lie in [1, d].
    """
    magnitudes = np.abs(values)
    d = magnitudes.size
    boundary = np.partition(magnitudes, d - k)[d - k]
    keep = magnitudes > boundary
    ties = np.flatnonzero(magnitudes == boundary)
    keep[ties[: k - np.count_nonzero(keep)]] = True
    return np.flatnonzero(keep)


def natural_round(values: np.ndarray, seed) -> np.ndarray:
    """Round each entry to an adjacent power of two, unbiased in expectation.

    An entry v = m * 2^e (``np.frexp``: 0.5 <= |m| < 1) lies between lower =
    sign(v) * 2^(e-1) and upper = 2 * lower.  It becomes lower when its one
    uniform draw u, taken in entry order, is below p_lower = 2 - 2|m|, else
    upper; so the kept exponent is e - (u < p_lower), one ``np.ldexp`` away.
    That p_lower makes the rounding unbiased, and it is exact: it equals
    (|upper| - |v|) / |lower|, Sterbenz's lemma covers the subtraction, and
    scaling by a power of two is exact.  An exact power of two has p_lower = 1
    and stays itself; a zero stays zero, sign included.  From 2^1023 up, where
    2 * lower is not a float, the exponent is capped and the entry rounds down.
    """
    rng = np.random.default_rng(seed)
    mantissa, exponent = np.frexp(values)
    p_lower = np.abs(mantissa)
    p_lower *= -2.0
    p_lower += 2.0
    exponent -= rng.random(values.size) < p_lower
    np.minimum(exponent, 1023, out=exponent)
    mantissa += mantissa
    return np.ldexp(np.trunc(mantissa, out=mantissa), exponent)  # sign(v) as +-1, or +-0


def default_matrix_shape(d: int) -> tuple[int, int]:
    """Square-ish reshape used when no explicit matrix shape is given."""
    rows = math.isqrt(d)
    if rows * rows < d:
        rows += 1
    cols = -(-d // rows)
    return rows, cols


def _matrix_shape(d: int, rows: int | None, cols: int | None) -> tuple[int, int]:
    return default_matrix_shape(d) if rows is None or cols is None else (rows, cols)


def _orthonormalize_columns(q: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt on the columns of each matrix of the stack q, in place.

    Numerically dead columns are zeroed, not divided.  Each matrix comes out
    bit for bit as it would alone: every column dot product runs on the
    strides of one matrix, and each norm is the sqrt of the dot of a
    contiguous copy of its column, which is how ``np.linalg.norm`` takes it.
    """
    for j in range(q.shape[2]):
        col = q[:, :, j]
        for i in range(j):
            prev = q[:, :, i]
            col -= (prev[:, None, :] @ col[:, :, None])[:, 0] * prev
        flat = np.ascontiguousarray(col)
        norm = np.sqrt((flat[:, None, :] @ flat[:, :, None])[:, 0, 0])
        alive = norm > 1e-300
        col[alive] /= norm[alive, None]
        col[~alive] = 0.0
    return q


def rank_r_factors(
    values: np.ndarray, r: int, rows: int, cols: int, seeds
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked factors P (m, rows, r) and Q (m, cols, r) of the m rows of ``values``.

    Each row fills a rows x cols matrix X row-major with zero padding; one
    power iteration against a Gaussian test matrix drawn from the row's seed,
    the next of the iterator ``seeds`` (0 when None), yields P with
    orthonormal columns, and Q = X.T @ P.  The matrix products run stacked
    and give each matrix's product bit for bit.
    """
    m = values.shape[0]
    mats = np.zeros((m, rows, cols))
    mats.reshape(m, -1)[:, : values.shape[1]] = values
    tests = np.empty((m, cols, r))
    for test in tests:
        seed = next(seeds)
        np.random.default_rng(0 if seed is None else seed).standard_normal(out=test)
    p = _orthonormalize_columns(mats @ tests)
    return p, np.swapaxes(mats, 1, 2) @ p


def rank_r_expand(p: np.ndarray, q: np.ndarray, d: int) -> np.ndarray:
    """The receiver's vector: P @ Q.T flattened row-major and truncated to d entries.

    Stacked factors give one vector per matrix, stacked the same way.
    """
    return (p @ np.swapaxes(q, -1, -2)).reshape(*p.shape[:-2], -1)[..., :d]


def decompress(msg: CompressedMessage) -> DenseVector:
    """Receiver side of every operator; round-trips each compressor's semantics."""
    try:
        if msg.kind in ("identity", "natural"):
            values = np.asarray(msg.payload["values"], dtype=np.float64)
            if values.size != msg.d:
                raise DecodeError(f"{msg.kind} payload length {values.size} != d={msg.d}")
            return DenseVector(values, msg.bits_per_scalar)
        if msg.kind == "rand_k":
            if msg.seed is None:
                raise DecodeError("rand_k message is missing the shared seed")
            values = np.asarray(msg.payload["values"], dtype=np.float64)
            k = values.size
            if not 1 <= k <= msg.d:
                raise DecodeError(f"rand_k payload has {k} values for d={msg.d}")
            out = np.zeros(msg.d)
            out[rand_k_indices(msg.d, k, msg.seed)] = values
            return DenseVector(out, msg.bits_per_scalar)
        if msg.kind == "top_k":
            values = np.asarray(msg.payload["values"], dtype=np.float64)
            idx = np.asarray(msg.payload["indices"], dtype=np.int64)
            if idx.size != values.size or idx.size < 1:
                raise DecodeError("top_k payload values/indices length mismatch")
            if idx.min() < 0 or idx.max() >= msg.d or np.unique(idx).size != idx.size:
                raise DecodeError("top_k indices out of range or duplicated")
            out = np.zeros(msg.d)
            out[idx] = values
            return DenseVector(out, msg.bits_per_scalar)
        if msg.kind == "rank_r":
            p = np.asarray(msg.payload["p"], dtype=np.float64)
            q = np.asarray(msg.payload["q"], dtype=np.float64)
            rows, cols = int(msg.payload["rows"]), int(msg.payload["cols"])
            if p.shape[0] != rows or q.shape[0] != cols or p.shape[1] != q.shape[1]:
                raise DecodeError("rank_r factor shapes are inconsistent")
            if rows * cols < msg.d:
                raise DecodeError(f"rank_r matrix {rows}x{cols} smaller than d={msg.d}")
            return DenseVector(rank_r_expand(p, q, msg.d), msg.bits_per_scalar)
    except KeyError as exc:
        raise DecodeError(f"{msg.kind} payload is missing field {exc}") from exc
    raise DecodeError(f"unknown message kind: {msg.kind!r}")


@dataclass(frozen=True)
class CompressorSpec:
    """Parameter record naming an operator and its power level."""

    kind: str = "identity"
    k: int | None = None
    r: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown compressor kind: {self.kind!r}")
        if self.kind in ("rand_k", "top_k") and (self.k is None or self.k < 1):
            raise ParameterError(f"{self.kind} requires a sparsity level k >= 1")
        if self.kind == "rank_r" and (self.r is None or self.r < 1):
            raise ParameterError("rank_r requires a rank r >= 1")

    def zeta(self, d: int) -> float:
        """Unbiased second-moment factor: E||C(x)||^2 <= zeta * ||x||^2."""
        if self.kind == "identity":
            return 1.0
        if self.kind == "rand_k":
            return d / self.k
        raise ParameterError(f"zeta is not defined for kind {self.kind!r}")

    def delta(self, d: int) -> float:
        """Contraction factor: E||C(x) - x||^2 <= (1 - 1/delta) * ||x||^2."""
        if self.kind == "identity":
            return 1.0
        if self.kind == "top_k":
            return d / self.k
        raise ParameterError(f"delta is not defined for kind {self.kind!r}")


def compress(x: DenseVector, spec: CompressorSpec, seed=None,
             rows: int | None = None, cols: int | None = None) -> CompressedMessage:
    """Apply the operator named by ``spec`` to ``x``; the message's bits are ``message_bits``.

    ``seed`` draws rand_k's index set (and travels in its message), natural's
    rounding and rank_r's test matrix (0 when None); identity and top_k ignore
    it.  ``rows`` and ``cols`` are rank_r's matrix shape, as in ``message_bits``.
    """
    bits = message_bits(spec, x.d, x.bits_per_scalar, rows, cols)
    if spec.kind == "identity":
        payload = {"values": x.values}
    elif spec.kind == "rand_k":
        idx = rand_k_indices(x.d, spec.k, seed)
        payload = {"values": x.values[idx] * (x.d / spec.k)}
    elif spec.kind == "top_k":
        idx = top_k_indices(x.values, spec.k)
        payload = {"values": x.values[idx], "indices": idx.astype(np.int64)}
    elif spec.kind == "natural":
        payload = {"values": natural_round(x.values, seed)}
    else:
        rows, cols = _matrix_shape(x.d, rows, cols)
        p, q = rank_r_factors(x.values[None], spec.r, rows, cols, iter([seed]))
        payload = {"p": p[0], "q": q[0], "rows": rows, "cols": cols}
    return CompressedMessage(spec.kind, payload, bits, x.d, x.bits_per_scalar,
                             seed if spec.kind == "rand_k" else None)


def add_decompressed(out: np.ndarray, spec: CompressorSpec, rows: np.ndarray, seeds) -> int:
    """Add C(row) for each row of ``rows`` into ``out``; return one message's bits.

    ``rows`` is (m, d), one message per row, such as a round's worker
    gradients.  ``seeds`` is an iterator with one seed per row; the kinds
    that draw (rand_k, natural, rank_r) take them in row order, and identity
    and top_k never touch it.  A seed is what ``np.random.default_rng``
    takes: an int, or a Generator, which the operator draws from as it
    stands.  ``rows`` must be finite.

    Same result, bit for bit, as adding ``decompress(compress(DenseVector(row),
    spec, seed)).values`` into ``out`` row after row, from the same seeds and
    helpers, but no message is built: rand_k draws its index set once, and
    the sparse kinds touch only their k coordinates (adding the other
    coordinates' zeros changes nothing unless ``out`` holds a negative zero).
    rank_r factors its messages in stacked batches of whole rows, up to
    ``BATCH_VALUES`` padded matrix entries per batch and at least one row.
    """
    d = rows.shape[1]
    bits = message_bits(spec, d)
    if spec.kind == "identity":
        for row in rows:
            out += row
    elif spec.kind == "rand_k":
        scale = d / spec.k
        for row in rows:
            idx = rand_k_indices(d, spec.k, next(seeds))
            out[idx] += row[idx] * scale
    elif spec.kind == "top_k":
        for row in rows:
            idx = top_k_indices(row, spec.k)
            out[idx] += row[idx]
    elif spec.kind == "natural":
        for row in rows:
            out += natural_round(row, next(seeds))
    else:
        shape = default_matrix_shape(d)
        step = max(1, BATCH_VALUES // (shape[0] * shape[1]))
        for start in range(0, rows.shape[0], step):
            p, q = rank_r_factors(rows[start:start + step], spec.r, *shape, seeds)
            for row in rank_r_expand(p, q, d):
                out += row
    return bits


def message_bits(
    spec: CompressorSpec,
    d: int,
    b: int = DEFAULT_BITS_PER_SCALAR,
    rows: int | None = None,
    cols: int | None = None,
) -> int:
    """Closed-form transmitted bits for the operator at dimension d.

    This is the package's one bit formula: ``compress``, ``add_decompressed``,
    ``omega_inf`` and the power selector take their bit counts from it.
    """
    if d < 1 or b < 1:
        raise ParameterError("d and b must be positive integers")
    if spec.kind == "identity":
        return d * b
    if spec.kind == "rand_k":
        _check_k(spec.k, d)
        return spec.k * b
    if spec.kind == "top_k":
        _check_k(spec.k, d)
        return spec.k * b + spec.k * index_bits(d)
    if spec.kind == "natural":
        return NATURAL_BITS_PER_SCALAR * d
    rows, cols = _matrix_shape(d, rows, cols)
    if rows < 1 or cols < 1 or rows * cols < d:
        raise ParameterError(f"matrix shape {rows}x{cols} cannot hold {d} entries")
    if not 1 <= spec.r <= min(rows, cols):
        raise ParameterError(f"rank r={spec.r} outside [1, {min(rows, cols)}]")
    return spec.r * (rows + cols) * b


def omega_inf(
    spec: CompressorSpec,
    d: int,
    b: int = DEFAULT_BITS_PER_SCALAR,
    rows: int | None = None,
    cols: int | None = None,
) -> Fraction:
    """Exact compression ratio: uncompressed bits over transmitted bits.

    Returned as a rational so that omega_inf * message_bits == d * b holds
    identically.  For ``rank_r`` the ratio is only defined when the reshape
    exactly fills the matrix (d == rows * cols).
    """
    bits = message_bits(spec, d, b, rows, cols)
    if spec.kind == "rank_r":
        rows, cols = _matrix_shape(d, rows, cols)
        if rows * cols != d:
            raise ParameterError(
                f"rank_r ratio needs an exactly filled matrix: {rows}x{cols} != d={d}"
            )
    return Fraction(d * b, bits)
