"""Gradient compression operators with exact transmitted-bit accounting.

Four operators are implemented alongside an identity baseline:

* ``rand_k``  -- unbiased random sparsification; the selected k-subset is
  reconstructed from a shared seed, so index positions cost zero bits.
* ``top_k``   -- magnitude sparsification; explicit indices are transmitted
  at ceil(log2(d)) bits each.
* ``natural`` -- stochastic rounding of each scalar to an adjacent power of
  two; only sign and an 8-bit exponent travel (9 bits per scalar).
* ``rank_r``  -- low-rank factor transmission: the vector is reshaped into a
  matrix, one power-iteration step produces factors P and Q, and P @ Q.T is
  the decompressed approximation.

All operations are pure functions; randomness enters only through explicit
seeds, and every ``CompressedMessage`` carries the exact number of bits a
real transmission would need.  ``omega_inf`` reports the uncompressed-to-
compressed bit ratio as an exact rational.

``add_decompressed`` is the in-process twin of ``compress`` followed by
``decompress``: it adds the receiver's vector straight into an aggregate.
Both paths build their values from the same index, rounding and factor
helpers, so each operator's math exists once.
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


def rand_k_compress(x: DenseVector, k: int, seed) -> CompressedMessage:
    """Keep a random k-subset of coordinates, scaled by d/k.

    The subset is derived deterministically from ``seed``; a receiver holding
    the same seed reconstructs the index set, so only the k scaled values are
    charged: bits = k * bits_per_scalar.
    """
    bits = message_bits(CompressorSpec("rand_k", k=k), x.d, x.bits_per_scalar)
    idx = rand_k_indices(x.d, k, seed)
    scaled = x.values[idx] * (x.d / k)
    return CompressedMessage(
        kind="rand_k",
        payload={"values": scaled},
        bits=bits,
        d=x.d,
        bits_per_scalar=x.bits_per_scalar,
        seed=seed,
    )


def top_k_compress(x: DenseVector, k: int) -> CompressedMessage:
    """Keep the k largest-magnitude coordinates with their explicit indices.

    Ties on equal magnitude break toward the lowest index, which makes the
    operator a deterministic function.  bits = k*b + k*ceil(log2 d).
    """
    bits = message_bits(CompressorSpec("top_k", k=k), x.d, x.bits_per_scalar)
    idx = top_k_indices(x.values, k)
    return CompressedMessage(
        kind="top_k",
        payload={"values": x.values[idx], "indices": idx.astype(np.int64)},
        bits=bits,
        d=x.d,
        bits_per_scalar=x.bits_per_scalar,
    )


def power_of_two_bounds(magnitudes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-entry (lower, upper, p_lower) for stochastic power-of-two rounding.

    For a magnitude a in (2^e, 2^(e+1)) the bounds are the enclosing powers of
    two and the lower one is taken with probability (upper - a) / lower, which
    makes the rounding unbiased.  Exact powers of two and zeros round to
    themselves (p_lower = 0 and both bounds coincide).
    """
    a = np.asarray(magnitudes, dtype=np.float64)
    mantissa, exponent = np.frexp(a)
    exact = (mantissa == 0.5) | (a == 0.0)
    lower = np.where(exact, a, np.ldexp(0.5, exponent))
    upper = np.where(exact, a, np.ldexp(1.0, exponent))
    p_lower = np.where(exact, 0.0, (upper - a) / np.where(exact, 1.0, lower))
    return lower, upper, p_lower


def natural_round(values: np.ndarray, seed) -> np.ndarray:
    """Round each entry to an adjacent power of two, unbiased in expectation.

    Each entry independently becomes sign(x) * 2^floor(log2|x|) with the
    probability from :func:`power_of_two_bounds`, else sign(x) * 2^ceil(log2|x|).
    Zero stays zero.
    """
    rng = np.random.default_rng(seed)
    lower, upper, p_lower = power_of_two_bounds(np.abs(values))
    u = rng.random(values.size)
    return np.copysign(np.where(u < p_lower, lower, upper), values)


def natural_compress(x: DenseVector, seed) -> CompressedMessage:
    """Stochastic power-of-two rounding; only sign and exponent travel: 9 bits/scalar."""
    return CompressedMessage(
        kind="natural",
        payload={"values": natural_round(x.values, seed)},
        bits=message_bits(CompressorSpec("natural"), x.d, x.bits_per_scalar),
        d=x.d,
        bits_per_scalar=x.bits_per_scalar,
    )


def default_matrix_shape(d: int) -> tuple[int, int]:
    """Square-ish reshape used when no explicit matrix shape is given."""
    rows = math.isqrt(d)
    if rows * rows < d:
        rows += 1
    cols = -(-d // rows)
    return rows, cols


def _matrix_shape(d: int, rows: int | None, cols: int | None) -> tuple[int, int]:
    return default_matrix_shape(d) if rows is None or cols is None else (rows, cols)


def _orthonormalize_columns(m: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt; numerically dead columns are zeroed, not divided."""
    q = np.array(m, dtype=np.float64, copy=True)
    for j in range(q.shape[1]):
        for i in range(j):
            q[:, j] -= (q[:, i] @ q[:, j]) * q[:, i]
        norm = np.linalg.norm(q[:, j])
        if norm > 1e-300:
            q[:, j] /= norm
        else:
            q[:, j] = 0.0
    return q


def rank_r_factors(
    values: np.ndarray, r: int, rows: int, cols: int, seed
) -> tuple[np.ndarray, np.ndarray]:
    """Factors P (rows x r, orthonormal columns) and Q = X.T @ P of the reshaped vector.

    The vector fills a rows x cols matrix X row-major with zero padding; one
    power iteration against a Gaussian test matrix seeded by ``seed`` (0 when
    None) yields P.
    """
    mat = np.zeros((rows, cols))
    mat.flat[: values.size] = values
    test = np.random.default_rng(0 if seed is None else seed).standard_normal((cols, r))
    p = _orthonormalize_columns(mat @ test)
    return p, mat.T @ p


def rank_r_expand(p: np.ndarray, q: np.ndarray, d: int) -> np.ndarray:
    """The receiver's vector: P @ Q.T flattened row-major and truncated to d entries."""
    return (p @ q.T).reshape(-1)[:d]


def rank_r_compress(
    x: DenseVector,
    r: int,
    rows: int | None = None,
    cols: int | None = None,
    seed: int | None = 0,
) -> CompressedMessage:
    """Transmit the rank-r factors from :func:`rank_r_factors`.

    bits = r * (rows + cols) * bits_per_scalar.
    """
    bits = message_bits(CompressorSpec("rank_r", r=r), x.d, x.bits_per_scalar, rows, cols)
    rows, cols = _matrix_shape(x.d, rows, cols)
    p, q = rank_r_factors(x.values, r, rows, cols, seed)
    return CompressedMessage(
        kind="rank_r",
        payload={"p": p, "q": q, "rows": rows, "cols": cols},
        bits=bits,
        d=x.d,
        bits_per_scalar=x.bits_per_scalar,
    )


def identity_compress(x: DenseVector) -> CompressedMessage:
    """No-op compression: the full vector at d * bits_per_scalar bits."""
    return CompressedMessage(
        kind="identity",
        payload={"values": x.values},
        bits=message_bits(CompressorSpec(), x.d, x.bits_per_scalar),
        d=x.d,
        bits_per_scalar=x.bits_per_scalar,
    )


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


def compress(x: DenseVector, spec: CompressorSpec, seed=None) -> CompressedMessage:
    """Apply the operator named by ``spec`` to ``x``."""
    if spec.kind == "identity":
        return identity_compress(x)
    if spec.kind == "rand_k":
        return rand_k_compress(x, spec.k, seed)
    if spec.kind == "top_k":
        return top_k_compress(x, spec.k)
    if spec.kind == "natural":
        return natural_compress(x, seed)
    return rank_r_compress(x, spec.r, seed=seed)


def add_decompressed(out: np.ndarray, spec: CompressorSpec, values: np.ndarray,
                     seed=None) -> int:
    """Add the receiver's vector C(values) into ``out``; return the message's bits.

    Same result, bit for bit, as ``out += decompress(compress(DenseVector(values),
    spec, seed)).values``, from the same seed and helpers, but no message is
    built: rand_k draws its index set once, and the sparse kinds touch only
    their k coordinates (adding the other coordinates' zeros changes nothing
    unless ``out`` holds a negative zero).  ``values`` must be finite.
    ``seed`` is what ``np.random.default_rng`` takes: an int, or a Generator,
    which the operator draws from as it stands.
    """
    d = values.size
    bits = message_bits(spec, d)
    if spec.kind == "identity":
        out += values
    elif spec.kind == "rand_k":
        idx = rand_k_indices(d, spec.k, seed)
        out[idx] += values[idx] * (d / spec.k)
    elif spec.kind == "top_k":
        idx = top_k_indices(values, spec.k)
        out[idx] += values[idx]
    elif spec.kind == "natural":
        out += natural_round(values, seed)
    else:
        rows, cols = default_matrix_shape(d)
        p, q = rank_r_factors(values, spec.r, rows, cols, seed)
        out += rank_r_expand(p, q, d)
    return bits


def message_bits(
    spec: CompressorSpec,
    d: int,
    b: int = DEFAULT_BITS_PER_SCALAR,
    rows: int | None = None,
    cols: int | None = None,
) -> int:
    """Closed-form transmitted bits for the operator at dimension d.

    This is the package's one bit formula: every operator, ``omega_inf`` and
    the power selector take their bit counts from it.
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
