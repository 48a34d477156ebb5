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

``decompress`` is the receiver side.  ``omega_inf`` reports the
uncompressed-to-compressed bit ratio as an exact rational.

``add_decompressed`` is the in-process twin of ``compress`` followed by
``decompress`` for a whole round of messages: it adds each receiver's vector
straight into an aggregate, one call per round; only identity's sum loops
over the rows in Python.  rand_k draws a round's index sets in one stacked
pass of Floyd's rule, top_k selects over stacked batches of rows, and both
add their kept values with one row-ordered ``np.add.at``; natural and rank_r
decode stacked batches and add each with one shared ordered sum that matches
adding row after row (a single column, d = 1, is summed by
``np.add.accumulate``, not pairwise).  Both paths build their values from the
same index, rounding and factor helpers, so each operator's math exists once.
Randomness enters only explicitly: a message from its integer seed, which for
rand_k travels on the wire, and a round's messages, in row order, from the
round's one ``np.random.Generator``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DecodeError, ParameterError, is_int

DEFAULT_BITS_PER_SCALAR = 32
# Sign bit plus the 8 exponent bits of a 32-bit float.
NATURAL_BITS_PER_SCALAR = 9

KINDS = ("identity", "rand_k", "top_k", "natural", "rank_r")
# The operators that draw from their seed or generator; the others ignore it.
RANDOMIZED_KINDS = ("rand_k", "natural", "rank_r")
# The value budget of one ``row_batches`` batch: of rank_r matrices, top_k or
# identity rows, the simulator's worker gradients or f* pass, or one block of
# ``round_times``' draws.  It bounds temporaries (2**16 values are 512 KiB), so
# a large gradient does not raise peak memory.
BATCH_VALUES = 1 << 16
# The budget of one batch of natural's rounding: whole rows, or column pieces
# of a longer row.  Its half-dozen temporaries of 2**13 values (64 KiB each)
# stay in cache, which a whole round's (m, d) block of them does not.
NATURAL_BATCH_VALUES = 1 << 13
_INT64_MAX = np.iinfo(np.int64).max


def row_batches(m: int, width: int, limit: int = BATCH_VALUES):
    """Yield slices that cover range(m) in order: max(1, limit // width) whole rows of
    ``width`` values each, the last one maybe fewer.  So a batch holds at most
    ``limit`` values, unless one row alone is longer."""
    step = max(1, limit // width)
    for start in range(0, m, step):
        yield slice(start, min(start + step, m))


def index_bits(d: int) -> int:
    """Bits needed to address one of d coordinates: ceil(log2(d)); 0 for d=1."""
    if not is_int(d, 1):
        raise ParameterError("dimension must be >= 1")
    return (int(d) - 1).bit_length()


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
        if not is_int(self.bits_per_scalar, 1):
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


def _floyd_subsets(d: int, k: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """An (m, k) array whose rows are uniformly random k-subsets of range(d), by Floyd's rule.

    Row i takes k bounded draws t_j ~ U{0 .. d-k+j}, j = 0 .. k-1, and keeps
    s_j = t_j unless t_j is already among the row's s_0 .. s_{j-1}, when it
    keeps s_j = d-k+j (Bentley and Floyd 1987).  When 2k > d the rule picks
    the d-k coordinates each row leaves out, and the row is the others in
    increasing order (so k = d draws nothing).  One ``rng.integers`` call
    draws all m rows' draws in row order, so a row gets the draws it would
    get alone, and rows do not depend on m.  t_j collides exactly when it
    equals an earlier draw of its row, which one sort per row finds, or
    equals d-k+i for an earlier i that collided: an OR along the pointer
    i < j, resolved by pointer doubling.  Work and memory are O(m*k), not
    O(d).
    """
    if 2 * k > d:
        # Near k = d almost every draw would collide, in long chains.
        offsets = np.arange(0, m * d, d)[:, None]
        keep = np.ones(m * d, dtype=bool)
        if k < d:
            keep[_floyd_subsets(d, d - k, m, rng) + offsets] = False
        cols = np.flatnonzero(keep).reshape(m, k)
        cols -= offsets
        return cols
    base = d - k
    draws = rng.integers(0, np.arange(base + 1, d + 1), size=(m, k))
    j = np.arange(k)
    if d <= _INT64_MAX // k:
        # Packed keys value*k + j sort equal values in draw order, several
        # times faster than the stable argsort that any d can take.
        keys = draws * k
        keys += j
        keys.sort(axis=1)
        values = keys // k
        order = keys - values * k
    else:
        order = np.argsort(draws, axis=1, kind="stable")
        values = np.take_along_axis(draws, order, axis=1)
    values, order = values.reshape(-1), order.reshape(-1)
    repeat = values[1:] == values[:-1]
    repeat[k - 1::k] = False  # a row's last value against the next row's first
    later = np.flatnonzero(repeat) + 1
    hit = np.zeros(m * k, dtype=bool)
    hit[later - later % k + order[later]] = True
    link = draws - base
    src = np.flatnonzero(((link >= 0) & (link < j)).reshape(-1) & ~hit)
    if src.size:
        # at is src's pointer 2**n links down its chain, n the pass; an entry
        # leaves once it hit or its pointer rests on an entry with no link.
        ptr = np.arange(m * k)
        ptr[src] = at = src - src % k + link.reshape(-1)[src]
        while src.size:
            hit[src] |= hit[at]
            nxt = ptr[at]
            live = (nxt != at) & ~hit[src]
            src, at = src[live], nxt[live]
            ptr[src] = at
    np.copyto(draws, base + j, where=hit.reshape(m, k))
    return draws


def rand_k_indices(d: int, k: int, seed) -> np.ndarray:
    """Uniformly random k-subset of range(d), sorted, from a seed or a Generator's next draws.

    Floyd's rule picks it: k draws t_j ~ U{0 .. d-k+j}, keeping t_j, or
    d-k+j when t_j is already kept; when 2k > d the rule picks the d-k
    coordinates left out instead.  It is one row of an ``add_decompressed``
    rand_k round, whose rows do not depend on how many share the round, and
    it allocates O(k), not O(d).
    """
    if seed is None:
        raise ParameterError("rand_k requires a shared randomness seed")
    if not (is_int(d, 1) and is_int(k, 1) and k <= d):
        raise ParameterError(f"rand_k needs integers 1 <= k <= d, got k={k!r}, d={d!r}")
    return np.sort(_floyd_subsets(d, k, 1, np.random.default_rng(seed))[0])


def top_k_indices(values: np.ndarray, k: int) -> np.ndarray:
    """Flat indices of each row's k largest magnitudes, ties going to the lowest index.

    ``values`` is (m, d), one message per row, or a single row of d; the
    indices are ascending and row-major, into ``values.reshape(-1)``.  Each
    row's share equals ``np.sort(np.argsort(-np.abs(row), kind="stable")[:k])``
    offset by the row's start, but one partial selection along the rows finds
    every row's k-th largest magnitude in O(d) and keeps what is at or above
    it.  Only a row that keeps more than k, by ties at its boundary, is
    fixed alone: it gives up its highest-indexed boundary entries.  k must lie
    in [1, d].
    """
    magnitudes = np.abs(values).reshape(-1, values.shape[-1])
    d = magnitudes.shape[1]
    boundary = np.partition(magnitudes, d - k, axis=1)[:, d - k, None]
    keep = magnitudes >= boundary
    idx = np.flatnonzero(keep)
    if idx.size > k * magnitudes.shape[0]:
        counts = np.count_nonzero(keep, axis=1)
        for i in np.flatnonzero(counts > k):
            ties = np.flatnonzero(magnitudes[i] == boundary[i])
            keep[i, ties[ties.size - (counts[i] - k):]] = False
        idx = np.flatnonzero(keep)
    return idx


def _add_rows_in_order(out: np.ndarray, block: np.ndarray) -> None:
    """Bit for bit ``for row in block: out += row``, with no Python loop; may overwrite ``block``.

    Adding ``out`` into the first row and reducing down the rows takes the
    same sums in the same order while np.add.reduce's inner loop runs along
    d.  Down a single column (d = 1) it sums pairwise instead, so that case
    takes the sequential np.add.accumulate.  A single row is one pass.
    """
    if block.shape[0] == 1:
        out += block[0]
        return
    block[0] += out
    if block.shape[1] == 1:
        out[:] = np.add.accumulate(block[:, 0])[-1]
    else:
        np.add.reduce(block, axis=0, out=out)


def _round_to_powers_of_two(values: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Round each entry to an adjacent power of two, unbiased in expectation.

    An entry v = m * 2^e (``np.frexp``: 0.5 <= |m| < 1) lies between lower =
    sign(v) * 2^(e-1) and upper = 2 * lower.  It becomes lower when its draw
    u (``draws`` has the shape of ``values``) is below p_lower = 2 - 2|m|, else
    upper; so the kept exponent is e - (u < p_lower), one ``np.ldexp`` away.
    That p_lower makes the rounding unbiased, and it is exact: it equals
    (|upper| - |v|) / |lower|, Sterbenz's lemma covers the subtraction, and
    scaling by a power of two is exact.  An exact power of two has p_lower = 1
    and stays itself; a zero stays zero, sign included.  From 2^1023 up, where
    2 * lower is not a float, the exponent is capped and the entry rounds down.
    """
    mantissa, exponent = np.frexp(values)
    p_lower = np.abs(mantissa)
    p_lower *= -2.0
    p_lower += 2.0
    exponent -= draws < p_lower
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
    values: np.ndarray, r: int, rows: int, cols: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked factors P (m, rows, r) and Q (m, cols, r) of the m rows of ``values``.

    Each row fills a rows x cols matrix X row-major with zero padding; one
    power iteration against a Gaussian test matrix yields P with orthonormal
    columns, and Q = X.T @ P.  One ``standard_normal`` call draws the m test
    matrices from ``rng`` in row order, the same numbers as one call per row.
    The matrix products run stacked and give each matrix's product bit for bit.
    """
    m = values.shape[0]
    mats = np.zeros((m, rows, cols))
    mats.reshape(m, -1)[:, : values.shape[1]] = values
    p = _orthonormalize_columns(mats @ rng.standard_normal((m, cols, r)))
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
            if not is_int(msg.seed, 0):
                raise DecodeError(f"rand_k message seed {msg.seed!r} is not an integer >= 0")
            values = np.asarray(msg.payload["values"], dtype=np.float64)
            if values.ndim != 1 or not 1 <= values.size <= msg.d:
                raise DecodeError(f"rand_k values of shape {values.shape} are not 1-D "
                                  f"with 1..{msg.d} entries")
            out = np.zeros(msg.d)
            out[rand_k_indices(msg.d, values.size, msg.seed)] = values
            return DenseVector(out, msg.bits_per_scalar)
        if msg.kind == "top_k":
            values = np.asarray(msg.payload["values"], dtype=np.float64)
            idx = np.asarray(msg.payload["indices"])
            if idx.dtype.kind not in "iu":
                raise DecodeError(f"top_k indices have dtype {idx.dtype}, not an integer type")
            if values.ndim != 1 or idx.shape != values.shape or idx.size < 1:
                raise DecodeError(f"top_k values {values.shape} and indices {idx.shape} "
                                  "are not 1-D of one nonzero length")
            if idx.min() < 0 or idx.max() >= msg.d or np.unique(idx).size != idx.size:
                raise DecodeError("top_k indices out of range or duplicated")
            out = np.zeros(msg.d)
            out[idx] = values
            return DenseVector(out, msg.bits_per_scalar)
        if msg.kind == "rank_r":
            p = np.asarray(msg.payload["p"], dtype=np.float64)
            q = np.asarray(msg.payload["q"], dtype=np.float64)
            rows, cols = msg.payload["rows"], msg.payload["cols"]
            if (not (is_int(rows, 1) and is_int(cols, 1)) or p.ndim != 2 or q.ndim != 2
                    or p.shape[0] != rows or q.shape[0] != cols or p.shape[1] != q.shape[1]):
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
        if self.kind in ("rand_k", "top_k") and not is_int(self.k, 1):
            raise ParameterError(f"{self.kind} requires a sparsity level k >= 1")
        if self.kind == "rank_r" and not is_int(self.r, 1):
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

    ``seed`` is an integer >= 0.  It draws rand_k's index set (and travels in
    its message), natural's rounding and rank_r's test matrix (0 when None);
    rand_k and natural require it, and identity and top_k ignore it.  ``rows``
    and ``cols`` are rank_r's matrix shape, as in ``message_bits``.
    """
    bits = message_bits(spec, x.d, x.bits_per_scalar, rows, cols)
    seed = 0 if spec.kind == "rank_r" and seed is None else seed
    if spec.kind in RANDOMIZED_KINDS and not is_int(seed, 0):
        raise ParameterError(f"{spec.kind} needs an integer seed >= 0, got {seed!r}")
    if spec.kind == "identity":
        payload = {"values": x.values}
    elif spec.kind == "rand_k":
        idx = rand_k_indices(x.d, spec.k, seed)
        payload = {"values": x.values[idx] * (x.d / spec.k)}
    elif spec.kind == "top_k":
        idx = top_k_indices(x.values, spec.k)
        payload = {"values": x.values[idx], "indices": idx.astype(np.int64)}
    elif spec.kind == "natural":
        payload = {"values": _round_to_powers_of_two(x.values, np.random.default_rng(seed).random(x.d))}
    else:
        rows, cols = _matrix_shape(x.d, rows, cols)
        p, q = rank_r_factors(x.values[None], spec.r, rows, cols, np.random.default_rng(seed))
        payload = {"p": p[0], "q": q[0], "rows": rows, "cols": cols}
    return CompressedMessage(spec.kind, payload, bits, x.d, x.bits_per_scalar,
                             seed if spec.kind == "rand_k" else None)


def add_decompressed(out: np.ndarray, spec: CompressorSpec, rows: np.ndarray,
                     rng: np.random.Generator | None) -> int:
    """Add C(row) for each row of ``rows`` into ``out``; return one message's bits.

    ``rows`` holds m finite messages of d values, one per row: an (m, d)
    array, or a source that computes them as they are read, such as the
    simulator's worker gradients.  A source offers ``shape``; row slices
    ``rows[part]``, for the slices ``row_batches(m, d)`` yields or shorter,
    each of which may overwrite the one before; and ``rows.take(flat)`` of an
    (m, k) array of flat indices, row i's into row i, as an array's ``take``
    reads them.  ``rng`` is the round's one Generator: the kinds that draw
    (rand_k, natural, rank_r) take each row's draws from it in row order,
    after the previous row's, and refuse anything else with
    ``ParameterError`` before ``out`` is touched.  identity and top_k never
    draw, and take None.

    Same result, bit for bit, as adding ``decompress(compress(DenseVector(row),
    spec, seed)).values`` into ``out`` row after row (one row with ``rng =
    default_rng(seed)``), from the same helpers, but no message is built.
    rand_k draws every row's index set in one stacked pass of Floyd's rule:
    row i takes k draws t_j ~ U{0 .. d-k+j}, after row i-1's, and keeps
    t_j, or d-k+j when t_j is already in its set (when 2k > d, the same for
    the d-k coordinates it leaves out).  So a row's subset does not depend
    on m, and one row is ``rand_k_indices`` unsorted.  top_k selects in the
    stacked batches ``row_batches(m, d)`` yields.  Both add only their kept
    values, in one row-ordered ``np.add.at`` per round (rand_k) or batch
    (top_k); adding the other coordinates' zeros would change nothing unless
    ``out`` held a negative zero.  rank_r factors its padded matrices in
    stacked ``row_batches``; natural rounds its messages in the batches of
    ``row_batches(m, d, NATURAL_BATCH_VALUES)``, a longer row in column
    pieces of that size.  Both add each decoded batch with one ordered sum,
    which takes the rows in order as ``out += row`` would (d = 1 included),
    as does identity, batch by batch.  That sum writes into its block, so
    identity copies a batch of several rows of an array first; a source's
    slices are its own to overwrite.  An array ``rows`` is never written.
    """
    m, d = rows.shape
    bits = message_bits(spec, d)
    if spec.kind in RANDOMIZED_KINDS and not isinstance(rng, np.random.Generator):
        raise ParameterError(f"{spec.kind} needs the round's np.random.Generator, got {rng!r}")
    if spec.kind == "identity":
        for part in row_batches(m, d):  # the sum writes into a batch of several rows
            batch = rows[part]
            copy = len(batch) > 1 and isinstance(rows, np.ndarray)  # not a source's scratch
            _add_rows_in_order(out, batch.copy() if copy else batch)
    elif spec.kind == "rand_k":
        # rand_k_indices' subsets, unsorted: a row's indices are distinct, so
        # their order within the row does not change its sums.
        cols = _floyd_subsets(d, spec.k, m, rng)
        values = rows.take(cols + np.arange(0, m * d, d)[:, None])
        values *= d / spec.k  # at k = d the scale is 1, which changes no bit
        # One-dimensional operands take np.add.at's fast path, about 7x the
        # speed of the (m, k) ones.
        np.add.at(out, cols.reshape(-1), values.reshape(-1))
    elif spec.kind == "top_k":
        for part in row_batches(m, d):
            batch = rows[part]
            idx = top_k_indices(batch, spec.k)
            np.add.at(out, idx % d, batch.take(idx))
    elif spec.kind == "natural":
        # Whole rows, or a row longer than a batch in column pieces: either
        # way the draws and the sums come in the order of one row at a time.
        width = min(d, NATURAL_BATCH_VALUES)
        draws = np.empty(NATURAL_BATCH_VALUES)  # every piece fits
        for part in row_batches(m, d, NATURAL_BATCH_VALUES):
            batch = rows[part]
            for col in range(0, d, width):
                piece = batch[:, col:col + width]
                part = rng.random(out=draws[: piece.size]).reshape(piece.shape)
                _add_rows_in_order(out[col:col + width], _round_to_powers_of_two(piece, part))
    else:
        shape = default_matrix_shape(d)
        for part in row_batches(m, shape[0] * shape[1]):
            p, q = rank_r_factors(rows[part], spec.r, *shape, rng)
            _add_rows_in_order(out, rank_r_expand(p, q, d))
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
    if not (is_int(d, 1) and is_int(b, 1)):
        raise ParameterError("d and b must be positive integers")
    if spec.kind == "identity":
        return d * b
    if spec.kind in ("rand_k", "top_k") and not spec.k <= d:
        raise ParameterError(f"sparsity level k={spec.k} outside [1, {d}]")
    if spec.kind == "rand_k":
        return spec.k * b
    if spec.kind == "top_k":
        return spec.k * b + spec.k * index_bits(d)
    if spec.kind == "natural":
        return NATURAL_BITS_PER_SCALAR * d
    rows, cols = _matrix_shape(d, rows, cols)
    if not (is_int(rows, 1) and is_int(cols, 1)) or rows * cols < d:
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
