"""Online least-squares estimation of the time-model coefficients.

The estimator keeps four running sums (sizes, times, size*time products,
squared sizes) plus a sample count and weight, so each (size, time)
observation is absorbed in O(1) memory and time while reproducing the full
batch least-squares fit:

    beta  = (w * s_xy - s_x * s_y) / (w * s_xx - s_x^2)
    alpha = (s_y - beta * s_x) / w

``start`` returns a state with zero sums; ``advance`` absorbs one sample and
``fit`` raises :class:`DegenerateDesignError` until two sizes differ.
``fit_columns`` turns size and time arrays into every sample's fit, as
columns, plus the state to carry into the next call.  ``advance``, ``fit``
and ``update`` are its scalar reference: it gives their bits, and ``fit``
and it share the one identification test and alpha/beta formula.  A
consumer that must act on each sample as it arrives, such as
``adaptive.adaptive_controller``, runs the scalar pair.  ``batch_ls`` is
the independent oracle: a centered two-pass fit over the stored points.
States and fits are immutable ``NamedTuple``s, so a snapshot can be read
at any time while a single owner advances the stream.

An optional exponential forgetting factor lambda (an extension; 1.0 reproduces
the plain sums exactly) decays the sums and the weight before each sample, so
after n samples sample i carries weight lambda**(n - i) and drifting channel
parameters can be tracked.  The two regimes differ only in how ``fit_columns``
scans its table of sums: a cumulative sum at 1, ``lam * s + v`` below it.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from . import csvio
from .errors import DegenerateDesignError, GradcommError, ParameterError

# Sizes arrive in bytes (CSV files, the CLI, netprobe) and the model works in bits.
BITS_PER_BYTE = 8
GRID_POINTS = 16
GRID_SPAN = 1e4  # the geometric proposal grid covers (p_max / GRID_SPAN, p_max]
SAMPLE_COLUMNS = ("size_bytes", "time_seconds")  # samples.csv's columns; probe adds "rep"


class EstimatorState(NamedTuple):
    count: int
    weight: float  # effective sample count; equals ``count`` when forgetting=1
    s_x: float
    s_y: float
    s_xy: float
    s_xx: float
    p_max: float
    forgetting: float = 1.0


class FitResult(NamedTuple):
    alpha_hat: float
    beta_hat: float
    k: int


def start(p_max: float, forgetting: float = 1.0) -> EstimatorState:
    """An estimator that has seen no samples yet."""
    if not 0 < p_max <= math.inf:
        raise ParameterError("p_max must be positive")
    if not 0.0 < forgetting <= 1.0:
        raise ParameterError("forgetting factor must lie in (0, 1]")
    return EstimatorState(count=0, weight=0.0, s_x=0.0, s_y=0.0, s_xy=0.0, s_xx=0.0,
                          p_max=p_max, forgetting=forgetting)


class SumsOverflowedError(DegenerateDesignError):
    """The fit's arithmetic left the floats: refused, never waited out like a washed-out design."""


# What a stream whose sizes never varied raises once it ends.
SIZES_NEVER_VARIED = "degenerate design: all message sizes are equal"
# What a fit of sizes that do not vary raises, and a fit whose arithmetic overflowed.
SIZES_DO_NOT_VARY = "degenerate design: message sizes do not vary"
SUMS_OVERFLOWED = "degenerate design: the running sums overflowed"


class FitColumns(NamedTuple):
    """``fit_columns``' result: one entry per sample it absorbed, and the state after them."""

    count: np.ndarray  # int64: samples absorbed, the fit's k
    alpha_hat: np.ndarray  # float64; NaN where ``fit`` finds the sizes do not vary
    beta_hat: np.ndarray
    state: EstimatorState
    fault: GradcommError | None  # raised by the caller; the columns stop at its sample


def _design(w, s_x, s_xx):
    """The design determinant and whether it identifies the slope, for floats or arrays.

    Cauchy-Schwarz keeps the determinant >= 0; a (near-)zero value means the
    ingested sizes no longer vary, so the slope is unidentifiable.  NaN and
    inf fail too.
    """
    denom = w * s_xx - s_x * s_x
    return denom, denom > 1e-12 * w * s_xx


def _coefficients(w, s_x, s_y, s_xy, denom):
    """alpha and beta from the sums and the design determinant, for floats or arrays."""
    beta = (w * s_xy - s_x * s_y) / denom
    return (s_y - beta * s_x) / w, beta


def _finite(value):
    """``math.isfinite`` of a float, elementwise for an array."""
    return abs(value) < math.inf


def _sample_checks(bits, time):
    """A samples file's rule for one sample, for floats or arrays: (positive, held).

    ``positive``: the size is above 0.  ``held``: its bits squared and its
    bits times its time are finite, so the fit's sums can hold the sample.
    """
    return bits > 0, _finite(bits * bits) & _finite(bits * time)


def _products_finite(w, s_x, s_y, s_xy, s_xx):
    """Whether a fit that sees no varying sizes could still trust its sums' products."""
    return _finite(w * s_xx) & _finite(w * s_xy) & _finite(s_x * s_y)


def fit(state: EstimatorState) -> FitResult:
    """Current coefficients from the running sums alone; always finite.

    Sizes that do not vary raise :class:`DegenerateDesignError`.  So does
    overflow, with its own message: a product of the sums, or alpha or beta,
    that is not finite (each product may be finite while their difference
    or ``beta * s_x`` is not).
    """
    _, w, s_x, s_y, s_xy, s_xx, _, _ = state
    denom, identified = _design(w, s_x, s_xx)
    if identified:
        alpha, beta = _coefficients(w, s_x, s_y, s_xy, denom)
        if _finite(alpha) and _finite(beta):
            return FitResult(alpha, beta, state.count)
    elif _products_finite(w, s_x, s_y, s_xy, s_xx):
        raise DegenerateDesignError(SIZES_DO_NOT_VARY)
    raise SumsOverflowedError(SUMS_OVERFLOWED)


def _sample_fault(p_max, x_k, y_k) -> ParameterError | None:
    """Why ``advance`` refuses the sample ``(x_k, y_k)``, or None if it absorbs it."""
    if not 0 < x_k <= p_max:
        return ParameterError(f"message size {x_k} outside (0, {p_max}]")
    if not -math.inf < y_k < math.inf:
        return ParameterError(f"time {y_k} is not finite")
    return None


def advance(state: EstimatorState, x_k, y_k) -> EstimatorState:
    """Absorb one sample into the sums without computing a fit."""
    fault = _sample_fault(state.p_max, x_k, y_k)
    if fault is not None:
        raise fault
    lam = state.forgetting
    return EstimatorState(  # positional, in field order: the cheapest call
        state.count + 1,
        lam * state.weight + 1.0,
        lam * state.s_x + x_k,
        lam * state.s_y + y_k,
        lam * state.s_xy + x_k * y_k,
        lam * state.s_xx + x_k * x_k,
        state.p_max,
        lam,
    )


def update(state: EstimatorState, x_k, y_k) -> tuple[EstimatorState, FitResult]:
    """Absorb one sample and return the refreshed state and fit."""
    new_state = advance(state, x_k, y_k)
    return new_state, fit(new_state)


def fit_columns(state: EstimatorState, sizes, times) -> FitColumns:
    """Absorb the samples ``(sizes[i], times[i])`` from ``state``: every fit and the end state.

    Entry i of the columns is ``fit`` after ``advance`` on every sample up to
    i, bit for bit, with sizes and times read as float64; where ``fit`` finds
    that the sizes do not vary, alpha and beta are NaN.  One (5, n + 1) table
    holds each running sum's carried value and then its term for each sample,
    and one scan along each row turns the terms into ``advance``'s sums: at
    forgetting 1 ``np.cumsum``, which makes the same additions in the same
    order, and below 1 ``itertools.accumulate`` of ``advance``'s own
    ``lam * s + v``.  So a stream fed in pieces, each from the state the last
    one ended in, gives the same bits as one call.  The fits' formula is
    ``fit``'s own, applied to the sums' columns.

    A sample ``advance`` refuses, or a fit whose sums or coefficients
    overflow, ends the columns before it: ``fault`` is the error that sample
    raises, with ``advance``'s message on the caller's own values, and
    ``state`` the state after the last sample absorbed.
    """
    x = np.asarray(sizes, dtype=np.float64)
    y = np.asarray(times, dtype=np.float64)
    lam = state.forgetting
    with np.errstate(all="ignore"):
        # Row r of ``sums`` is sum r's carried value, then its value after each
        # sample.  A sum depends on no later sample, so the samples after the
        # first refused one, cut off below, cannot change it.
        sums = np.empty((5, x.size + 1))
        sums[:, 0] = state[1:6]
        sums[0, 1:] = 1.0
        sums[1, 1:] = x
        sums[2, 1:] = y
        np.multiply(x, y, out=sums[3, 1:])
        np.multiply(x, x, out=sums[4, 1:])
        if lam == 1.0:  # the carried sum, then each term: cumsum adds them in advance's order
            np.cumsum(sums, axis=1, out=sums)
        else:  # advance's own arithmetic along each row
            for row in sums:
                row[:] = list(itertools.accumulate(row.tolist(), lambda s, v: lam * s + v))
        w, s_x, s_y, s_xy, s_xx = sums[:, 1:]
        denom, identified = _design(w, s_x, s_xx)
        alpha, beta = _coefficients(w, s_x, s_y, s_xy, denom)
        fitted = identified & _finite(alpha) & _finite(beta)
        sound = ((0 < x) & (x <= state.p_max) & _finite(y)
                 & (fitted | ~identified & _products_finite(w, s_x, s_y, s_xy, s_xx)))
    stops = np.flatnonzero(~sound)
    n = int(stops[0]) if stops.size else x.size
    fault = None
    if n < x.size:  # a refused sample, else a fit that overflowed
        fault = (_sample_fault(state.p_max, sizes[n], times[n])
                 or SumsOverflowedError(SUMS_OVERFLOWED))
    end = EstimatorState(state.count + n, *sums[:, n].tolist(), state.p_max, lam)
    alpha = np.where(fitted[:n], alpha[:n], np.nan)
    beta = np.where(fitted[:n], beta[:n], np.nan)
    return FitColumns(np.arange(state.count + 1, state.count + n + 1), alpha, beta, end, fault)


def batch_ls(points) -> FitResult:
    """Ordinary least squares over the full point set (testing oracle).

    Uses the centered formulation (two passes over stored data), which is a
    different computation path from the running-sums recursion.
    """
    pts = np.asarray(list(points), dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise DegenerateDesignError("batch fit needs at least two (size, time) points")
    x, y = pts[:, 0], pts[:, 1]
    x_mean, y_mean = x.mean(), y.mean()
    dx = x - x_mean
    sxx = float(dx @ dx)
    if sxx <= 1e-18 * max(1.0, float(x @ x)):
        raise DegenerateDesignError(SIZES_DO_NOT_VARY)
    beta = float(dx @ (y - y_mean)) / sxx
    alpha = y_mean - beta * x_mean
    return FitResult(alpha_hat=float(alpha), beta_hat=float(beta), k=pts.shape[0])


def propose_next_size(count: int, p_max: float, policy: str = "uniform", rng=None) -> float:
    """Size in bits to probe after ``count`` samples, under the named policy.

    ``uniform`` draws from (0, p_max]; ``grid`` walks a fixed 16-point
    geometric grid spanning p_max/1e4 up to p_max, cycling with the sample
    count so consecutive samples visit consecutive grid points.  No proposal
    reads a measurement, so a whole probe schedule can be drawn up front.
    """
    if policy == "uniform":
        gen = np.random.default_rng(rng)
        return p_max * (1.0 - gen.random())
    if policy == "grid":
        i = count % GRID_POINTS
        return p_max * GRID_SPAN ** ((i - (GRID_POINTS - 1)) / (GRID_POINTS - 1))
    raise ParameterError(f"unknown proposal policy: {policy!r}")


def read_samples_csv(path) -> np.ndarray:
    """Load (size_bits, time_seconds) rows from a samples CSV, by its ``SAMPLE_COLUMNS``.

    Returns an (N, 2) float64 array.  Sizes are converted from bytes to bits
    (x8).  Extra columns such as the probe's ``rep`` are ignored.  A missing,
    non-numeric or non-finite field, a size that is not positive, or a size
    whose bits squared or bits times time is not finite (the fit's sums could
    not hold it), raises :class:`ParameterError` naming its line.

    The rows are parsed in bulk by ``csvio.load_columns``.  A file it cannot
    vouch for, or with a row that fails a check, is read again row by row,
    which names the faulty line.
    """
    samples = csvio.load_columns(path, SAMPLE_COLUMNS)
    if samples is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            samples[:, 0] *= BITS_PER_BYTE
            bits, time = samples.T
            positive, held = _sample_checks(bits, time)
            if (positive & held).all():
                return samples
    return np.array(list(_sample_rows(path)), dtype=np.float64).reshape(-1, 2)


def _sample_rows(path):
    """Yield each (size_bits, time_seconds) row, raising at the first faulty line."""
    rows = csvio.read_csv(path, SAMPLE_COLUMNS)
    for size, time in rows:
        bits = size * BITS_PER_BYTE
        positive, held = _sample_checks(bits, time)
        if not positive:
            rows.throw(ValueError(f"size_bytes must be positive, got {size!r}"))
        if not held:
            rows.throw(ValueError(f"non-finite bits**2 or bits*time for size_bytes {size!r}"))
        yield bits, time
