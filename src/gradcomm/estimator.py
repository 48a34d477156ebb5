"""Online least-squares estimation of the time-model coefficients.

The estimator keeps four running sums (sizes, times, size*time products,
squared sizes) plus a sample count and weight, so each (size, time)
observation is absorbed in O(1) memory and time while reproducing the full
batch least-squares fit:

    beta  = (w * s_xy - s_x * s_y) / (w * s_xx - s_x^2)
    alpha = (s_y - beta * s_x) / w

``start`` returns a state with zero sums and every sample goes through
``advance``; ``fit`` raises :class:`DegenerateDesignError` until two sizes
differ.  ``running_fits`` is the one loop that turns a (size, time) stream into
fits.  ``batch_ls`` is the independent oracle: a centered two-pass fit over the
stored points.  States and fits are immutable ``NamedTuple``s, so a snapshot
can be read at any time while a single owner advances the stream.

An optional exponential forgetting factor lambda (an extension; 1.0 reproduces
the plain sums exactly) decays the sums and the weight before each sample, so
after n samples sample i carries weight lambda**(n - i) and drifting channel
parameters can be tracked.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import csvio
from .errors import DegenerateDesignError, ParameterError

GRID_POINTS = 16
GRID_SPAN = 1e4  # the geometric proposal grid covers (p_max / GRID_SPAN, p_max]


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
    if p_max <= 0:
        raise ParameterError("p_max must be positive")
    if not 0.0 < forgetting <= 1.0:
        raise ParameterError("forgetting factor must lie in (0, 1]")
    return EstimatorState(count=0, weight=0.0, s_x=0.0, s_y=0.0, s_xy=0.0, s_xx=0.0,
                          p_max=p_max, forgetting=forgetting)


def _overflowed(state: EstimatorState) -> bool:
    """Whether a product ``fit`` forms from the running sums is not finite."""
    w = state.weight
    return not (math.isfinite(w * state.s_xx) and math.isfinite(w * state.s_xy)
                and math.isfinite(state.s_x * state.s_y))


def fit(state: EstimatorState) -> FitResult:
    """Current coefficients from the running sums alone."""
    if _overflowed(state):
        raise DegenerateDesignError("degenerate design: the running sums overflowed")
    w = state.weight
    denom = w * state.s_xx - state.s_x * state.s_x
    # Cauchy-Schwarz keeps denom >= 0; a (near-)zero value means the ingested
    # sizes no longer vary, so the slope is unidentifiable.  NaN fails too.
    if not denom > 1e-12 * w * state.s_xx:
        raise DegenerateDesignError("degenerate design: message sizes do not vary")
    beta = (w * state.s_xy - state.s_x * state.s_y) / denom
    alpha = (state.s_y - beta * state.s_x) / w
    return FitResult(alpha, beta, state.count)


def advance(state: EstimatorState, x_k, y_k) -> EstimatorState:
    """Absorb one sample into the sums without computing a fit."""
    if not 0 < x_k <= state.p_max:
        raise ParameterError(f"message size {x_k} outside (0, {state.p_max}]")
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


def running_fits(samples, p_max: float, forgetting: float = 1.0):
    """Absorb (size, time) samples from an empty state, one ``advance`` each.

    Yields ``(state, fit)`` for every sample from the first one at which the
    sizes vary.  A later fit that forgetting has made degenerate comes as
    ``(state, None)``.  Overflowed sums raise :class:`DegenerateDesignError`
    at once, a stream whose sizes never vary once it ends.
    """
    state = start(p_max, forgetting)
    identified = False
    for x, y in samples:
        state = advance(state, x, y)
        try:
            result = fit(state)
        except DegenerateDesignError:
            if _overflowed(state):
                raise  # fit's overflow: refused, not waited out like a washed-out design
            if not identified:
                continue
            result = None
        identified = True
        yield state, result
    if not identified:
        raise DegenerateDesignError("degenerate design: all message sizes are equal")


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
        raise DegenerateDesignError("degenerate design: message sizes do not vary")
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


def read_samples_csv(path) -> list[tuple[float, float]]:
    """Load (size_bits, time_seconds) pairs from a ``size_bytes,time_seconds`` CSV.

    Sizes are converted from bytes to bits (x8).  Extra columns such as the
    probe's ``rep`` are ignored.  A missing, non-numeric or non-finite field,
    a size that is not positive, or a size whose bits squared or bits times
    time is not finite (the fit's sums could not hold it), raises
    :class:`ParameterError` naming its line.
    """
    rows = csvio.read_csv(path, ("size_bytes", "time_seconds"))
    samples = []
    for size, time in rows:
        if not size > 0:
            rows.throw(ValueError(f"size_bytes must be positive, got {size!r}"))
        bits = size * 8.0
        if not (math.isfinite(bits * bits) and math.isfinite(bits * time)):
            rows.throw(ValueError(f"non-finite bits**2 or bits*time for size_bytes {size!r}"))
        samples.append((bits, time))
    return samples
