"""Online least-squares estimation of the time-model coefficients.

The estimator keeps four running sums (sizes, times, size*time products,
squared sizes) plus a sample count, so each (size, time) observation is
absorbed in O(1) memory and time while reproducing the full batch
least-squares fit:

    beta  = (k * s_xy - s_x * s_y) / (k * s_xx - s_x^2)
    alpha = (s_y - beta * s_x) / k

``batch_ls`` is the independent oracle: a centered two-pass fit over the
stored points.  States are immutable; ``update`` returns a new state, so a
snapshot can be read at any time while a single owner advances the stream.

An optional exponential forgetting factor (an extension; 1.0 reproduces the
plain recursion exactly) decays the sums and an effective sample weight
before each update so drifting channel parameters can be tracked.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDesignError, ParameterError

GRID_POINTS = 16
GRID_SPAN = 1e4  # the geometric proposal grid covers (p_max / GRID_SPAN, p_max]


@dataclass(frozen=True)
class EstimatorState:
    count: int
    weight: float  # effective sample count; equals ``count`` when forgetting=1
    s_x: float
    s_y: float
    s_xy: float
    s_xx: float
    p_max: float
    forgetting: float = 1.0


@dataclass(frozen=True)
class FitResult:
    alpha_hat: float
    beta_hat: float
    k: int


def _check_size(x: float, p_max: float) -> None:
    if not 0 < x <= p_max:
        raise ParameterError(f"message size {x} outside (0, {p_max}]")


def init(x1, y1, x2, y2, p_max, forgetting: float = 1.0) -> EstimatorState:
    """Seed the running sums from two measurements at distinct sizes."""
    if p_max <= 0:
        raise ParameterError("p_max must be positive")
    if not 0.0 < forgetting <= 1.0:
        raise ParameterError("forgetting factor must lie in (0, 1]")
    _check_size(x1, p_max)
    _check_size(x2, p_max)
    if x1 == x2:
        raise DegenerateDesignError(
            "degenerate design: the two initial sizes must differ"
        )
    return EstimatorState(
        count=2,
        weight=2.0,
        s_x=x1 + x2,
        s_y=y1 + y2,
        s_xy=x1 * y1 + x2 * y2,
        s_xx=x1 * x1 + x2 * x2,
        p_max=p_max,
        forgetting=forgetting,
    )


def fit(state: EstimatorState) -> FitResult:
    """Current coefficients from the running sums alone."""
    w = state.weight
    denom = w * state.s_xx - state.s_x * state.s_x
    # Cauchy-Schwarz keeps denom >= 0; a (near-)zero value means the ingested
    # sizes no longer vary, so the slope is unidentifiable.
    if denom <= 1e-12 * w * state.s_xx:
        raise DegenerateDesignError("degenerate design: message sizes do not vary")
    beta = (w * state.s_xy - state.s_x * state.s_y) / denom
    alpha = (state.s_y - beta * state.s_x) / w
    return FitResult(alpha_hat=alpha, beta_hat=beta, k=state.count)


def advance(state: EstimatorState, x_k, y_k) -> EstimatorState:
    """Absorb one sample into the sums without computing a fit."""
    _check_size(x_k, state.p_max)
    lam = state.forgetting
    return EstimatorState(
        count=state.count + 1,
        weight=lam * state.weight + 1.0,
        s_x=lam * state.s_x + x_k,
        s_y=lam * state.s_y + y_k,
        s_xy=lam * state.s_xy + x_k * y_k,
        s_xx=lam * state.s_xx + x_k * x_k,
        p_max=state.p_max,
        forgetting=lam,
    )


def update(state: EstimatorState, x_k, y_k) -> tuple[EstimatorState, FitResult]:
    """Absorb one sample and return the refreshed state and fit."""
    new_state = advance(state, x_k, y_k)
    return new_state, fit(new_state)


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


def propose_next_size(state: EstimatorState, policy: str = "uniform", rng=None) -> float:
    """Next probe size in bits under the named exploration policy.

    ``uniform`` draws from (0, p_max]; ``grid`` walks a fixed 16-point
    geometric grid spanning p_max/1e4 up to p_max, cycling with the sample
    count so consecutive updates visit consecutive grid points.
    """
    if policy == "uniform":
        gen = np.random.default_rng(rng)
        return state.p_max * (1.0 - gen.random())
    if policy == "grid":
        i = state.count % GRID_POINTS
        return state.p_max * GRID_SPAN ** ((i - (GRID_POINTS - 1)) / (GRID_POINTS - 1))
    raise ParameterError(f"unknown proposal policy: {policy!r}")


def read_samples_csv(path) -> list[tuple[float, float]]:
    """Load (size_bits, time_seconds) pairs from a ``size_bytes,time_seconds`` CSV.

    Sizes are converted from bytes to bits (x8).  Extra columns such as the
    probe's ``rep`` are ignored.
    """
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        fields = reader.fieldnames or []
        if "size_bytes" not in fields or "time_seconds" not in fields:
            raise ParameterError(
                f"{path}: sample CSV must have size_bytes and time_seconds columns, got {fields}"
            )
        try:
            return [
                (float(row["size_bytes"]) * 8.0, float(row["time_seconds"]))
                for row in reader
            ]
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"{path}, line {reader.line_num}: {exc}") from exc
