"""Affine transmission-time model with stochastic per-message noise.

A message of s bits takes T(s) = alpha + beta * s seconds in expectation;
per message the coefficients jitter as alpha + N(0, (alpha_m*alpha)^2) and
beta + N(0, (beta_m*beta)^2).  On top of the model sit the star round's
time (``round_times``), the real-speedup ratio eta(s, omega) = T(s) / T(s/omega),
a three-way classification of the operating regime by which term dominates,
and the per-ratio speedup table as ``SpeedupRow``s, which the CLI writes to
``speedup.csv`` as they are: the module does no file I/O.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .compression import row_batches
from .errors import DegenerateModelError, ParameterError

# Sampled transmission times are clamped here: normal noise admits negative
# draws, but a transmission never takes non-positive time.
MIN_TIME_S = 1e-12

DEFAULT_RHO = 10.0


@dataclass(frozen=True)
class TimeModelParams:
    """Constants of the affine model plus relative noise levels."""

    alpha_const: float
    beta_const: float
    alpha_m: float = 0.0
    beta_m: float = 0.0

    def __post_init__(self):
        if not (0 <= self.alpha_const < math.inf and 0 <= self.beta_const < math.inf):
            raise ParameterError("time model coefficients must be finite and nonnegative")
        if not (0 <= self.alpha_m < math.inf and 0 <= self.beta_m < math.inf):
            raise ParameterError("noise levels must be finite and nonnegative")
        if self.alpha_const + self.beta_const == 0:
            raise DegenerateModelError("alpha and beta cannot both be zero")

    @property
    def sigma_alpha(self) -> float:
        return self.alpha_m * self.alpha_const

    @property
    def sigma_beta(self) -> float:
        return self.beta_m * self.beta_const


class Region(str, enum.Enum):
    """Which term of alpha + beta*s dominates at a given message size."""

    __str__ = str.__str__  # format as the value, as enum.StrEnum (Python >= 3.11) does

    AREA1_ALPHA_DOMINATED = "area1_alpha_dominated"
    AREA2_MIXED = "area2_mixed"
    AREA3_BETA_DOMINATED = "area3_beta_dominated"


def expected_time(params: TimeModelParams, s: float) -> float:
    """Mean transmission time of an s-bit message."""
    if not 0 <= s < math.inf:
        raise ParameterError("message size must be finite and nonnegative")
    return params.alpha_const + params.beta_const * s


def sample_time(params: TimeModelParams, s, rng=None):
    """Noisy transmission time of an s-bit message, or one per entry of an array of sizes.

    Coefficients are redrawn independently per message, alpha's noise before
    beta's, so one call on an array draws the same numbers, in the same
    order, as one call per size.  A scalar size gives a float.
    """
    sizes = np.asarray(s, dtype=np.float64)
    if not np.all((0 <= sizes) & (sizes < math.inf)):
        raise ParameterError("message size must be finite and nonnegative")
    gen = np.random.default_rng(rng)
    noise = gen.normal(0.0, [params.sigma_alpha, params.sigma_beta], size=sizes.shape + (2,))
    alpha = params.alpha_const + noise[..., 0]
    beta = params.beta_const + noise[..., 1]
    times = np.maximum(alpha + beta * sizes, MIN_TIME_S)
    return float(times) if times.ndim == 0 else times


def round_times(params: TimeModelParams, down_bits, up_bits, n: int, rounds: int, rng):
    """Yield each of ``rounds`` star rounds' sampled time T_down + max_i T_up_i: one
    downlink of ``down_bits``, then n parallel uplinks of ``up_bits``.

    The noise is drawn by one ``sample_time`` call per block of whole rounds,
    of n + 1 sizes each, that ``row_batches`` yields: the same numbers, in the
    same order, as one call per round, with memory bounded by one block.
    """
    gen = np.random.default_rng(rng)
    sizes = np.array([down_bits] + [up_bits] * n, dtype=np.float64)
    for block in row_batches(rounds, n + 1):
        shape = (block.stop - block.start, n + 1)
        times = sample_time(params, np.broadcast_to(sizes, shape), gen)
        yield from (times[:, 0] + times[:, 1:].max(axis=1)).tolist()


def eta(params: TimeModelParams, s: float, omega: float) -> float:
    """Real speedup of compressing an s-bit message by the factor omega.

    eta = T(s) / T(s / omega).  The pure-bandwidth limit (alpha = 0) returns
    omega exactly and the pure-latency limit (beta = 0) returns 1 exactly.
    """
    if not 0 < s < math.inf:
        raise ParameterError("message size must be finite and positive")
    if not 1 <= omega < math.inf:
        raise ParameterError("compression ratio must be finite and >= 1")
    if params.alpha_const == 0:
        return float(omega)
    if params.beta_const == 0:
        return 1.0
    return expected_time(params, s) / expected_time(params, s / omega)


def classify_region(params: TimeModelParams, s: float, rho: float = DEFAULT_RHO) -> Region:
    """Classify the regime at size s with dominance threshold rho.

    Area 1 when beta*s <= alpha/rho, area 3 when beta*s >= rho*alpha, area 2
    between.  Larger s never moves the classification to a lower area.
    """
    if not 0 <= s < math.inf:
        raise ParameterError("message size must be finite and nonnegative")
    if not 1 < rho < math.inf:
        raise ParameterError("dominance threshold rho must be finite and exceed 1")
    load = params.beta_const * s
    if load * rho <= params.alpha_const:
        return Region.AREA1_ALPHA_DOMINATED
    if load >= rho * params.alpha_const:
        return Region.AREA3_BETA_DOMINATED
    return Region.AREA2_MIXED


class SpeedupRow(NamedTuple):  # the fields are speedup.csv's columns
    omega: float
    compressed_bits: float
    region_from: Region
    region_to: Region
    expected_time_s: float
    speedup: float


def transition_report(
    params: TimeModelParams,
    s_from: float,
    omegas,
    rho: float = DEFAULT_RHO,
) -> list[SpeedupRow]:
    """Tabulate, per compression ratio, where the message lands and how much it gains."""
    if not 0 < s_from < math.inf:
        raise ParameterError("source message size must be finite and positive")
    region_from = classify_region(params, s_from, rho)
    rows = []
    for omega in omegas:
        if not 1 <= omega < math.inf:
            raise ParameterError("compression ratios must be finite and >= 1")
        s_to = s_from / omega
        rows.append(
            SpeedupRow(
                omega=float(omega),
                compressed_bits=s_to,
                region_from=region_from,
                region_to=classify_region(params, s_to, rho),
                expected_time_s=expected_time(params, s_to),
                speedup=eta(params, s_from, omega),
            )
        )
    return rows
