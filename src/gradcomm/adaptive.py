"""Selection of the compression power that minimizes predicted communication time.

For a sparsifier keeping k of d coordinates, the predicted relative cost of a
run is the per-message transmission time scaled by the variance (or
contraction) penalty the operator puts on the iteration count:

    rand_k:  J(k) = (1 + (d/k) / sqrt(n)) * (alpha + beta * s(k))
    top_k:   J(k) = (1 + d/k)             * (alpha + beta * s(k))

with s(k) = k * s(1) the exact transmitted bits from ``message_bits`` (index
overhead included for top_k).  Factors independent of k multiply J uniformly
and cannot move the argmin, so they are dropped.

Writing J(k) = (1 + c*d/k) * (alpha + beta'*k) with beta' = beta * s(1), the
derivative beta' - c*d*alpha/k^2 shows that J is convex with its real minimum
at k_c = sqrt(c*d*alpha/beta') when alpha and beta' are both positive, and is
monotone or concave otherwise.  ``select_power`` therefore compares J at the
ends of [1, d] and at the two integers around k_c: the exact integer argmin in
O(1).  It scans them in descending order, d, ceil(k_c), floor(k_c), 1, and
only a strictly lower cost replaces the best, so ties go to the larger k.
``adaptive_controller`` re-selects k as fresh (size, time) samples refine the
coefficient estimates.  It prices each fit against the one objective it was
given, so a step is O(1) arithmetic with no objective rebuilt and no
container built, and each decision equals ``select_power`` on that objective
with the refreshed alpha and beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import estimator
from .compression import DEFAULT_BITS_PER_SCALAR, CompressorSpec, message_bits
from .errors import DegenerateDesignError, ParameterError, is_int

SELECTION_FAMILIES = ("rand_k", "top_k")


@dataclass(frozen=True)
class SelectionObjective:
    """Everything needed to price a candidate power level."""

    family: str
    d: int
    n: int
    alpha: float
    beta: float
    b: int = DEFAULT_BITS_PER_SCALAR

    def __post_init__(self):
        if self.family not in SELECTION_FAMILIES:
            raise ParameterError(f"unsupported compressor family: {self.family!r}")
        if not (is_int(self.d, 1) and is_int(self.n, 1) and is_int(self.b, 1)):
            raise ParameterError("d, n, and b must be positive integers")
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ParameterError(f"alpha={self.alpha} and beta={self.beta} must be finite")
        # Python floats: a denormal beta overflows J's argmin to inf quietly,
        # where a NumPy scalar raises a RuntimeWarning.
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))

    @cached_property
    def penalty_scale(self) -> float:
        """J's penalty is (d/k) / penalty_scale: sqrt(n) for rand_k, 1 for top_k."""
        return math.sqrt(self.n) if self.family == "rand_k" else 1.0

    @cached_property
    def unit_bits(self) -> int:
        """Transmitted bits per kept coordinate: s(k) = k * unit_bits."""
        return message_bits(CompressorSpec(self.family, k=1), self.d, self.b)


def _cost(obj: SelectionObjective, alpha: float, beta: float, k):
    """J(k) at (alpha, beta) for an integer k or an integer array k; the one J expression."""
    return (1.0 + (obj.d / k) / obj.penalty_scale) * (alpha + beta * (k * obj.unit_bits))


def predicted_cost(obj: SelectionObjective, k):
    """Predicted relative run time when keeping k coordinates (k may be an array)."""
    if np.any((k < 1) | (k > obj.d)):
        raise ParameterError(f"power level k={k} outside [1, {obj.d}]")
    return _cost(obj, obj.alpha, obj.beta, k)


def _argmin(obj: SelectionObjective, alpha: float, beta: float) -> tuple[int, float]:
    """The exact integer argmin of J at (alpha, beta) over [1, d] and its cost.

    The candidates d, ceil(k_c), floor(k_c) and 1 are priced in descending
    order, skipping a k that is not below the last one priced.  Only a
    strictly lower cost replaces the best, so ties go to the larger k.
    """
    k_star = last = obj.d
    best = _cost(obj, alpha, beta, last)
    candidates = (1,)
    beta_unit = beta * obj.unit_bits
    if alpha > 0 and beta_unit > 0:
        # Clipped before rounding: a denormal beta can make k_c infinite.
        k_c = min(max(math.sqrt(obj.d * alpha / (obj.penalty_scale * beta_unit)), 1.0), obj.d)
        candidates = (math.ceil(k_c), math.floor(k_c), 1)
    for k in candidates:
        if k < last:
            cost = _cost(obj, alpha, beta, k)
            if cost < best:
                k_star, best = k, cost
            last = k
    return k_star, best


def select_power(obj: SelectionObjective) -> tuple[int, float]:
    """The exact integer argmin of J over [1, d] and its cost; ties go to larger k."""
    return _argmin(obj, obj.alpha, obj.beta)


class Decision(NamedTuple):
    sample_index: int
    fit: estimator.FitResult
    k_star: int
    predicted_cost: float


def adaptive_controller(
    samples,
    objective: SelectionObjective,
    p_max: float,
    forgetting: float = 1.0,
):
    """Track (size, time) samples online and re-select k as the fit drifts.

    The first fit (the first sample at which sizes vary) gives the first
    decision; from there every sample re-selects the power.  A decision
    record is yielded for the first fit and then whenever k* changes.  Each
    fit's (alpha_hat, beta_hat) is priced against ``objective`` (its own
    alpha and beta are not read), which ``estimator.fit`` keeps finite.  If
    forgetting has washed out all size variation the fit is degenerate; the
    controller keeps the last selection and moves on.

    Each sample is absorbed by ``estimator.advance`` and fitted by
    ``estimator.fit`` as it arrives, so a decision comes before the next
    sample is read.  A sample the estimator refuses, or an overflowed fit,
    raises at once; a stream whose sizes never varied raises once it ends.
    """
    state = estimator.start(p_max, forgetting)
    last_k = None
    for x, y in samples:
        state = estimator.advance(state, x, y)
        try:
            current = estimator.fit(state)
        except estimator.SumsOverflowedError:
            raise  # refused, not waited out like a washed-out design
        except DegenerateDesignError:  # not identified yet, or washed out
            continue
        k_star, cost = _argmin(objective, current.alpha_hat, current.beta_hat)
        if k_star != last_k:
            yield Decision(state.count, current, k_star, cost)
            last_k = k_star
    if last_k is None:
        raise DegenerateDesignError(estimator.SIZES_NEVER_VARIED)
