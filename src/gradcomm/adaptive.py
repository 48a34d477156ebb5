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
O(1).  ``adaptive_controller`` re-selects k as fresh (size, time) samples
refine the coefficient estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import estimator
from .compression import CompressorSpec, message_bits
from .errors import ParameterError

SELECTION_FAMILIES = ("rand_k", "top_k")


@dataclass(frozen=True)
class SelectionObjective:
    """Everything needed to price a candidate power level."""

    family: str
    d: int
    n: int
    alpha: float
    beta: float
    b: int = 32

    def __post_init__(self):
        if self.family not in SELECTION_FAMILIES:
            raise ParameterError(f"unsupported compressor family: {self.family!r}")
        if self.d < 1 or self.n < 1 or self.b < 1:
            raise ParameterError("d, n, and b must be positive integers")
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ParameterError(f"alpha={self.alpha} and beta={self.beta} must be finite")

    @cached_property
    def penalty_scale(self) -> float:
        """J's penalty is (d/k) / penalty_scale: sqrt(n) for rand_k, 1 for top_k."""
        return math.sqrt(self.n) if self.family == "rand_k" else 1.0

    @cached_property
    def unit_bits(self) -> int:
        """Transmitted bits per kept coordinate: s(k) = k * unit_bits."""
        return message_bits(CompressorSpec(self.family, k=1), self.d, self.b)


def _cost(obj: SelectionObjective, k):
    """J(k) for an integer k or an integer array k; the one J expression."""
    return (1.0 + (obj.d / k) / obj.penalty_scale) * (obj.alpha + obj.beta * (k * obj.unit_bits))


def predicted_cost(obj: SelectionObjective, k):
    """Predicted relative run time when keeping k coordinates (k may be an array)."""
    if np.any((k < 1) | (k > obj.d)):
        raise ParameterError(f"power level k={k} outside [1, {obj.d}]")
    return _cost(obj, k)


def select_power(obj: SelectionObjective) -> tuple[int, float]:
    """The exact integer argmin of J over [1, d] and its cost; ties go to larger k."""
    candidates = {1, obj.d}
    beta_unit = obj.beta * obj.unit_bits
    if obj.alpha > 0 and beta_unit > 0:
        # Clipped before rounding: a denormal beta can make k_c infinite.
        k_c = min(max(math.sqrt(obj.d * obj.alpha / (obj.penalty_scale * beta_unit)), 1.0), obj.d)
        candidates.update((math.floor(k_c), math.ceil(k_c)))
    k_star = min(sorted(candidates, reverse=True), key=lambda k: _cost(obj, k))
    return k_star, _cost(obj, k_star)


@dataclass(frozen=True)
class Decision:
    sample_index: int
    fit: estimator.FitResult
    k_star: int
    predicted_cost: float


def adaptive_controller(
    samples,
    objective: SelectionObjective,
    p_max: float,
    cadence: int = 1,
    forgetting: float = 1.0,
):
    """Track (size, time) samples online and re-select k as the fit drifts.

    The first fit (the first sample at which sizes vary) gives the first
    decision; from there every ``cadence``-th sample re-selects the power.  A
    decision record is yielded for the first fit and then whenever k* changes.
    If forgetting has washed out all size variation the fit is degenerate; the
    controller keeps the last selection and moves on.
    """
    if cadence < 1:
        raise ParameterError("re-fit cadence must be >= 1")
    first = last_k = None
    for state, current in estimator.running_fits(samples, p_max, forgetting):
        if first is None:
            first = state.count
        elif current is None or (state.count - first) % cadence != 0:
            continue
        k_star, cost = select_power(
            replace(objective, alpha=current.alpha_hat, beta=current.beta_hat)
        )
        if k_star != last_k:
            yield Decision(state.count, current, k_star, cost)
            last_k = k_star
