"""Layer-wise pruning-ratio assignment.

The default curve raises the ratio logarithmically with depth, so shallow
layers (whose reconstruction errors compound through every later layer)
are pruned gently and deep layers carry more of the budget. Linear and
mirrored (decreasing) variants plus a flat schedule exist for comparison.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import TOL

VARIANTS = (
    "log_increase",
    "linear_increase",
    "uniform",
    "log_decrease",
    "linear_decrease",
)


def ratio_at(i: int, n: int, r0: float, rn: float, variant: str = "log_increase") -> float:
    """Pruning ratio of layer ``i`` in an ``n``-layer model.

    All variants pin ``ratio_at(0) == r0`` and ``ratio_at(n-1) == rn``.
    The log curve interpolates with ``log(i+1)/log(n)``; decrease variants
    are the layer-order mirror of their increase counterparts with the
    endpoint values swapped. The log base cancels in the ratio, so the
    natural log is used throughout.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    if not 0 <= i < n:
        raise ValueError(f"layer index {i} out of range for {n} layers")
    for name, val in (("r0", r0), ("rn", rn)):
        if not 0.0 <= val < 1.0:
            raise ValueError(f"{name} must be in [0, 1), got {val}")
    if variant == "uniform":
        if r0 != rn:
            raise ValueError(f"uniform schedule requires r0 == rn, got {r0} and {rn}")
        return r0
    if n < 2:
        raise ValueError(f"{variant} needs at least 2 layers, got {n}")
    if variant == "log_increase":
        return r0 + (rn - r0) * math.log(i + 1) / math.log(n)
    if variant == "linear_increase":
        return r0 + (rn - r0) * i / (n - 1)
    if variant == "log_decrease":
        return rn + (r0 - rn) * math.log(n - i) / math.log(n)
    return rn + (r0 - rn) * (n - 1 - i) / (n - 1)  # linear_decrease


def schedule_ratios(n: int, r0: float, rn: float, variant: str = "log_increase") -> np.ndarray:
    """All n per-layer ratios of the given variant."""
    return np.array([ratio_at(i, n, r0, rn, variant) for i in range(n)])


def counts_from_ratio(r: float, units: int) -> int:
    """Units to prune for a fractional ratio; at least one unit survives."""
    if units < 1:
        raise ValueError(f"units must be >= 1, got {units}")
    if not 0.0 <= r < 1.0:
        raise ValueError(f"ratio must be in [0, 1), got {r}")
    return max(0, min(int(round(r * units)), units - 1))


def solve_last_ratio(
    global_target: float,
    r0: float,
    layer_param_weights,
    variant: str = "log_increase",
) -> float:
    """Find ``rn`` so the parameter-weighted mean ratio hits the global target.

    The weighted mean is monotone non-decreasing in ``rn`` for every
    variant, so a plain bisection over [0, 1) converges; it stops when the
    residual drops below ``TOL.schedule_residual``.

    Raises:
        ValueError: if no ``rn`` in [0, 1) reaches the target.
    """
    weights = np.asarray(layer_param_weights, dtype=np.float64)
    if weights.ndim != 1 or weights.size == 0 or np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError("layer_param_weights must be non-negative with positive sum")
    n = weights.size
    if variant == "uniform":
        if abs(global_target - r0) <= TOL.schedule_residual:
            return r0
        raise ValueError("uniform schedule cannot move the mean away from r0")

    def weighted_mean(rn: float) -> float:
        return float(np.average(schedule_ratios(n, r0, rn, variant), weights=weights))

    lo, hi = 0.0, math.nextafter(1.0, 0.0)
    if not weighted_mean(lo) - TOL.schedule_residual <= global_target <= weighted_mean(hi) + TOL.schedule_residual:
        raise ValueError(
            f"target {global_target} unreachable: mean range "
            f"[{weighted_mean(lo):.6f}, {weighted_mean(hi):.6f}] for r0={r0}"
        )
    for _ in range(200):
        mid = (lo + hi) / 2.0
        val = weighted_mean(mid)
        if abs(val - global_target) < TOL.schedule_residual:
            return mid
        if val < global_target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


@dataclass(frozen=True)
class PruneSchedule:
    """Frozen per-layer ratios with the variant that produced them.

    Ad-hoc ratio lists (e.g. pruning a single layer) use variant "custom".
    """

    ratios: tuple
    variant: str
    r_first: float
    r_last: float

    def __post_init__(self):
        if self.variant not in VARIANTS and self.variant != "custom":
            raise ValueError(f"unknown variant {self.variant!r}")
        if len(self.ratios) == 0:
            raise ValueError("schedule must cover at least one layer")
        if any(not 0.0 <= r < 1.0 for r in self.ratios):
            raise ValueError("all ratios must be in [0, 1)")

    @property
    def n_layers(self) -> int:
        return len(self.ratios)

    def reversed(self) -> "PruneSchedule":
        """Layer-order mirror (increase <-> decrease counterpart)."""
        flipped = {
            "log_increase": "log_decrease",
            "log_decrease": "log_increase",
            "linear_increase": "linear_decrease",
            "linear_decrease": "linear_increase",
            "uniform": "uniform",
            "custom": "custom",
        }[self.variant]
        return PruneSchedule(
            ratios=tuple(reversed(self.ratios)),
            variant=flipped,
            r_first=self.r_last,
            r_last=self.r_first,
        )


def build_schedule(
    n: int,
    variant: str = "log_increase",
    r0: float | None = None,
    rn: float | None = None,
    global_target: float | None = None,
    layer_param_weights=None,
) -> PruneSchedule:
    """Construct a schedule from endpoints or from a global parameter target.

    ``r0`` defaults to 0 and ``rn`` to ``r0``. With ``global_target`` set,
    ``rn`` is solved by bisection against the (optionally parameter-weighted)
    mean; the uniform variant pins every layer to the target, else to ``r0``.

    Raises:
        ValueError: on a setting the schedule would ignore: ``rn`` beside
            ``global_target``, or under ``uniform`` an ``r0`` beside
            ``global_target`` or an ``rn`` unequal to ``r0``; and on a
            variant, ratio or target the curve cannot take.
    """
    if rn is not None and global_target is not None:
        raise ValueError("rn is solved from global_target; set one of them, not both")
    if variant == "uniform" and r0 is not None and global_target is not None:
        raise ValueError("uniform schedule has one ratio; set r0 or global_target, not both")
    r0 = r0 if r0 is not None else 0.0
    if variant == "uniform":
        if rn is not None and rn != r0:
            raise ValueError(f"uniform schedule needs rn equal to r0, got {rn} and {r0}")
        value = global_target if global_target is not None else r0
        return PruneSchedule(
            ratios=tuple([value] * n), variant=variant, r_first=value, r_last=value
        )
    if global_target is not None:
        weights = layer_param_weights if layer_param_weights is not None else np.ones(n)
        rn = solve_last_ratio(global_target, r0, weights, variant)
    elif rn is None:
        rn = r0
    ratios = tuple(ratio_at(i, n, r0, rn, variant) for i in range(n))
    return PruneSchedule(ratios=ratios, variant=variant, r_first=r0, r_last=rn)
