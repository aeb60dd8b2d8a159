"""Layer-wise pruning-ratio assignment.

The default curve raises the ratio logarithmically with depth, so shallow
layers (whose reconstruction errors compound through every later layer)
are pruned gently and deep layers carry more of the budget. Linear and
mirrored (decreasing) variants plus a flat schedule exist for comparison.
Every curve interpolates between its exact endpoints ``r0`` and ``rn``, so
a global target is met by solving the affine mean for ``rn`` in closed form.
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

    Every curve is ``r0 * (1 - u) + rn * u``, ``u = log(i+1)/log(n)`` (log;
    the base cancels) or ``i/(n-1)`` (linear). A decrease variant is its
    increase curve read from the other end, ``ratio_at(n-1-i, n, rn, r0,
    "X_increase")``, so ``ratio_at(0) == r0`` and ``ratio_at(n-1) == rn``
    bit for bit and every ratio lies between them.
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
    if r0 == rn:  # flat: the interpolation below can round off r0 in between
        return r0
    if variant.endswith("_decrease"):
        i, r0, rn = n - 1 - i, rn, r0
    u = math.log(i + 1) / math.log(n) if variant.startswith("log") else i / (n - 1)
    return r0 * (1 - u) + rn * u


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

    The weighted mean is affine in ``rn``: from its values ``m0`` at
    ``rn = 0`` and ``m1`` at the largest ratio below 1, ``rn`` is solved in
    closed form and clipped to that range, so a target up to
    ``TOL.schedule_residual`` outside ``[m0, m1]`` gets the nearer end. If
    the mean does not depend on ``rn`` (all weight on layer 0), ``rn = r0``.

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
    hi = math.nextafter(1.0, 0.0)
    m0, m1 = (float(np.average(schedule_ratios(n, r0, rn, variant), weights=weights))
              for rn in (0.0, hi))
    if not m0 - TOL.schedule_residual <= global_target <= m1 + TOL.schedule_residual:
        raise ValueError(
            f"target {global_target} unreachable: mean range [{m0:.6f}, {m1:.6f}] for r0={r0}"
        )
    if m1 == m0:
        return r0
    return min(max(hi * (global_target - m0) / (m1 - m0), 0.0), hi)


@dataclass(frozen=True)
class PruneSchedule:
    """Frozen per-layer ratios with the variant that produced them.

    Ad-hoc ratio lists (e.g. pruning a single layer) use variant "custom".
    """

    ratios: tuple
    variant: str

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


def build_schedule(
    n: int,
    variant: str = "log_increase",
    r0: float | None = None,
    rn: float | None = None,
    global_target: float | None = None,
    layer_param_weights=None,
) -> PruneSchedule:
    """Construct a schedule from endpoints or from a global parameter target.

    ``r0`` defaults to 0 and ``rn`` to ``r0``; the first and last ratios are
    exactly ``r0`` and ``rn``. With ``global_target`` set, ``rn`` is solved
    in closed form against the (optionally parameter-weighted) mean; the
    uniform variant pins every layer to the target, else to ``r0``. The
    layer-order mirror of a schedule ``s`` is
    ``build_schedule(n, "X_decrease", r0=s.ratios[-1], rn=s.ratios[0])``.

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
        return PruneSchedule(ratios=tuple([value] * n), variant=variant)
    if global_target is not None:
        weights = layer_param_weights if layer_param_weights is not None else np.ones(n)
        rn = solve_last_ratio(global_target, r0, weights, variant)
    elif rn is None:
        rn = r0
    ratios = tuple(ratio_at(i, n, r0, rn, variant) for i in range(n))
    return PruneSchedule(ratios=ratios, variant=variant)
