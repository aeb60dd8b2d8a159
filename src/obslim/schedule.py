"""Layer-wise pruning-ratio assignment.

The default curve raises the ratio logarithmically with depth, so shallow
layers (whose reconstruction errors compound through every later layer)
are pruned gently and deep layers carry more of the budget. Linear and
mirrored (decreasing) variants plus a flat schedule exist for comparison.
``build_schedule`` is the one way to the ratios: layer ``i`` of ``n`` gets
``r0 * (1 - u) + rn * u``, ``u`` rising from 0 to 1 as ``log(i+1)/log(n)``
or ``i/(n-1)`` (a decrease variant reads its increase curve from the other
end), so the first and last ratios are exactly ``r0`` and ``rn``. The mean
ratio, weighted by one parameter count per layer, is affine in ``rn``, so a
global target sets ``rn`` in closed form.
"""

import math
from dataclasses import dataclass

import numpy as np

# slack on the reachable range of a global target's mean ratio
_TARGET_SLACK = 1e-6

VARIANTS = (
    "log_increase",
    "linear_increase",
    "uniform",
    "log_decrease",
    "linear_decrease",
)


def counts_from_ratio(r: float, units: int) -> int:
    """Units to prune for a fractional ratio; at least one unit survives."""
    if units < 1:
        raise ValueError(f"units must be >= 1, got {units}")
    if not 0.0 <= r < 1.0:
        raise ValueError(f"ratio must be in [0, 1), got {r}")
    return max(0, min(int(round(r * units)), units - 1))


def _curve(n: int, variant: str, r0: float, rn: float) -> list:
    """The ``n >= 2`` ratios of a log or linear variant from ``r0`` to ``rn``."""
    if r0 == rn:  # flat: the interpolation below can round off r0 in between
        return [r0] * n
    if variant.endswith("_decrease"):
        return _curve(n, variant.replace("_decrease", "_increase"), rn, r0)[::-1]
    if variant.startswith("log"):
        us = (math.log(i + 1) / math.log(n) for i in range(n))
    else:
        us = (i / (n - 1) for i in range(n))
    return [r0 * (1 - u) + rn * u for u in us]


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

    ``r0`` defaults to 0 and ``rn`` to ``r0``. Every log or linear curve is
    ``r0 * (1 - u) + rn * u``, with ``u = log(i+1)/log(n)`` (log; the base
    cancels) or ``i/(n-1)`` (linear) at layer ``i``; a decrease variant is
    its increase curve read from the other end, so the first and last
    ratios are exactly ``r0`` and ``rn`` and every ratio lies between them.
    The layer-order mirror of a schedule ``s`` is
    ``build_schedule(n, "X_decrease", r0=s.ratios[-1], rn=s.ratios[0])``.

    With ``global_target`` set, ``rn`` is solved for it: the mean ratio,
    weighted by ``layer_param_weights`` (one non-negative weight per layer,
    equal weights if None; read only here), is affine in ``rn``, so from
    its values ``m0`` at ``rn = 0`` and ``m1`` at the largest ratio below 1
    ``rn`` follows in closed form, clipped to that range. A target up to
    ``_TARGET_SLACK`` outside ``[m0, m1]`` gets the nearer end, and
    a mean that does not depend on ``rn`` (all weight on layer 0) gets
    ``rn = r0``. The uniform variant, and every variant on a 1-layer
    model, has one ratio: the target if set, else ``r0``.

    Raises:
        ValueError: on a setting the schedule would ignore: ``rn`` beside
            ``global_target``, or with one ratio an ``r0`` beside
            ``global_target`` or an ``rn`` unequal to ``r0``; on weights
            that are not one per layer; and on a variant, ratio or target
            the curve cannot take.
    """
    if rn is not None and global_target is not None:
        raise ValueError("rn is solved from global_target; set one of them, not both")
    one_ratio = variant == "uniform" or n == 1  # every layer's, or the only layer's
    if one_ratio and r0 is not None and global_target is not None:
        raise ValueError("one-ratio schedule: set r0 or global_target, not both")
    r0 = r0 if r0 is not None else 0.0
    if one_ratio:
        if rn is not None and rn != r0:
            raise ValueError(f"one-ratio schedule needs rn equal to r0, got {rn} and {r0}")
        value = global_target if global_target is not None else r0
        return PruneSchedule(ratios=tuple([value] * n), variant=variant)
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    for name, val in (("r0", r0), ("rn", rn)):
        if val is not None and not 0.0 <= val < 1.0:
            raise ValueError(f"{name} must be in [0, 1), got {val}")
    if global_target is not None:
        weights = (np.ones(n) if layer_param_weights is None
                   else np.asarray(layer_param_weights, dtype=np.float64))
        if weights.shape != (n,):
            raise ValueError(f"need one layer_param_weights entry per layer: "
                             f"shape {weights.shape} for {n} layers")
        if np.any(weights < 0) or weights.sum() <= 0:
            raise ValueError("layer_param_weights must be non-negative with positive sum")
        hi = math.nextafter(1.0, 0.0)
        m0, m1 = (float(np.average(_curve(n, variant, r0, end), weights=weights))
                  for end in (0.0, hi))
        if not m0 - _TARGET_SLACK <= global_target <= m1 + _TARGET_SLACK:
            raise ValueError(
                f"target {global_target} unreachable: mean range [{m0:.6f}, {m1:.6f}] for r0={r0}"
            )
        rn = r0 if m1 == m0 else min(max(hi * (global_target - m0) / (m1 - m0), 0.0), hi)
    elif rn is None:
        rn = r0
    return PruneSchedule(ratios=tuple(_curve(n, variant, r0, rn)), variant=variant)
