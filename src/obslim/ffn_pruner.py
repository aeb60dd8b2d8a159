"""FFN channel pruning with a decaying per-iteration group size.

Channels carry no block constraint, so pruning is plain greedy column
removal; the group schedule trades how often errors are re-estimated
against speed. Selection within a group uses the estimates from the start
of the group, and the whole group is then removed by one exact block-OBS
step, which pays the same per-column errors as removing it column by
column.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import remove_block
from .obs_core import column_errors


@dataclass(frozen=True)
class GroupSchedule:
    """Group-size decay: start large, halve after each group, floor at min_size."""

    start_size: int = 1024
    min_size: int = 8

    def __post_init__(self):
        if not 1 <= self.min_size <= self.start_size:
            raise ValueError(
                f"need 1 <= min_size <= start_size, got {self.min_size}, {self.start_size}"
            )


def group_sizes(total_to_prune: int, sched: GroupSchedule) -> list[int]:
    """Emit the per-iteration group sizes for a total removal count.

    The list is non-increasing, sums exactly to ``total_to_prune``, halves
    from ``start_size`` down to ``min_size`` and pads with ``min_size``
    (the last entry truncated to the remainder).
    """
    if total_to_prune < 0:
        raise ValueError(f"total_to_prune must be >= 0, got {total_to_prune}")
    sizes = []
    remaining = total_to_prune
    size = sched.start_size
    while remaining > 0:
        take = min(size, remaining)
        sizes.append(take)
        remaining -= take
        size = max(size // 2, sched.min_size)
    return sizes


def prune_channels(w: np.ndarray, h_inv: np.ndarray, n_prune: int, sched: GroupSchedule):
    """Remove ``n_prune`` channels (columns) of ``w`` under the group schedule.

    Per group: estimate all live column errors once, pick the group's k
    cheapest (ties to the lowest original index), then remove them in
    ascending estimated-error order with one ``remove_block`` call, in place
    on ``w`` and on ``h_inv``, the inverse Hessian from ``invert_spd``; ``w``
    is compacted through the survivor mask once, at the end. Returns
    ``(pruned_w, kept, step_errors)`` with the kept columns in original
    order and one ``(original column, error)`` pair per removal.
    """
    w = np.array(w, dtype=np.float64, order="C")
    if w.ndim != 2 or np.shape(h_inv) != (w.shape[1],) * 2:
        raise ValueError(f"weight shape {w.shape} inconsistent with h_inv {np.shape(h_inv)}")
    if not 0 <= n_prune < w.shape[1]:
        raise ValueError(f"cannot prune {n_prune} of {w.shape[1]} channels")
    alive = np.ones(w.shape[1], dtype=bool)
    step_errors = []
    for k in group_sizes(n_prune, sched):
        order = np.flatnonzero(alive)[np.argsort(column_errors(w, h_inv, alive), kind="stable")[:k]]
        steps = remove_block(w, h_inv, order, alive)
        step_errors.extend(zip(order.tolist(), steps.tolist()))
    return w[:, alive], np.flatnonzero(alive).tolist(), step_errors
