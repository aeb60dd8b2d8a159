"""FFN channel pruning with a decaying per-iteration group size.

Channels carry no block constraint, so channel pruning is
``obs_core.greedy_prune`` over one-column blocks; the group schedule trades
how often errors are re-estimated against speed. Selection within a group
uses the estimates from the start of the group, and the whole group is
then removed by one exact block-OBS step, which pays the same per-column
errors as removing it column by column.
"""

from dataclasses import dataclass

import numpy as np

from .obs_core import PruneResult, greedy_prune


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


def prune_channels(w: np.ndarray, h_inv: np.ndarray, n_prune: int,
                   sched: GroupSchedule) -> PruneResult:
    """Remove ``n_prune`` channels (columns) of ``w`` under the group schedule.

    ``greedy_prune`` over one-column blocks in rounds of ``group_sizes``:
    each group takes the k cheapest live columns by the estimates from the
    start of the group (ties to the lowest original index) and removes them
    with one ``remove_block`` call, downdating ``h_inv`` in place.
    """
    return greedy_prune(w, h_inv, 1, group_sizes(n_prune, sched))
