"""Greedy attention-head pruning on the output-projection matrix.

Heads are contiguous, equal-width column blocks, so head pruning is
``obs_core.greedy_prune`` with blocks of ``d_head`` columns, one head per
round: every round scores the surviving heads from per-block Cholesky
factors of the inverse Hessian (``block_errors``) and removes the cheapest
with one exact, in-place block-OBS step that compensates everything that
survives.
"""

from dataclasses import dataclass

import numpy as np

from .ffn_pruner import GroupSchedule, group_sizes
from .obs_core import greedy_prune


@dataclass(frozen=True)
class HeadLayout:
    """Maps head indices to contiguous column ranges."""

    n_head: int
    d_head: int

    def __post_init__(self):
        if self.n_head < 1 or self.d_head < 1:
            raise ValueError(f"invalid layout: {self.n_head} heads x {self.d_head}")

    @property
    def n_cols(self) -> int:
        return self.n_head * self.d_head

    def col_range(self, head: int) -> range:
        if not 0 <= head < self.n_head:
            raise ValueError(f"head {head} out of range for {self.n_head} heads")
        return range(head * self.d_head, (head + 1) * self.d_head)


@dataclass
class HeadPruneResult:
    """Outcome of head pruning.

    ``step_error_sum`` accumulates the exact per-column errors actually
    paid while pruning, one ``remove_block`` call (one head) per round.
    """

    pruned_w: np.ndarray
    kept_heads: list[int]
    kept_columns: np.ndarray
    total_rounds: int
    step_error_sum: float


def prune_heads(w: np.ndarray, h_inv: np.ndarray, layout: HeadLayout,
                n_prune: int) -> HeadPruneResult:
    """Remove ``n_prune`` heads, one per round, cheapest estimated head first.

    ``greedy_prune`` over blocks of ``d_head`` columns under the group
    schedule that stays at 1: each round re-scores the surviving heads on
    the compensated weights and removes the cheapest (ties break to the
    lowest head index), downdating ``h_inv`` in place.
    """
    if np.shape(h_inv) != (layout.n_cols,) * 2:
        raise ValueError(f"inverse Hessian shape {np.shape(h_inv)} inconsistent with {layout}")
    d = layout.d_head
    pruned_w, kept, rounds = greedy_prune(w, h_inv, d, group_sizes(n_prune, GroupSchedule(1, 1)))
    return HeadPruneResult(pruned_w=pruned_w, kept_heads=(kept[::d] // d).tolist(),
                           kept_columns=kept, total_rounds=len(rounds),
                           step_error_sum=sum(float(steps.sum()) for _, steps in rounds))
