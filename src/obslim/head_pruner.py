"""Greedy attention-head pruning on the output-projection matrix.

Heads are contiguous, equal-width column blocks, so head pruning is
``obs_core.greedy_prune`` with blocks of ``d_head`` columns, one head per
round: every round scores the surviving heads from per-block Cholesky
factors of the inverse Hessian (``block_errors``) and removes the cheapest
with one exact, in-place block-OBS step that compensates everything that
survives. The kept heads are ``kept_columns[::d_head] // d_head``.
"""

import numpy as np

from .ffn_pruner import GroupSchedule, group_sizes
from .obs_core import PruneResult, greedy_prune


def prune_heads(w: np.ndarray, h_inv: np.ndarray, d_head: int, n_prune: int) -> PruneResult:
    """Remove ``n_prune`` heads of ``d_head`` columns, one per round, cheapest estimated head first.

    ``greedy_prune`` over blocks of ``d_head`` columns under the group
    schedule that stays at 1: each round re-scores the surviving heads on
    the compensated weights and removes the cheapest (ties break to the
    lowest head index), downdating ``h_inv`` in place.
    """
    return greedy_prune(w, h_inv, d_head, group_sizes(n_prune, GroupSchedule(1, 1)))
