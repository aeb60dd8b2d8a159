"""Greedy attention-head pruning on the output-projection matrix.

Heads are contiguous, equal-width column blocks, so head pruning is
``obs_core.greedy_prune`` with blocks of ``d_head`` columns, one head per
round. The kept heads are ``kept_columns[::d_head] // d_head``.
``prune_heads`` is ``prune_model``'s call, not public API: it stays a named
function only because the benchmark's tracer binds it (until ROADMAP item 1).
"""

import numpy as np

from .obs_core import PruneResult, greedy_prune, group_sizes


def prune_heads(w: np.ndarray, h_inv: np.ndarray, d_head: int, n_prune: int) -> PruneResult:
    """Remove ``n_prune`` heads of ``d_head`` columns, one per round, cheapest estimated head first.

    The rounds are ``group_sizes`` at size 1, so a negative ``n_prune``
    raises. Each round re-scores the surviving heads on the compensated
    weights and removes the cheapest (ties break to the lowest head index).
    ``h_inv`` is scratch: its contents afterwards are unspecified
    (``greedy_prune``).
    """
    return greedy_prune(w, h_inv, d_head, group_sizes(n_prune, 1, 1))
