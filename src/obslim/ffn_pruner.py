"""FFN channel pruning: ``greedy_prune`` over one-column blocks in rounds of ``group_sizes``.

``prune_channels`` is ``prune_model``'s call, not public API: it stays a named
function only because the benchmark's tracer binds it (until ROADMAP item 1).
"""

import numpy as np

from .obs_core import PruneResult, greedy_prune, group_sizes


def prune_channels(w: np.ndarray, h_inv: np.ndarray, n_prune: int,
                   group_start: int, group_min: int) -> PruneResult:
    """Remove ``n_prune`` channels (columns) of ``w`` in the rounds of ``group_sizes``.

    Each round takes the k cheapest live columns by the estimates from the
    start of the round (ties to the lowest original index) and removes them
    with one exact block-OBS step. ``h_inv`` is scratch: its contents
    afterwards are unspecified (``greedy_prune``).
    """
    return greedy_prune(w, h_inv, 1, group_sizes(n_prune, group_start, group_min))
