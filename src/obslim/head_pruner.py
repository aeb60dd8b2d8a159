"""Greedy attention-head pruning on the output-projection matrix.

Heads are contiguous, equal-width column blocks. Each round estimates the
removal error of every surviving head at once from per-block Cholesky
factors of the inverse Hessian, then removes the cheapest head with one
exact, in-place block-OBS step that compensates everything that survives.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import grouped_cholesky, remove_block


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
    """Outcome of the outer pruning loop.

    ``head_errors_per_round[r, h]`` is the estimated error of head ``h`` at
    round ``r`` (NaN once a head is gone). ``step_error_sum`` accumulates
    the exact per-column errors actually paid while pruning.
    """

    pruned_w: np.ndarray
    kept_heads: list[int]
    kept_columns: np.ndarray
    head_errors_per_round: np.ndarray
    total_rounds: int
    step_error_sum: float


def head_errors(w: np.ndarray, h_inv: np.ndarray, layout: HeadLayout, alive=None) -> np.ndarray:
    """Estimated removal error of every live head, without touching the weights.

    Each head's block of the inverse Hessian is factored on its own; the
    squared factor diagonals play the role the updated inverse-Hessian
    diagonal would play under sequential column removal, so
    ``err[h] = sum over the head's columns j and all rows of
    w[:, j]**2 / L_h[j, j]**2``. Weight compensation is skipped during
    estimation. ``h_inv`` is a symmetric float64 array; with the survivor
    mask ``alive`` of ``remove_block``, only whole live heads are scored.
    """
    w = np.asarray(w, dtype=np.float64)
    n = h_inv.shape[0]
    if w.ndim != 2 or w.shape[1] != layout.n_cols or n != layout.n_cols:
        raise ValueError(
            f"inconsistent dims: w {w.shape}, h_inv {n}, "
            f"layout {layout.n_head}x{layout.d_head}"
        )
    factors = grouped_cholesky(h_inv, layout.d_head, alive)
    denom = factors.diagonal(axis1=1, axis2=2) ** 2  # (live heads, d_head)
    per_col = (w * w).sum(axis=0).reshape(layout.n_head, layout.d_head)
    if alive is not None:
        per_col = per_col[alive.reshape(layout.n_head, -1).all(axis=1)]
    return (per_col / denom).sum(axis=1)


def prune_heads(
    w: np.ndarray,
    h_inv: np.ndarray,
    layout: HeadLayout,
    n_prune: int,
) -> HeadPruneResult:
    """Remove ``n_prune`` heads, one per round, cheapest estimated head first.

    Each round re-estimates all surviving heads on the current (already
    compensated) weights and removes the argmin (ties break to the lowest
    head index) with one ``remove_block`` call, which downdates ``h_inv`` in
    place; the weights are compacted through the survivor mask once, at the end.
    """
    if not 0 <= n_prune < layout.n_head:
        raise ValueError(f"cannot prune {n_prune} of {layout.n_head} heads")
    work = np.array(w, dtype=np.float64, order="C")
    if work.ndim != 2 or work.shape[1] != layout.n_cols or np.shape(h_inv) != (layout.n_cols,) * 2:
        raise ValueError("weight / inverse Hessian dims inconsistent with layout")

    d = layout.d_head
    alive = np.ones(layout.n_cols, dtype=bool)
    errors_per_round = np.full((n_prune, layout.n_head), np.nan)
    step_error_sum = 0.0

    for rnd in range(n_prune):
        live_heads = np.flatnonzero(alive[::d])
        errs = head_errors(work, h_inv, layout, alive)
        errors_per_round[rnd, live_heads] = errs
        cols = live_heads[np.argmin(errs)] * d + np.arange(d)
        steps = remove_block(work, h_inv, cols, alive)
        step_error_sum += float(steps.sum())

    return HeadPruneResult(
        pruned_w=work[:, alive],
        kept_heads=np.flatnonzero(alive[::d]).tolist(),
        kept_columns=np.flatnonzero(alive),
        head_errors_per_round=errors_per_round,
        total_rounds=n_prune,
        step_error_sum=step_error_sum,
    )
