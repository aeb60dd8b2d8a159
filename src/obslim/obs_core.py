"""Batched greedy pruning of column blocks, and the least-squares oracle it is tested against.

Heads are blocks of ``d_head`` columns and FFN channels are blocks of one
column; both are pruned by ``greedy_prune``, which scores every live block
with ``block_errors`` (a grouped Cholesky of the inverse Hessian's diagonal
blocks) and removes the cheapest ones with the exact block-OBS step
``linalg.remove_block`` (the group OBS step of OBC), in rounds whose sizes
``group_sizes`` gives. The module also carries the oracle that the
tests and the benchmark's gate compare against: the closed-form
least-squares solution for a fixed column mask, and its residual.
"""

from typing import NamedTuple

import numpy as np

from .errors import NotSpdError
from .linalg import SpdMatrix, _block_solve, remove_block


def block_errors(w: np.ndarray, h_inv: np.ndarray, width: int, alive=None) -> np.ndarray:
    """Estimated removal error of every live block of ``width`` columns, in block order.

    Each diagonal block of ``h_inv`` is factored on its own, in one batched
    Cholesky (grouped Cholesky), and ``err[b] = sum over the block's columns
    j and all rows of w[:, j]**2 / L_b[j, j]**2``: the squared factor
    diagonal stands in for the inverse-Hessian diagonal that sequential
    removal would update. At ``width == 1`` this is the exact single-column
    OBS error ``sum(w[:, p]**2) / h_inv[p, p]``. With the survivor mask
    ``alive`` of ``remove_block``, only whole live blocks are factored and
    scored, with the same bits as on the compacted arrays.

    Raises:
        ValueError: if the shapes disagree or ``width`` does not divide them.
        NotSpdError: if a live block of ``h_inv`` is not positive definite.
    """
    w = np.ascontiguousarray(w, dtype=np.float64)
    if w.ndim != 2 or np.shape(h_inv) != (w.shape[1],) * 2:
        raise ValueError(f"weight shape {w.shape} inconsistent with h_inv {np.shape(h_inv)}")
    if width < 1 or w.shape[1] % width:
        raise ValueError(f"dimension {w.shape[1]} not divisible by block width {width}")
    live = slice(None) if alive is None else alive.reshape(-1, width).all(axis=1)
    cols = np.arange(w.shape[1]).reshape(-1, width)[live]
    try:
        factors = np.linalg.cholesky(h_inv[cols[:, :, None], cols[:, None, :]])
    except np.linalg.LinAlgError as exc:
        raise NotSpdError(f"not SPD: a diagonal block failed Cholesky ({exc})") from exc
    denom = factors.diagonal(axis1=1, axis2=2) ** 2  # (live blocks, width)
    sq = w * w  # np.sum adds the rows of a C-order w in order, but of one column pairwise
    per_col = sq.sum(axis=0) if w.shape[1] > 1 else sum(sq, np.zeros(1))
    return (per_col.reshape(-1, width)[live] / denom).sum(axis=1)


class PruneResult(NamedTuple):
    """Outcome of ``greedy_prune``: the compacted weights, the kept columns in
    original order, and one ``(columns, step_errors)`` pair per round."""

    pruned_w: np.ndarray
    kept_columns: np.ndarray
    rounds: list

    @property
    def total_rounds(self) -> int:
        return len(self.rounds)

    @property
    def step_error_sum(self) -> float:
        """The exact error paid over all removals, summed in removal order."""
        return sum((err for _, steps in self.rounds for err in steps.tolist()), 0.0)


def group_sizes(total: int, group_start: int, group_min: int) -> list[int]:
    """The round sizes of the Dynamic Group Size rule for ``total`` removals.

    Start at ``group_start``, halve after each round, never go below
    ``group_min``, and truncate the last round to what remains: the list is
    non-increasing and sums exactly to ``total``.

    Raises:
        ValueError: unless ``1 <= group_min <= group_start`` and ``total >= 0``.
    """
    if not 1 <= group_min <= group_start:
        raise ValueError(
            f"need 1 <= group_min <= group_start, got group_min {group_min}, "
            f"group_start {group_start}"
        )
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    sizes, size = [], group_start
    while total > 0:
        sizes.append(min(size, total))
        total -= sizes[-1]
        size = max(size // 2, group_min)
    return sizes


def greedy_prune(w: np.ndarray, h_inv: np.ndarray, width: int, sizes) -> PruneResult:
    """Remove ``sum(sizes)`` blocks of ``width`` columns, ``sizes[r]`` of them in round ``r``.

    Each round scores the live blocks on the current (already compensated)
    weights, takes the ``k`` cheapest (a stable sort: ties go to the lowest
    block index) and removes their columns, in ascending estimated-error
    order, with one exact block-OBS step: an in-place ``remove_block`` call,
    except in the last round, which solves only for the survivors' weights
    that the returned ``PruneResult`` holds. ``w`` is copied; ``h_inv``, the
    inverse Hessian from ``invert_spd``, is scratch, unspecified afterwards.

    This is the paper's Batched Greedy Pruning. Heads are blocks of
    ``d_head`` columns removed one per round (``sizes`` all 1); FFN channels
    are one-column blocks removed in the rounds of its Dynamic Group Size,
    ``group_sizes``, which trades how often the errors are re-estimated
    against speed. A round's whole group is removed by one exact block-OBS
    step, which pays the same per-column errors as removing it column by
    column.

    Raises:
        ValueError: if the shapes disagree, ``width`` does not divide them, a
            size is below 1, or the sizes leave no block.
    """
    w = np.array(w, dtype=np.float64, order="C")
    if w.ndim != 2 or np.shape(h_inv) != (w.shape[1],) * 2:
        raise ValueError(f"weight shape {w.shape} inconsistent with h_inv {np.shape(h_inv)}")
    if width < 1 or w.shape[1] % width:
        raise ValueError(f"dimension {w.shape[1]} not divisible by block width {width}")
    sizes, n_blocks = list(sizes), w.shape[1] // width
    if any(k < 1 for k in sizes) or sum(sizes) >= n_blocks:
        raise ValueError(f"cannot prune {sum(sizes)} of {n_blocks} blocks in rounds of sizes >= 1")
    alive = np.ones(w.shape[1], dtype=bool)
    rounds = []
    for r, k in enumerate(sizes, 1):
        live = np.flatnonzero(alive[::width])
        picked = live[np.argsort(block_errors(w, h_inv, width, alive), kind="stable")[:k]]
        cols = (picked[:, None] * width + np.arange(width)).ravel()
        if r == len(sizes):  # nothing reads h_inv or a dead column after the last round
            alive[cols] = False
            q_t, c, steps = _block_solve(w, h_inv, cols, alive)
            w = np.subtract(w[:, alive], q_t.T @ c, order="C")
        else:
            steps = remove_block(w, h_inv, cols, alive)
        rounds.append((cols, steps))
    return PruneResult(w, np.flatnonzero(alive), rounds)


def least_squares_oracle(w: np.ndarray, h: SpdMatrix, kept) -> np.ndarray:
    """Exact minimizer of the reconstruction error for a fixed column mask.

    Returns ``W @ H[:, kept] @ inv(H[kept, kept])``, the unique weights over
    the kept columns minimizing ``||W X - W_hat X[kept]||^2`` for any
    features X with ``X X^T`` proportional to H. Output columns follow the
    order of ``kept``.
    """
    w = np.asarray(w, dtype=np.float64)
    kept = np.asarray(kept, dtype=np.intp)
    if kept.size == 0:
        return np.zeros((w.shape[0], 0))
    h_k = h.a[:, kept]
    h_kk = h.a[np.ix_(kept, kept)]
    try:
        return np.linalg.solve(h_kk, (w @ h_k).T).T
    except np.linalg.LinAlgError as exc:
        raise NotSpdError(f"kept-column block of the Hessian is singular ({exc})") from exc


def mask_residual(w: np.ndarray, h: SpdMatrix, kept) -> float:
    """Reconstruction error of the optimally compensated mask.

    Evaluates ``||W X - W_hat X[kept]||^2`` (with ``H = X X^T``) at the
    least-squares optimum without needing X itself.
    """
    w = np.asarray(w, dtype=np.float64)
    kept = np.asarray(kept, dtype=np.intp)
    total = float(np.einsum("ij,jk,ik->", w, h.a, w))
    if kept.size == 0:
        return total
    w_hat = least_squares_oracle(w, h, kept)
    captured = float(np.einsum("ij,ij->", w_hat, w @ h.a[:, kept]))
    return total - captured
