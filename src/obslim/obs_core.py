"""Batched greedy pruning of column blocks, and the exact oracles it is tested against.

Heads are blocks of ``d_head`` columns and FFN channels are blocks of one
column; both are pruned by ``greedy_prune``, which scores every live block
with ``block_errors`` and removes the cheapest ones with the exact block-OBS
step ``linalg.remove_block`` (the group OBS step of OBC). The module also
carries the two independent oracles used throughout the test suite: the
closed-form least-squares solution for a fixed column mask and exhaustive
subset search.
"""

import math
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import NotSpdError
from .linalg import SpdMatrix, grouped_cholesky, remove_block

# Exhaustive search refuses to enumerate more subsets than this.
ENUMERATION_GUARD = 100_000


def block_errors(w: np.ndarray, h_inv: np.ndarray, width: int, alive=None) -> np.ndarray:
    """Estimated removal error of every live block of ``width`` columns, in block order.

    Each diagonal block of ``h_inv`` is factored on its own
    (``grouped_cholesky``), and ``err[b] = sum over the block's columns j and
    all rows of w[:, j]**2 / L_b[j, j]**2``: the squared factor diagonal
    stands in for the inverse-Hessian diagonal that sequential removal would
    update. At ``width == 1`` this is the exact single-column OBS error
    ``sum(w[:, p]**2) / h_inv[p, p]``. With the survivor mask ``alive`` of
    ``remove_block``, only whole live blocks are scored.

    Raises:
        ValueError: if the shapes disagree or ``width`` does not divide them.
        NotSpdError: if a live block of ``h_inv`` is not positive definite.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or np.shape(h_inv) != (w.shape[1],) * 2:
        raise ValueError(f"weight shape {w.shape} inconsistent with h_inv {np.shape(h_inv)}")
    factors = grouped_cholesky(h_inv, width, alive)
    denom = factors.diagonal(axis1=1, axis2=2) ** 2  # (live blocks, width)
    per_col = (w * w).sum(axis=0).reshape(-1, width)
    if alive is not None:
        per_col = per_col[alive.reshape(-1, width).all(axis=1)]
    return (per_col / denom).sum(axis=1)


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


def greedy_prune(w: np.ndarray, h_inv: np.ndarray, width: int, sizes) -> PruneResult:
    """Remove ``sum(sizes)`` blocks of ``width`` columns, ``sizes[r]`` of them in round ``r``.

    Each round scores the live blocks on the current (already compensated)
    weights, takes the ``k`` cheapest (a stable sort: ties go to the lowest
    block index) and removes their columns, in ascending estimated-error
    order, with one ``remove_block`` call. ``w`` is copied; ``h_inv``, the
    inverse Hessian from ``invert_spd``, is downdated in place. The weights
    are compacted through the survivor mask once, at the end, into the
    returned ``PruneResult``.

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
    for k in sizes:
        live = np.flatnonzero(alive[::width])
        picked = live[np.argsort(block_errors(w, h_inv, width, alive), kind="stable")[:k]]
        cols = (picked[:, None] * width + np.arange(width)).ravel()
        rounds.append((cols, remove_block(w, h_inv, cols, alive)))
    return PruneResult(w[:, alive], np.flatnonzero(alive), rounds)


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


def brute_force_best_columns(w: np.ndarray, h: SpdMatrix, k: int):
    """Exhaustively find the k columns whose removal costs least.

    Returns ``(removed, error)`` where ``removed`` is the lexicographically
    first optimal index tuple and ``error`` the exact residual of the
    optimally compensated complement.

    Raises:
        ValueError: if the number of k-subsets exceeds ``ENUMERATION_GUARD``.
    """
    w = np.asarray(w, dtype=np.float64)
    d = w.shape[1]
    if not 0 <= k <= d:
        raise ValueError(f"cannot remove {k} of {d} columns")
    if math.comb(d, k) > ENUMERATION_GUARD:
        raise ValueError(
            f"enumeration guard exceeded: C({d},{k}) = {math.comb(d, k)} subsets"
        )
    all_cols = np.arange(d)
    best_removed = None
    best_err = np.inf
    for removed in combinations(range(d), k):
        kept = np.setdiff1d(all_cols, removed, assume_unique=True)
        err = mask_residual(w, h, kept)
        if err < best_err:
            best_err = err
            best_removed = removed
    return best_removed, float(best_err)
