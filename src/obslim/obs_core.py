"""Column scoring and the exact oracles for column pruning.

``column_errors`` scores every column for removal; ``linalg.remove_block``
then removes the chosen columns with exact compensation. The module also
carries the two independent oracles used throughout the test suite: the
closed-form least-squares solution for a fixed column mask and exhaustive
subset search.
"""

import math
from itertools import combinations

import numpy as np

from .errors import NotSpdError
from .linalg import SpdMatrix

# Exhaustive search refuses to enumerate more subsets than this.
ENUMERATION_GUARD = 100_000


def column_errors(w: np.ndarray, h_inv: np.ndarray, alive=None) -> np.ndarray:
    """Pruning error of each column: squared norm over the inverse-Hessian diagonal.

    ``err[p] = sum(w[:, p]**2) / h_inv[p, p]`` is the exact increase of the
    reconstruction objective if column ``p`` alone were removed now.
    ``h_inv`` is a symmetric float64 array; with the survivor mask ``alive``
    of ``remove_block``, only the live columns are scored.
    """
    w = np.asarray(w, dtype=np.float64)
    diag = np.diag(h_inv)
    if w.ndim != 2 or w.shape[1] != diag.size:
        raise ValueError(
            f"weight shape {w.shape} inconsistent with inverse Hessian dim {diag.size}"
        )
    live = slice(None) if alive is None else alive
    if np.any(diag[live] <= 0.0):
        raise NotSpdError("non-positive diagonal entry in inverse Hessian")
    return (w * w).sum(axis=0)[live] / diag[live]


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
