"""Dense symmetric-positive-definite linear algebra.

Everything the pruning kernels need from an SPD matrix lives here:
inversion from one Cholesky factorization, and the block-OBS kernel that
removes a set of columns from a weight matrix and its inverse Hessian in
one solve. Block scoring (``obs_core.block_errors``) factors its own blocks.

A Hessian is a plain float64 array, checked where it enters the public API
(``invert_spd`` and the oracles of ``obs_core``); inverses are plain arrays
too, which ``remove_block`` downdates in place and the pruners consume.
Identical inputs give identical bits.
"""

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dpotrf, dpotri

from .errors import NotSpdError

# asymmetry a Hessian may have, relative to max(1, its largest |entry|)
_MAX_ASYMMETRY = 1e-9


class SpdMatrix:
    """A placeholder obslim never builds; ``perfbench/spans.py`` binds its ``__init__``."""

    def __init__(self, data):
        raise TypeError("pass the Hessian as a plain array")


def _check_hessian(h) -> np.ndarray:
    """``h`` as a new float64 array (h + h^T)/2; ``ValueError`` unless it is square,
    finite and symmetric within ``_MAX_ASYMMETRY`` of max(1, its largest |entry|)."""
    a = np.asarray(h, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    scale = max(1.0, float(np.abs(a).max()))
    buf = a - a.T  # the one n x n buffer: the asymmetry, then the result
    asym = float(np.abs(buf, out=buf).max())
    if asym > _MAX_ASYMMETRY * scale:
        raise ValueError(
            f"matrix is not symmetric: max asymmetry {asym:.3e} "
            f"exceeds {_MAX_ASYMMETRY:.0e} relative tolerance"
        )
    return np.divide(np.add(a, a.T, out=buf), 2.0, out=buf)


def invert_spd(h) -> np.ndarray:
    """Exactly symmetric inverse of an SPD matrix, as a writeable C-contiguous array.

    Raises:
        ValueError: if ``h`` is not square, not finite or not symmetric
            (``_check_hessian``), or if the inverse has non-finite entries.
        NotSpdError: if the matrix is not positive definite.
    """
    # the checked matrix is exactly symmetric: its transpose is it in Fortran order
    return _invert_lower(_check_hessian(h).T)


def _invert_lower(a: np.ndarray) -> np.ndarray:
    """``invert_spd`` of the matrix whose lower triangle the Fortran-order ``a`` holds.

    ``dpotrf`` (the PD check) and ``dpotri`` run in place; 64-row panels mirror the result.
    """
    low, info = dpotrf(a, lower=1, overwrite_a=1)
    if info != 0:
        raise NotSpdError(f"not SPD: Cholesky failed at leading minor {info}")
    inv = dpotri(low, lower=1, overwrite_c=1)[0].T
    for start in range(0, inv.shape[0], 64):
        inv[start : start + 64] += np.tril(inv[:, start : start + 64].T, start - 1)
    if not np.all(np.isfinite(inv)):
        raise ValueError("inverse has non-finite entries")
    return inv


def remove_block(w: np.ndarray, h_inv: np.ndarray, idx, alive) -> np.ndarray:
    """Remove live columns ``idx`` of ``w``, in the given order, with exact compensation.

    The group Optimal Brain Surgeon step, in place on writeable C-contiguous
    float64 arrays whose boolean survivor mask is ``alive``. With ``L`` the
    Cholesky factor of ``h_inv[idx, idx]`` (in removal order),
    ``Q = w[:, idx] L^-T`` and ``C = L^-1 h_inv[idx, :]``, ``w -= Q C``
    optimally compensates the live columns and ``h_inv -= C^T C`` leaves the
    inverse of the Hessian with every dead index deleted (Schur complement)
    on the live rows and columns; ``alive[idx]`` is cleared. Both updates
    are BLAS ``dgemm`` calls with beta = 1 on the Fortran-order views
    ``w.T`` and ``h_inv.T``: nothing n x n is allocated. Removed entries
    are left at rounding level (about 1e-16), not zero: read both arrays
    through ``alive``. Returns ``step_errors[i] = ||Q[:, i]||^2``, the
    exact error paid by removing ``idx[i]`` after ``idx[:i]``.

    Raises:
        ValueError: if ``idx`` is empty, repeats an index, is out of range or
            names a dead column, or if an array cannot be updated in place.
        NotSpdError: if ``h_inv[idx, idx]`` is not positive definite.
    """
    n = alive.size
    if not all(a.dtype == np.float64 and a.flags.carray for a in (w, h_inv)):
        raise ValueError("w and h_inv must be writeable C-contiguous float64 arrays")
    if w.ndim != 2 or w.shape[1] != n or h_inv.shape != (n, n):
        raise ValueError(f"inconsistent dims: w {w.shape}, h_inv {h_inv.shape}, mask {n}")
    idx = np.asarray(idx, dtype=np.intp)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError(f"idx must be a non-empty 1-D index list, got shape {idx.shape}")
    if idx.min() < 0 or idx.max() >= n:
        raise ValueError(f"index out of range for dimension {n}: {idx.tolist()}")
    if np.unique(idx).size != idx.size:
        raise ValueError(f"repeated index in {idx.tolist()}")
    if not alive[idx].all():
        raise ValueError(f"index already removed in {idx.tolist()}")
    q_t, c, steps = _block_solve(w, h_inv, idx, slice(None))
    dgemm(-1.0, c, q_t, beta=1.0, c=w.T, trans_a=1, overwrite_c=1)
    dgemm(-1.0, c, c, beta=1.0, c=h_inv.T, trans_a=1, overwrite_c=1)
    alive[idx] = False
    return steps


def _block_solve(w, h_inv, idx, cols):
    """``remove_block``'s ``(Q^T, C, step_errors)``, with ``C = L^-1 h_inv[idx, cols]``
    over the columns ``cols`` only."""
    try:
        low = np.linalg.cholesky(h_inv[np.ix_(idx, idx)])
    except np.linalg.LinAlgError as exc:
        raise NotSpdError(f"not SPD: removed block failed Cholesky ({exc})") from exc
    q_t = solve_triangular(low, w[:, idx].T, lower=True, check_finite=False)
    c = solve_triangular(low, h_inv[idx][:, cols], lower=True, check_finite=False)
    return q_t, c, (q_t * q_t).sum(axis=1)
