"""Dense symmetric-positive-definite linear algebra.

Everything the pruning kernels need from an SPD matrix lives here:
Cholesky factorization, inversion from the factor, per-block (grouped)
factorization of diagonal blocks, and the block-OBS kernel that removes a
set of columns from a weight matrix and its inverse Hessian in one solve.

Identical inputs produce bit-identical outputs. Inputs are never mutated,
except that ``invert_spd`` consumes the factor an ``SpdMatrix`` caches.
"""

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf, dpotri

from .config import TOL
from .errors import NotSpdError


class SpdMatrix:
    """A symmetric positive-definite matrix in float64.

    The constructor symmetrizes its input as (M + M^T)/2 after checking
    that the asymmetry is within ``TOL.symmetry`` relative to the largest
    entry. Positive definiteness is enforced where a factorization is
    actually taken (`cholesky_lower`, `invert_spd`), which raise
    ``NotSpdError`` on failure. ``low`` caches a ``cholesky_lower`` factor
    for ``invert_spd`` to consume, or is None.
    """

    __slots__ = ("a", "low")

    def __init__(self, data):
        a = np.asarray(data, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix contains non-finite entries")
        scale = max(1.0, float(np.abs(a).max()))
        asym = float(np.abs(a - a.T).max())
        if asym > TOL.symmetry * scale:
            raise ValueError(
                f"matrix is not symmetric: max asymmetry {asym:.3e} "
                f"exceeds {TOL.symmetry:.0e} relative tolerance"
            )
        self.a = (a + a.T) / 2.0
        self.low = None

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def diagonal(self) -> np.ndarray:
        return np.diag(self.a)

    def submatrix(self, idx) -> "SpdMatrix":
        """Principal submatrix on the given index sequence."""
        idx = np.asarray(idx, dtype=np.intp)
        return SpdMatrix(self.a[np.ix_(idx, idx)])

    def __repr__(self):
        return f"SpdMatrix(n={self.n})"


def as_array(m) -> np.ndarray:
    """The float64 array of an ``SpdMatrix``, or ``m`` as a float64 array.

    Public entry points validate their Hessians as ``SpdMatrix``; the
    pruning loops then carry raw arrays, which the scoring kernels accept
    through this helper without re-validating them.
    """
    return m.a if isinstance(m, SpdMatrix) else np.asarray(m, dtype=np.float64)


def cholesky_lower(m: SpdMatrix) -> np.ndarray:
    """Lower-triangular L with L @ L.T == m, a new array from LAPACK ``dpotrf``.

    Raises:
        NotSpdError: if the matrix is not positive definite.
    """
    low, info = dpotrf(m.a, lower=1, clean=1)
    if info != 0:
        raise NotSpdError(f"not SPD: Cholesky failed at leading minor {info}")
    return low


def invert_spd(m: SpdMatrix) -> SpdMatrix:
    """Exactly symmetric inverse of an SPD matrix, validated as ``SpdMatrix``.

    LAPACK ``dpotri`` overwrites the Cholesky factor (``m.low``, then reset
    to None, or else a new ``cholesky_lower(m)``) with the inverse's lower
    triangle, which is mirrored into the upper one.

    Raises:
        NotSpdError: if the matrix is not positive definite.
    """
    low, m.low = (cholesky_lower(m) if m.low is None else m.low), None
    inv, _ = dpotri(low, lower=1, overwrite_c=1)
    inv += np.tril(inv, -1).T
    return SpdMatrix(inv)


def grouped_cholesky(h_inv, group_size: int) -> np.ndarray:
    """Factor every ``group_size`` diagonal block of ``h_inv`` independently.

    ``h_inv`` is an ``SpdMatrix`` or a raw symmetric array. Returns the
    (n_blocks, group_size, group_size) stack of lower-triangular factors:
    ``factors[k] @ factors[k].T`` is diagonal block ``k``. The blocks are
    factored as a batch; the result does not depend on the order in which
    blocks are processed.

    Raises:
        ValueError: if the dimension is not divisible by ``group_size``.
        NotSpdError: if any diagonal block is not positive definite.
    """
    if group_size < 1:
        raise ValueError(f"group_size must be >= 1, got {group_size}")
    a = as_array(h_inv)
    n = a.shape[0]
    if n % group_size != 0:
        raise ValueError(f"dimension {n} not divisible by group size {group_size}")
    k = n // group_size
    blocks = a.reshape(k, group_size, k, group_size)
    diag_blocks = blocks[np.arange(k), :, np.arange(k), :]
    try:
        return np.linalg.cholesky(diag_blocks)
    except np.linalg.LinAlgError as exc:
        raise NotSpdError(f"not SPD: a diagonal block failed Cholesky ({exc})") from exc


def remove_block(w: np.ndarray, h_inv: np.ndarray, idx):
    """Remove columns ``idx`` of ``w``, in the given order, with exact compensation.

    This is the group Optimal Brain Surgeon step on raw float64 arrays.
    With ``L`` the Cholesky factor of ``h_inv[idx, idx]`` (taken in removal
    order), ``Q = w[:, idx] L^-T`` and ``C = L^-1 h_inv[idx, rest]``:

    - ``w_rest = w[:, rest] - Q C`` is the optimally compensated remainder;
    - ``h_inv_rest = h_inv[rest, rest] - C^T C`` (the Schur complement) is
      the inverse of the Hessian with rows/columns ``idx`` deleted;
    - ``step_errors[i] = ||Q[:, i]||^2`` is the exact error paid by
      removing ``idx[i]`` after ``idx[:i]``, as in one-at-a-time removal.

    ``rest`` lists the surviving columns in ascending order. Returns
    ``(w_rest, h_inv_rest, step_errors)``.

    Raises:
        ValueError: if ``idx`` is empty, repeats an index or is out of range.
        NotSpdError: if ``h_inv[idx, idx]`` is not positive definite.
    """
    n = h_inv.shape[0]
    idx = np.asarray(idx, dtype=np.intp)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError(f"idx must be a non-empty 1-D index list, got shape {idx.shape}")
    if idx.min() < 0 or idx.max() >= n:
        raise ValueError(f"index out of range for dimension {n}: {idx.tolist()}")
    keep = np.ones(n, dtype=bool)
    keep[idx] = False
    if n - np.count_nonzero(keep) != idx.size:
        raise ValueError(f"repeated index in {idx.tolist()}")
    rest = np.flatnonzero(keep)
    try:
        low = np.linalg.cholesky(h_inv[np.ix_(idx, idx)])
    except np.linalg.LinAlgError as exc:
        raise NotSpdError(f"not SPD: removed block failed Cholesky ({exc})") from exc
    q_t = solve_triangular(low, w[:, idx].T, lower=True, check_finite=False)
    c = solve_triangular(low, h_inv[np.ix_(idx, rest)], lower=True, check_finite=False)
    w_rest = w[:, rest] - q_t.T @ c
    h_inv_rest = h_inv[np.ix_(rest, rest)] - c.T @ c
    return w_rest, h_inv_rest, (q_t * q_t).sum(axis=1)
