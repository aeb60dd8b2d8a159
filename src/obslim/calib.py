"""Layer Hessian accumulation from calibration features.

The curvature of the layer reconstruction objective is ``2 X X^T`` over the
layer's input features X (columns are tokens). Its lower triangle lives in
one Fortran-order buffer: one BLAS ``dsyrk`` call per batch adds to it, in
arrival order; the proportional damping touches only its diagonal; and
``inverse``, which ``prune_model`` uses, inverts it in place. ``finalize``
returns an ``SpdMatrix`` copy of the damped sum for the oracles.
"""

import numpy as np
from scipy.linalg.blas import dsyrk

from .errors import NotSpdError
from .linalg import SpdMatrix, _invert_lower


class HessianAccumulator:
    """Running sum of ``2 X_b X_b^T`` over calibration batches, lower triangle only.

    ``HessianAccumulator(d).accumulate(x).inverse(damping)`` builds a
    damped inverse Hessian from feature batches of shape (d, tokens).
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self.sum = np.zeros((dim, dim), order="F")
        self.n_samples = 0

    def accumulate(self, features) -> "HessianAccumulator":
        """Add one batch of features, shape (dim, tokens)."""
        x = np.asarray(features, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != self.dim:
            raise ValueError(
                f"dimension mismatch: batch shape {x.shape}, accumulator dim {self.dim}"
            )
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite values in calibration batch")
        if self.sum is None:
            raise ValueError("the accumulator was consumed by inverse()")
        if x.shape[1]:  # BLAS rejects a product over zero tokens
            self.sum = dsyrk(2.0, x.T, beta=1.0, c=self.sum, trans=1, lower=1, overwrite_c=1)
        self.n_samples += x.shape[1]
        return self

    def finalize(self, damping_frac: float) -> SpdMatrix:
        """Damped Hessian ``sum + damping_frac * mean(diag(sum)) * I``, as a new matrix.

        ``NotSpdError`` if it has non-finite entries; ``invert_spd`` checks it is PD.
        """
        damped = self._damped_diagonal(damping_frac)
        full = self.sum + self.sum.T  # the one n x n temporary; it doubles the diagonal
        np.fill_diagonal(full, damped)
        return SpdMatrix(full)

    def inverse(self, damping_frac: float) -> np.ndarray:
        """``invert_spd(self.finalize(damping_frac))``, bit for bit, in the sum's own buffer.

        Consumes the accumulator; ``NotSpdError`` if the damped sum is non-finite or not PD.
        """
        np.einsum("ii->i", self.sum)[:] = self._damped_diagonal(damping_frac)
        buf, self.sum, self.n_samples = self.sum, None, 0
        return _invert_lower(buf)

    def _damped_diagonal(self, damping_frac: float) -> np.ndarray:
        """``diag(sum) + damping_frac * mean(diag(sum))``, once the damped sum is checked."""
        if self.n_samples <= 0:
            raise ValueError("the accumulator is empty or was consumed by inverse()")
        if damping_frac < 0:
            raise ValueError(f"damping_frac must be >= 0, got {damping_frac}")
        diag = np.diag(self.sum)
        damped = diag + damping_frac * float(np.mean(diag))
        if not (np.all(np.isfinite(damped)) and np.all(np.isfinite(self.sum))):
            raise NotSpdError("singular Hessian: matrix contains non-finite entries")
        return damped
