"""Layer Hessian accumulation from calibration features.

The curvature of the layer reconstruction objective is ``2 X X^T`` over the
layer's input features X (columns are tokens). ``prune_model`` streams each
layer's features through the already-pruned prefix into one accumulator per
Hessian; sums add in arrival order for bit-reproducibility, and a
proportional diagonal damping is applied once at finalization to survive
dead feature channels. ``finalize`` validates the damped sum as an
``SpdMatrix`` but does not factor it: its positive definiteness is checked
by the one factorization it gets, in ``linalg.invert_spd``.
"""

import numpy as np

from .config import DEFAULT_DAMPING
from .errors import NotSpdError
from .linalg import SpdMatrix


class HessianAccumulator:
    """Running sum of ``2 X_b X_b^T`` over calibration batches.

    ``HessianAccumulator(d).accumulate(x).finalize(damping)`` builds a
    damped Hessian from one or more feature batches of shape (d, tokens).
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self.sum = np.zeros((dim, dim))
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
        self.sum += 2.0 * (x @ x.T)
        self.n_samples += x.shape[1]
        return self

    def finalize(self, damping_frac: float = DEFAULT_DAMPING) -> SpdMatrix:
        """Damped Hessian ``sum + damping_frac * mean(diag(sum)) * I``.

        Not factored here: ``invert_spd`` raises ``NotSpdError`` if it is not
        positive definite (e.g. an all-zero accumulator with zero damping).

        Raises:
            NotSpdError: if the damped sum has non-finite entries.
        """
        if self.n_samples <= 0:
            raise ValueError("cannot finalize an empty accumulator")
        if damping_frac < 0:
            raise ValueError(f"damping_frac must be >= 0, got {damping_frac}")
        lam = damping_frac * float(np.mean(np.diag(self.sum)))
        try:
            return SpdMatrix(self.sum + lam * np.eye(self.dim))
        except ValueError as exc:
            raise NotSpdError(f"singular Hessian: {exc}") from exc
