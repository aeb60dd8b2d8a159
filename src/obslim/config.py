"""Central numerical constants shared by all modules."""

import math
import numbers
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Tolerance budget for the numerical kernels.

    symmetry          relative asymmetry accepted when constructing an SPD matrix
    schedule_residual slack on the reachable range of a ratio schedule's global target
    """

    symmetry: float = 1e-9
    schedule_residual: float = 1e-6


TOL = Tolerances()

# Fraction of the mean Hessian diagonal added as damping before inversion.
DEFAULT_DAMPING = 0.01


def is_finite_real(val) -> bool:
    """True for a finite int or float; config values arrive untyped and a bool is no number."""
    return isinstance(val, numbers.Real) and not isinstance(val, bool) and math.isfinite(val)
