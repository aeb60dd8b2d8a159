"""Central numerical constants shared by all modules."""

import numbers
import sys
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
    """True for an int or float in float range; config values arrive untyped, bools excluded."""
    return (isinstance(val, numbers.Real) and not isinstance(val, bool)
            and abs(val) <= sys.float_info.max)
