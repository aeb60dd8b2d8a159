"""Central numerical constants shared by all modules."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Tolerance budget for the numerical kernels.

    symmetry          relative asymmetry accepted when constructing an SPD matrix
    reconstruction    factor / inverse round-trip checks (infinity norm)
    schedule_residual bisection stop criterion for ratio-schedule solving
    """

    symmetry: float = 1e-9
    reconstruction: float = 1e-8
    schedule_residual: float = 1e-6


TOL = Tolerances()

# Fraction of the mean Hessian diagonal added as damping before inversion.
DEFAULT_DAMPING = 0.01
