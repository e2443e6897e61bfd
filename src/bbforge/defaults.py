"""Globally configurable numerical tolerances.

The module-level ``TOL`` instance is consulted by validation code throughout
the package; mutate its attributes to loosen or tighten checks globally.
"""

from dataclasses import dataclass


@dataclass
class Tolerances:
    hermiticity: float = 1e-10
    orthogonality: float = 1e-10
    unitarity: float = 1e-10
    trace_orthogonality: float = 1e-12
    bath_eigenvalue_cutoff: float = 1e-14
    linear_solve: float = 1e-9
    zero_vector: float = 1e-12


TOL = Tolerances()
