"""Numerical tolerances shared by the package's validation code."""

HERMITICITY = 1e-10
ORTHOGONALITY = 1e-10
UNITARITY = 1e-10
TRACE_ORTHOGONALITY = 1e-12
BATH_EIGENVALUE_CUTOFF = 1e-14
LINEAR_SOLVE = 1e-9
ZERO_VECTOR = 1e-12
