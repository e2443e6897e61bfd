"""Every numerical tolerance in bbforge, one name per kind of check.

No other module writes a tolerance as a literal; a test in
``tests/test_exports.py`` fails on a small float literal anywhere else.
"""

# Frobenius residual of a matrix identity (Hermitian, unitary, unit trace, complete, PSD, full rank).
MATRIX_RESIDUAL = 1e-10
# Floating-point round-off: exact identities, time rounding, zero norms and signs in the solvers.
ROUNDOFF = 1e-12
# Residual a linear solve or averaged-rotation target must reach.
LINEAR_SOLVE = 1e-9
# A component, norm or singular value below this counts as zero in axis and rotation geometry.
NEGLIGIBLE = 1e-9
# Orthogonality and reconstruction residual when adjoint rotations are turned back into pulses.
PULSE_RECOVERY = 1e-8
# Residual of run_qpt's superposition test that a probed channel must pass.
LINEARITY = 1e-8
# chi's trace-preservation residual above which chi_from_lambda rejects the channel.
TRACE_PRESERVATION = 1e-6
# Skew-Hermitian norm ||chi - chi^dag||_F / 2 above which a probed map counts as not Hermiticity preserving.
HERMITICITY = 1e-6
# Second Choi eigenvalue above which a two-qubit rotation is not an SU(4) image.
CHOI_RANK = 1e-6
# Difference at which two quaternion solutions, or an axis component, count as distinct.
DISTINCT = 1e-6
# Relative singular value below which a constraint-Jacobian direction is free.
NULL_SPACE = 1e-7
# Step norm at which the Gauss-Newton quaternion solve stops.
GAUSS_NEWTON_STEP = 1e-14
# Bath eigenvalues below this carry no Kraus operators.
BATH_EIGENVALUE_CUTOFF = 1e-14
# Negative round-off allowed in a distance, which is otherwise non-negative.
DISTANCE_FLOOR = 1e-15
# Cost-node distance below which a pulse set counts as an exact hit (node value 0).
EXACT_HIT = 1e-10
