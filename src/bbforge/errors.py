"""Exception types raised across the toolkit."""


class BBForgeError(Exception):
    """Base class for all toolkit errors."""


class CapacityError(BBForgeError):
    """Requested object exceeds the configured size guard."""


class ShapeError(BBForgeError):
    """Operands have mismatched or invalid dimensions."""


class DomainError(BBForgeError):
    """Input violates a mathematical precondition (non-Hermitian, non-unitary, ...)."""


class InfeasibleError(BBForgeError):
    """No pulse set satisfies the requested linear system within the search bound."""

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


class InfeasibleMagnitudeError(InfeasibleError):
    """Target vector is longer than the measured one; averaged rotations only contract."""


class InconsistencyError(BBForgeError):
    """Tomography data do not describe a trace- and Hermiticity-preserving channel."""


class DegenerateTimeError(BBForgeError):
    """Generator extraction requires a strictly positive probe time."""


class NonRepresentableError(BBForgeError):
    """Rotation matrix is not in the image of the adjoint map."""
