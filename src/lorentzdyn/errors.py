"""Exception hierarchy shared by all modules.

Two bases so the CLI can map failures to exit codes: PreconditionError
(bad input, exit 2) and NumericalError (the computation itself could not
finish, exit 3).
"""


class PreconditionError(ValueError):
    """Input violates a documented precondition."""


class NumericalError(RuntimeError):
    """Computation failed numerically (non-convergence, pattern mismatch)."""


class DimensionError(PreconditionError):
    pass


class DegenerateFormError(PreconditionError):
    pass


class NotIsometryError(PreconditionError):
    pass


class NotIsotropicError(PreconditionError):
    pass


class SingularMatrixError(PreconditionError):
    pass


class EquicontinuousError(PreconditionError):
    """The sequence has no divergence to analyze."""


class InsufficientDataError(PreconditionError):
    """Fewer usable terms than the convergence diagnostics require."""


class NotHyperbolicError(PreconditionError):
    """Automorphism has no real eigenvalue off the unit circle."""


class BudgetError(PreconditionError):
    """Enumeration, sampling or exact arithmetic would exceed the stated budget."""


class ConvergenceError(NumericalError):
    """No single limit detected; carries subsequential cluster data."""

    def __init__(self, message, clusters=None):
        super().__init__(message)
        self.clusters = clusters or []


class PatternMismatchError(NumericalError):
    """Singular values do not fit the expected Lorentz pattern."""


class CertificateError(NumericalError):
    """Sequence too short to certify the requested dynamics."""
