"""Exception types shared across the package."""


class LpkdvError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LpkdvError, ValueError):
    """Input outside the mathematical domain of an operation."""


class PreconditionError(LpkdvError, ValueError):
    """A documented precondition of an operation is violated."""


class _SingularError(LpkdvError, ZeroDivisionError):
    """A denominator fell below threshold; carries its lattice location."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


class SingularCornerError(_SingularError):
    """Corner solve hit the singular manifold w ≈ mu; carries the lattice location."""


class SingularPotentialError(_SingularError):
    """A spectral-problem denominator fell below threshold; carries the location."""


class SingularFlowError(_SingularError):
    """A symmetry-flow denominator fell below threshold; carries location and stage."""

    def __init__(self, message, location=None, stage=None):
        super().__init__(message, location)
        self.stage = stage


class NumericalError(LpkdvError, RuntimeError):
    """NaN/overflow or solver non-convergence, with diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
