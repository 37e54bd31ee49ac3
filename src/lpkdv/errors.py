"""Exception types shared across the package."""


class LpkdvError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LpkdvError, ValueError):
    """Input outside the mathematical domain of an operation."""


class PreconditionError(LpkdvError, ValueError):
    """A documented precondition of an operation is violated."""


class SingularCornerError(LpkdvError, ZeroDivisionError):
    """Corner solve hit the singular manifold w ≈ mu; carries the lattice location."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


class SingularPotentialError(LpkdvError, ZeroDivisionError):
    """A spectral-problem denominator fell below threshold; carries the location."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


class SingularFlowError(LpkdvError, ZeroDivisionError):
    """A symmetry-flow denominator fell below threshold; carries location and stage."""

    def __init__(self, message, location=None, stage=None):
        super().__init__(message)
        self.location = location
        self.stage = stage


class NumericalError(LpkdvError, RuntimeError):
    """NaN/overflow or solver non-convergence, with diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
