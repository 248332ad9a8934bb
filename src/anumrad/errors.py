# src/anumrad/errors.py

"""Exception hierarchy for the anumrad package.

Dedicated classes (rather than bare ValueError) so callers can tell
validation failures apart; a LAPACK breakdown surfaces as numpy's own
LinAlgError, a ValueError subclass.
"""


class AnumradError(Exception):
    """Base class for all anumrad errors."""


class DimensionMismatch(AnumradError):
    """Operands have incompatible shapes."""


class NotHermitian(AnumradError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NotPSD(AnumradError):
    """A matrix required to be positive semidefinite has a negative eigenvalue."""


class NoAdjoint(AnumradError):
    """The operator does not admit an adjoint with respect to the metric A."""


class EmptyRange(AnumradError):
    """The metric A has rank zero, so A-gauges are undefined."""


class UnknownCheckId(AnumradError):
    """No check with this id exists in the registry."""

    def __init__(self, check_id: str):
        super().__init__(
            f"unknown check id {check_id!r}; `anumrad list-checks` prints the ids")


class BadRank(AnumradError):
    """Requested rank is out of range for the matrix dimension."""
