"""Exception hierarchy shared across the package.

Every error raised on purpose derives from OrliczMaxError so callers can
catch the package's failures without swallowing genuine bugs.
"""


class OrliczMaxError(Exception):
    """Base class for all package errors."""


class InvalidYoungFunction(OrliczMaxError, ValueError):
    """Constructor parameters do not describe a convex increasing Young function."""


class NoBracket(OrliczMaxError, ArithmeticError):
    """A root/inverse search could not bracket the requested value."""


class NonFinite(OrliczMaxError, ArithmeticError):
    """An integrand or intermediate value is infinite where it must be finite."""


class EmptyRect(OrliczMaxError, ValueError):
    """An index rectangle has an empty side."""


class GeometryMismatch(OrliczMaxError, ValueError):
    """Two grid objects do not share shape, origin, and spacing."""


class BudgetExceeded(OrliczMaxError, RuntimeError):
    """Predicted work exceeds the configured operation budget."""


class DegenerateSet(OrliczMaxError, ValueError):
    """A sampled set has zero weight/measure where positive is required."""


class DimensionError(OrliczMaxError, ValueError):
    """Operation undefined for this grid dimension."""


class VerdictConflict(OrliczMaxError, RuntimeError):
    """Numeric classification contradicts a known closed-form verdict."""
