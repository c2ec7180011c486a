"""Exception taxonomy shared by all modules.

Every error raised on purpose derives from HcGibbsError so the CLI can map
exception classes onto exit codes in one place.
"""

from __future__ import annotations


class HcGibbsError(Exception):
    """Base class for all errors raised by this package."""


class InputError(HcGibbsError):
    """Malformed or out-of-contract input (bad activities, bad labels, ...)."""


class DomainError(InputError):
    """Argument outside a function's mathematical domain (e.g. negative radicand)."""


class WindowTooSmall(InputError):
    """Requested state window does not cover every listed spin value."""


class TooLarge(InputError):
    """Request over a size cap (states, vertices, starts, ...); model._as_int alone raises it."""


class ShapeMismatch(InputError):
    """Vector/matrix operands disagree on state set or dimensions."""


class DivergentActivities(HcGibbsError):
    """Total activity is infinite: no translation-invariant Gibbs measure exists."""


class NumericalFailure(HcGibbsError):
    """A numeric routine could not reach its stated tolerance."""
