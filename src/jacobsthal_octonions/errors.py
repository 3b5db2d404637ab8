"""Exception types shared across the package."""

__all__ = ["DomainError", "InconsistencyError", "UnknownVariantError"]


class DomainError(ValueError):
    """An index lies outside the domain an operation is defined on."""


class UnknownVariantError(ValueError):
    """A corrected variant was requested for an identity that has none."""


class InconsistencyError(ArithmeticError):
    """An internal exactness self-check failed, e.g. a division that must be
    exact left a remainder.  This can only happen if one of the package's
    constant tables is transcribed wrongly; it never occurs in normal use.
    """
