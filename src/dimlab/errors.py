"""Exception types shared across the package.

Each class is a fault that a caller can tell apart from the others; a
result that may be undefined (a degenerate fit, a compliance with no
usable pair) is returned as None, not raised."""


class DimlabError(Exception):
    """Base class for all package errors."""


class DimensionError(DimlabError):
    """Tensor shapes are incompatible with the requested operation."""


class ParameterError(DimlabError):
    """An argument value is outside its legal range."""


class NumericError(DimlabError):
    """A computation produced or encountered non-finite values."""


class ConfigError(DimlabError):
    """An invalid configuration value or combination."""


class DataError(DimlabError):
    """Loaded data or a file is unusable (empty, mismatched, malformed)."""
