"""Exception types shared across the library."""


class BlindchanError(Exception):
    """Base class for all library errors."""


class DimensionError(BlindchanError, ValueError):
    """Operands have incompatible lengths or shapes."""


class ConfigurationError(BlindchanError, ValueError):
    """A parameter combination is invalid (e.g. D > K, M < 2)."""


class InputError(BlindchanError, ValueError):
    """An input value is unusable (non-finite, zero where nonzero needed)."""

