"""Exception types shared across the package."""


class StyleShiftError(Exception):
    """Base class for errors raised by this package."""


class DimensionError(StyleShiftError, ValueError):
    """Operands have incompatible shapes or lengths."""


class InsufficientBatchError(StyleShiftError, ValueError):
    """An operation needs more samples in the batch than were provided."""


class CarrierUnavailableError(StyleShiftError, RuntimeError):
    """No style carrier exists in the requested domain within the batch."""


class RegistryBuildError(StyleShiftError, RuntimeError):
    """A domain registry could not be built (e.g. a domain has no samples)."""


class ConfigError(StyleShiftError, ValueError):
    """Invalid or inconsistent configuration."""


class PnmParseError(StyleShiftError, ValueError):
    """Malformed PGM/PPM data. Carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class DivergenceError(StyleShiftError, RuntimeError):
    """Training or evaluation produced non-finite values."""
