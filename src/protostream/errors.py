"""Exception types shared across the package."""


class ProtostreamError(Exception):
    """Base class for all errors raised by this package."""


class EmptyModelError(ProtostreamError):
    """Raised when a nearest-set query or prediction is made against an empty model."""


class EmptyCandidatesError(ProtostreamError):
    """Raised when asked to sample uniformly from an empty candidate list."""


class DimensionMismatchError(ProtostreamError):
    """Raised when two points of different dimension reach a coordinate metric."""


class PositionOutOfRangeError(ProtostreamError):
    """Raised when an index is handed a negative, out-of-range or removed handle."""


class ConfigError(ProtostreamError):
    """Raised for invalid, unknown, or malformed configuration values."""
