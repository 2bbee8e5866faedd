"""Exception types shared across the package, and the naming of an OSError."""

from contextlib import contextmanager


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


@contextmanager
def naming_os_error(what: str):
    """Re-raise an OSError from the block as one whose text begins with ``what``.

    ``cli.main`` prints an OSError's text as it stands, so each raise names
    what failed: the trace file, the trace writer, the pool or stdout.
    """
    try:
        yield
    except OSError as exc:
        raise OSError(f"{what}: {exc}") from None
