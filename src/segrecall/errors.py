"""Exception hierarchy shared by all segrecall modules.

The type of an error also decides the command line's exit code: a
:class:`UsageError` (flags, or inputs that do not fit together) exits 2,
every other error exits 1.
"""

from contextlib import contextmanager


class SegrecallError(Exception):
    """Base class for every error raised by this package."""


class FormatError(SegrecallError):
    """A file (PGM, SFT, JSON) is malformed or uses an unsupported variant."""


class NotNormalizedError(SegrecallError):
    """A probability map pixel's channel values do not sum to 1."""


class OutOfRangeError(SegrecallError):
    """A probability value lies outside [0, 1] or is not finite."""


class InvalidClassError(SegrecallError):
    """A class id is out of range, is the ignore id, or a class spec is inconsistent."""


class DomainError(SegrecallError):
    """A scalar argument lies outside the mathematical domain of an operation."""


class UngroupedClassError(SegrecallError):
    """A class id is not covered by the given group specification."""


class UsageError(SegrecallError):
    """Command-line flags, or inputs, that cannot run together."""


class ShapeMismatchError(UsageError):
    """Two maps or tensors that must share a resolution do not."""


class PriorsMismatchError(UsageError):
    """Priors were estimated for another class spec or resolution than the maps they meet."""


class EmptyInputError(UsageError):
    """An operation received an empty sequence where at least one item is required."""


class DimensionMismatchError(UsageError):
    """Matrix, feature or channel dimensions do not chain."""


class IndivisibleInputError(UsageError):
    """An input resolution is not divisible by the encoder's total stride."""


@contextmanager
def naming(source):
    """Re-raise any SegrecallError inside as a FormatError that starts with
    ``source``; with ``source`` None, re-raise it unchanged.

    Wrap only the constructor or validator that checks a file's content, so
    that errors already naming the file are not prefixed twice.
    """
    try:
        yield
    except SegrecallError as exc:
        if source is None:
            raise
        raise FormatError(f"{source}: {exc}") from exc
