"""Exception hierarchy shared by all segrecall modules."""


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


class ShapeMismatchError(SegrecallError):
    """Two maps or tensors that must share a resolution do not."""


class PriorsMismatchError(SegrecallError):
    """Priors were estimated for another class spec or resolution than the maps they meet."""


class EmptyInputError(SegrecallError):
    """An operation received an empty sequence where at least one item is required."""


class UsageError(SegrecallError):
    """Command-line flags that cannot run together or do not parse."""


class NegativeSigmaError(SegrecallError):
    """A Gaussian smoothing width was negative."""


class DomainError(SegrecallError):
    """A scalar argument lies outside the mathematical domain of an operation."""


class UngroupedClassError(SegrecallError):
    """A class id is not covered by the given group specification."""


class IsolatedNodeError(SegrecallError):
    """A graph row sums to zero and cannot be normalized."""


class DimensionMismatchError(SegrecallError):
    """Matrix or feature dimensions do not chain correctly."""


class EmptyChainError(SegrecallError):
    """A layer chain was empty."""


class ChannelMismatchError(SegrecallError):
    """Consecutive layers disagree about channel counts."""


class IndivisibleInputError(SegrecallError):
    """An input resolution is not divisible by the encoder's total stride."""
