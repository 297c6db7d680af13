"""Core domain types: class specs, label maps, and per-pixel probability maps.

All types are immutable after construction (arrays are locked read-only) and
safe to share between threads. A map adopts an array that is already
read-only and owns its memory, the form in which the readers hand theirs over;
any other input is copied first, so later writes by the caller cannot reach it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidClassError,
    NotNormalizedError,
    OutOfRangeError,
    ShapeMismatchError,
)

DEFAULT_IGNORE_ID = 255
PROB_SUM_TOL = 1e-4
LOG_CLAMP = 1e-12
# Pixels per block for the map passes that work block by block (decision
# rules, feature scoring): a float64 block of C channels stays a few MB.
BLOCK_PIXELS = 16384


def _frozen_array(data, dtype=None) -> np.ndarray:
    # The one freeze rule: adopt a read-only ndarray that owns its memory and
    # has ``dtype`` (default: its own); copy and convert anything else.
    owned = type(data) is np.ndarray and data.flags.owndata and not data.flags.writeable
    if owned and dtype in (None, data.dtype):
        return data
    arr = np.array(data, dtype=dtype, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ClassSpec:
    """Class names plus the id used to mark ignored (void) pixels.

    The ignore id must lie outside ``[0, num_classes - 1]``; 255 is the
    conventional value for byte-encoded label maps.
    """

    names: tuple[str, ...]
    ignore_id: int = DEFAULT_IGNORE_ID

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if not names:
            raise InvalidClassError("at least one class name is required")
        if any(not isinstance(n, str) or not n for n in names):
            raise InvalidClassError("class names must be non-empty strings")
        if len(set(names)) != len(names):
            raise InvalidClassError("class names must be unique")
        if 0 <= self.ignore_id < len(names):
            raise InvalidClassError(
                f"ignore id {self.ignore_id} collides with class ids 0..{len(names) - 1}"
            )

    @property
    def num_classes(self) -> int:
        return len(self.names)

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InvalidClassError(f"unknown class name {name!r}") from None


@dataclass(frozen=True)
class LabelMap:
    """Dense H×W map of class ids; ``ignore_id`` marks excluded pixels."""

    data: np.ndarray
    ignore_id: int = DEFAULT_IGNORE_ID

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 2 or data.size == 0:
            raise ShapeMismatchError(f"label map must be 2-D and non-empty, got shape {data.shape}")
        if not np.issubdtype(data.dtype, np.integer):
            raise InvalidClassError(f"label map must hold integers, got dtype {data.dtype}")
        object.__setattr__(self, "data", _frozen_array(data))

    @classmethod
    def from_array(cls, data, spec: ClassSpec) -> "LabelMap":
        """Build a validated map: every value must be a class id or the ignore id."""
        lm = cls(data, ignore_id=spec.ignore_id)
        values = lm.data
        valid = ((values >= 0) & (values < spec.num_classes)) | (values == spec.ignore_id)
        if not valid.all():
            y, x = np.argwhere(~valid)[0]
            raise InvalidClassError(
                f"label {int(values[y, x])} at pixel ({y}, {x}) is not a class id or ignore id"
            )
        return lm

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    def mask(self) -> np.ndarray:
        """Boolean H×W array, True where the pixel is not ignored."""
        return self.data != self.ignore_id


@dataclass(frozen=True)
class ProbMap:
    """Dense H×W×C map of per-pixel class probabilities.

    Produced upstream by a softmax layer; this package only consumes them.
    Use :func:`validate_probmap` to enforce normalization.
    """

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 3 or data.size == 0:
            raise ShapeMismatchError(
                f"probability map must be H*W*C and non-empty, got shape {data.shape}"
            )
        dtype = None if data.dtype in (np.float32, np.float64) else np.float64
        object.__setattr__(self, "data", _frozen_array(data, dtype))

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def num_classes(self) -> int:
        return self.data.shape[2]


def validate_probmap(p: ProbMap) -> None:
    """Check that every entry is a probability and every pixel sums to 1 ± PROB_SUM_TOL.

    Raises OutOfRangeError for entries outside [0, 1] (or non-finite ones) and
    NotNormalizedError for pixels whose channel sum strays beyond the tolerance.
    """
    data = p.data
    # One pass each for min and max; a NaN propagates into min and fails the test.
    if not (data.min() >= 0.0 and data.max() <= 1.0):
        in_range = np.isfinite(data) & (data >= 0.0) & (data <= 1.0)
        y, x, c = np.argwhere(~in_range)[0]
        raise OutOfRangeError(
            f"probability {float(data[y, x, c])} at pixel ({y}, {x}) channel {c} is outside [0, 1]"
        )
    # A rough sum in the map's own dtype, in place. Summing C entries of [0, 1]
    # to near 1 rounds by less than C * eps, so only pixels within 2 * C * eps
    # of the edge can differ from the float64 sum; those are summed again in
    # float64 and alone decide, exactly as a whole-map float64 sum would.
    dev = np.einsum("ijk->ij", data)
    dev -= 1
    np.abs(dev, out=dev)
    ys, xs = np.nonzero(dev > PROB_SUM_TOL - 2 * p.num_classes * np.finfo(data.dtype).eps)
    sums = data[ys, xs].sum(axis=1, dtype=np.float64)
    off = np.flatnonzero(np.abs(sums - 1.0) > PROB_SUM_TOL)
    if off.size:
        i = off[0]
        raise NotNormalizedError(
            f"channel sum {sums[i]:.6f} at pixel ({ys[i]}, {xs[i]}) is outside 1 +/- {PROB_SUM_TOL}"
        )


def check_same_resolution(a, b) -> None:
    """Raise ShapeMismatchError unless the two maps share height and width."""
    if (a.height, a.width) != (b.height, b.width):
        raise ShapeMismatchError(
            f"maps differ in resolution: {a.height}x{a.width} vs {b.height}x{b.width}"
        )
