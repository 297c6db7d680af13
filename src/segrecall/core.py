"""Core domain types: class specs, label maps, and per-pixel probability maps.

All types are immutable after construction (arrays are locked read-only) and
safe to share between threads. A map adopts an array that is already
read-only and owns its memory, the form in which the readers hand theirs over;
any other input is copied first, so later writes by the caller cannot reach it.
"""

from __future__ import annotations

from contextlib import contextmanager
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
# Pixels per block for the map passes that work block by block (reading and
# validating probability maps, decision rules, feature scoring): a float64
# block of C channels stays near 1 MB.
# Halving it again costs a decision rule about 6 % more CPU for 2 MB less.
BLOCK_PIXELS = 8192
# Pixels per block for the passes over label maps (class id checks, confusion
# counts), whose temporaries take at most about 20 B per pixel. At
# BLOCK_PIXELS each numpy call there is so short that two workers trade the
# GIL at almost every call, and `evaluate --jobs 2` took about 35 ms more CPU.
_LABEL_BLOCK_PIXELS = 4 * BLOCK_PIXELS


@contextmanager
def worker_pool(jobs: int):
    """The package's one worker pool: yields ``map(fn, items)``, which
    returns ``[fn(item) for item in items]`` computed on up to ``jobs``
    threads. The threads serve every call until the block exits. One job
    runs in the calling thread, without importing ``concurrent.futures``.
    """
    if jobs <= 1:
        yield lambda fn, items: [fn(item) for item in items]
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        yield lambda fn, items: list(pool.map(fn, items))


def pool_map(fn, items, jobs: int) -> list:
    """``[fn(item) for item in items]`` on a :func:`worker_pool` of up to
    ``jobs`` threads; one item runs in the calling thread."""
    items = list(items)
    with worker_pool(min(jobs, len(items))) as map_items:
        return map_items(fn, items)


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
        _check_class_ids(lm, spec.num_classes)
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


def _check_class_ids(lm: LabelMap, num_classes: int, where: str = "") -> None:
    """Raise InvalidClassError at the first value of ``lm`` that is neither a
    class id below ``num_classes`` nor its ignore id; ``where`` follows the pixel.

    The map is checked row block by row block, so only one block's
    temporaries are held, and the check stops at the first block that holds
    a bad value.
    """
    for rows in _row_slices(*lm.data.shape, _LABEL_BLOCK_PIXELS):
        block = lm.data[rows]
        bad = _outside_ids(block, num_classes)
        bad &= block != lm.ignore_id
        if bad.any():
            y, x = np.argwhere(bad)[0]
            raise InvalidClassError(
                f"label {int(block[y, x])} at pixel ({rows.start + y}, {x}){where} "
                "is not a class id or ignore id"
            )


def _outside_ids(values: np.ndarray, num_classes: int) -> np.ndarray:
    """Boolean array, True where ``values`` lie outside the class ids
    ``[0, num_classes)``; an unsigned dtype skips the test for negatives."""
    bad = values >= num_classes
    if values.dtype.kind != "u":
        bad |= values < 0
    return bad


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


def _block_rows(width: int, pixels: int = BLOCK_PIXELS) -> int:
    """Rows per block of about ``pixels`` pixels for a map ``width`` pixels wide."""
    return max(1, pixels // width)


def _row_slices(height: int, width: int, pixels: int = BLOCK_PIXELS) -> list[slice]:
    """The row ranges of a map's blocks of about ``pixels`` pixels, top to
    bottom; only the last may be shorter."""
    step = _block_rows(width, pixels)
    return [slice(r0, min(r0 + step, height)) for r0 in range(0, height, step)]


def _row_blocks(data: np.ndarray):
    """``(rows, data[rows])`` for each row block of an H×W×… array, in row order."""
    for rows in _row_slices(*data.shape[:2]):
        yield rows, data[rows]


class _ProbCheck:
    """Validates a probability map block by block, fed its row blocks in row order.

    :meth:`block` raises OutOfRangeError at the first entry outside [0, 1]
    (or non-finite) and notes the first pixel whose channel sum strays
    beyond 1 ± PROB_SUM_TOL; :meth:`finish` raises NotNormalizedError for
    that pixel. An out-of-range entry anywhere therefore wins over a bad
    sum, and either error names the first offending pixel, row-major.
    """

    def __init__(self):
        self._bad_sum = None

    def block(self, rows: slice, block: np.ndarray) -> None:
        # Two passes over a block still in cache; a NaN propagates into min
        # and fails the test.
        if not (block.min() >= 0.0 and block.max() <= 1.0):
            in_range = np.isfinite(block) & (block >= 0.0) & (block <= 1.0)
            y, x, c = np.argwhere(~in_range)[0]
            raise OutOfRangeError(
                f"probability {float(block[y, x, c])} at pixel ({rows.start + y}, {x}) "
                f"channel {c} is outside [0, 1]"
            )
        if self._bad_sum is not None:
            return
        # A rough sum in the map's own dtype. Summing C entries of [0, 1] to
        # near 1 rounds by less than C * eps, so only pixels within 2 * C * eps
        # of the edge can differ from the float64 sum; those are summed again
        # in float64 and alone decide, exactly as a float64 sum of every
        # pixel would.
        dev = np.einsum("ijk->ij", block)
        dev -= 1
        np.abs(dev, out=dev)
        ys, xs = np.nonzero(dev > PROB_SUM_TOL - 2 * block.shape[2] * np.finfo(block.dtype).eps)
        sums = block[ys, xs].sum(axis=1, dtype=np.float64)
        off = np.flatnonzero(np.abs(sums - 1.0) > PROB_SUM_TOL)
        if off.size:
            i = off[0]
            self._bad_sum = (
                f"channel sum {sums[i]:.6f} at pixel ({rows.start + ys[i]}, {xs[i]}) "
                f"is outside 1 +/- {PROB_SUM_TOL}"
            )

    def finish(self) -> None:
        if self._bad_sum is not None:
            raise NotNormalizedError(self._bad_sum)


def validate_probmap(p: ProbMap) -> None:
    """Check that every entry is a probability and every pixel sums to 1 ± PROB_SUM_TOL.

    Raises OutOfRangeError for entries outside [0, 1] (or non-finite ones) and
    NotNormalizedError for pixels whose channel sum strays beyond the
    tolerance; an out-of-range entry anywhere wins over a bad sum, and the
    message names the first offending pixel, row-major. The map is checked
    in row blocks of about BLOCK_PIXELS pixels, the same check
    ``fileio.read_prob_map`` runs on each block as it is read, so beyond
    the map only per-block temporaries are held.
    """
    check = _ProbCheck()
    for rows, block in _row_blocks(p.data):
        check.block(rows, block)
    check.finish()


def check_same_resolution(a: tuple, b: tuple) -> None:
    """Raise ShapeMismatchError unless two maps' (height, width) pairs are
    equal; it takes pairs, not maps, so that a map that streams is checked too."""
    if a != b:
        raise ShapeMismatchError(f"maps differ in resolution: {a[0]}x{a[1]} vs {b[0]}x{b[1]}")
