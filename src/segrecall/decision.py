"""Bayes and Maximum-Likelihood pixel decision rules plus spatial class priors.

The ML rule divides each posterior channel by a per-location class prior
estimated from training labels, which lifts rare classes and raises their
recall. Priors are per-pixel class frequencies, optionally smoothed with a
separable Gaussian, then clamped below by a floor so the division is safe.
The per-pixel evidence term of the posterior cancels inside the argmax, so
it never needs a runtime representation.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_IGNORE_ID,
    ClassSpec,
    LabelMap,
    ProbMap,
    _check_class_ids,
    _frozen_array,
    _row_blocks,
    check_same_resolution,
    worker_pool,
)
from .errors import DomainError, EmptyInputError, FormatError, ShapeMismatchError, naming
from .fileio import sft_rows
from .metrics import ConfusionMatrix, GroupSpec, SummaryReport, accumulate, class_metrics, summarize


@dataclass(frozen=True)
class PriorsMap:
    """H×W×C spatial class priors, floored away from zero."""

    data: np.ndarray
    floor: float

    def __post_init__(self):
        data = _frozen_array(self.data, np.float64)
        _check_priors_shape(data.shape)
        _check_floor(self.floor)
        _check_prior_range(data, self.floor)
        object.__setattr__(self, "data", data)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


def _check_sigma(sigma: float) -> None:
    # Smoothing time grows with the 6*sigma + 1 taps: 0.2 s at 1e6 on 256×512, days at 1e12.
    if not 0 <= sigma <= 1e6:
        raise DomainError(f"sigma must lie in [0, 1e6], got {sigma}")


def _check_floor(floor: float) -> None:
    if not 0 < floor <= 1:
        raise DomainError(f"floor must lie in (0, 1], got {floor}")


def _check_priors_shape(shape: tuple) -> None:
    if len(shape) != 3 or 0 in shape:
        raise ShapeMismatchError(f"priors must be H*W*C, got shape {shape}")


def _check_prior_range(block: np.ndarray, floor: float) -> None:
    # The range check of a whole priors array or of one of its row blocks;
    # written so that a NaN fails it too.
    if not (block.min() >= floor and block.max() <= 1.0):
        raise DomainError("prior entries must lie in [floor, 1]")


# Taps per chunk when a Gaussian is folded onto its reflection period (at
# least one period): beyond the n×n operator, memory is bounded by the axis
# length and this constant, whatever sigma is.
_FOLD_TAPS = 2048


def _smoothing_operator(n: int, sigma: float) -> np.ndarray:
    """n×n matrix of the reflect-padded Gaussian blur along an axis of length n.

    The taps have radius ceil(3*sigma) and unit mass. Output i takes tap t
    from padded position i + t. Edge-repeating reflection has period 2n, so
    the taps are first summed onto one period, a chunk of taps at a time:
    the first pass takes their sum, the second folds the normalized taps,
    so ``period_taps[m]`` weighs position (i + m) mod 2n. Position q < n of
    a period is sample q and position q >= n is sample 2n - 1 - q, so each
    row folds its period's two halves onto the axis. Pads wider than the
    axis therefore wrap exactly.
    """
    radius = math.ceil(3.0 * sigma)
    period = 2 * n
    size = max(period, _FOLD_TAPS)
    starts = range(-radius, radius + 1, size)

    def taps(lo: int):
        t = np.arange(lo, min(lo + size, radius + 1))
        return t, np.exp(-0.5 * (t / sigma) ** 2)

    total = sum(taps(lo)[1].sum() for lo in starts)
    period_taps = np.zeros(period)
    for lo in starts:
        t, kernel = taps(lo)
        period_taps += np.bincount(t % period, weights=kernel / total, minlength=period)
    # Row i of the circulant is period_taps rolled right by i: the window of
    # the doubled taps that starts at 2n - i.
    doubled = np.concatenate([period_taps, period_taps])
    circulant = np.lib.stride_tricks.sliding_window_view(doubled, period)[period:n:-1]
    return circulant[:, :n] + circulant[:, : n - 1 : -1]


# Output rows per band of a smoothing operator: each band multiplies only the
# span of inputs its rows touch, which for sigma well below the axis length
# is a fraction of the axis.
_BAND_ROWS = 64


def _bands(op: np.ndarray) -> list:
    """(output rows, input span, contiguous block) for each band of an operator."""
    bands = []
    for r0 in range(0, op.shape[0], _BAND_ROWS):
        block = op[r0 : r0 + _BAND_ROWS]
        used = np.flatnonzero(block.any(axis=0))
        src = slice(used[0], used[-1] + 1)
        bands.append((slice(r0, r0 + len(block)), src, np.ascontiguousarray(block[:, src])))
    return bands


def _blur_bands(shape: tuple, sigma: float) -> list:
    """(rows, src, blur) for each band of output rows of the Gaussian blur of
    float64 planes of ``shape``, in row order.

    ``blur(span, tmp, out)`` writes the band's rows of the blur into ``out``
    from ``span``, the plane's input rows ``src`` in a C-contiguous array.
    ``tmp`` is scratch of at least ``len(rows)`` rows. ``out`` may be the
    first rows of ``span``: only the band's row product reads ``span``. The
    banded operators of both axes are built once, here, and shared read-only
    by every blur; the products write with ``out=``, so a band's products run
    back to back with no allocation between them. At sigma 0 the bands are
    plain row bands, ``src`` is ``rows`` and ``blur`` is None.
    """
    h, w = shape
    if sigma == 0:
        starts = range(0, h, _BAND_ROWS)
        return [(rows, rows, None) for rows in (slice(r, min(r + _BAND_ROWS, h)) for r in starts)]
    col_bands = _bands(_smoothing_operator(w, sigma))

    def blur_with(band: np.ndarray):
        def blur(span: np.ndarray, tmp: np.ndarray, out: np.ndarray) -> None:
            tmp = tmp[: len(band)]
            np.matmul(band, span, out=tmp)
            for cols, src, col_band in col_bands:
                np.matmul(tmp[:, src], col_band.T, out=out[:, cols])

        return blur

    row_bands = _bands(_smoothing_operator(h, sigma))
    return [(rows, src, blur_with(band)) for rows, src, band in row_bands]


def gaussian_smooth(field: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur with reflect padding; sigma = 0 is a no-op,
    and so is any sigma on an empty field.

    The kernel is truncated at radius ceil(3*sigma) and renormalized to unit
    mass, so constant fields pass through unchanged.
    """
    _check_sigma(sigma)
    field = np.array(field, dtype=np.float64, order="C")
    if field.ndim != 2:
        raise ShapeMismatchError(f"smoothing expects a 2-D field, got shape {field.shape}")
    if sigma == 0 or field.size == 0:
        return field
    out = np.empty_like(field)
    tmp = np.empty((min(len(field), _BAND_ROWS), field.shape[1]))
    for rows, src, blur in _blur_bands(field.shape, sigma):
        blur(field[src], tmp, out[rows])
    return out


def _class_counts(labels, num_classes: int) -> np.ndarray:
    """C×H×W per-location class counts over a stream of label maps.

    Maps are counted one at a time, so any iterable works; ignored pixels
    match no class and are not counted, and any other value that is not a
    class id raises. The counts are held in the smallest unsigned type that
    holds the number of maps counted so far: uint8 up to 255 maps, a quarter
    of int32's bytes, widened by one copy when the next map could overflow it.
    """
    counts = None
    for i, lm in enumerate(labels):
        d = lm.data
        if counts is None:
            counts = np.zeros((num_classes, *d.shape), dtype=np.uint8)
        elif d.shape != counts.shape[1:]:
            raise ShapeMismatchError(
                f"label maps differ in resolution: {d.shape} vs {counts.shape[1:]}"
            )
        _check_class_ids(lm, num_classes, f" of map {i}")
        counts = _widened(counts, i + 1)
        for k in range(num_classes):
            np.add(counts[k], d == k, out=counts[k])
    if counts is None:
        raise EmptyInputError("at least one label map is required")
    return counts


def _widened(counts: np.ndarray, n: int) -> np.ndarray:
    """``counts`` if its unsigned type holds ``n``, else a copy in the smallest that does."""
    if n <= np.iinfo(counts.dtype).max:
        return counts
    return counts.astype(np.min_scalar_type(n))


def _counted(labels, spec: ClassSpec, sigma: float, floor: float, jobs: int) -> np.ndarray:
    # The checks and the counting that both priors estimators run at the call.
    _check_floor(floor)
    _check_sigma(sigma)
    if jobs < 1:
        raise DomainError(f"jobs must be at least 1, got {jobs}")
    return _class_counts(labels, spec.num_classes)


def _priors_bands(counts: np.ndarray, sigma: float, floor: float, jobs: int, out=None):
    """``(rows, priors[rows])`` for each blur band of the priors of the C×H×W
    ``counts``, in row order: frequencies, smoothed, then clipped to [floor, 1].

    Each band is made in ``out[rows]``, or without ``out`` in one reused
    band buffer. For each band and class, the frequencies of the band's input
    span only are formed in a contiguous plane, blurred into its first rows
    and clipped into the class's channel of the band. The classes are dealt
    round-robin to ``min(jobs, C)`` workers of one pool that serves every
    band, each with its own span plane and scratch rows; every class runs the
    same steps whichever worker takes it, so the bytes do not depend on ``jobs``.
    """
    c, h, w = counts.shape
    # A total is at most the number of maps, which the counts' type holds.
    totals = counts.sum(axis=0, dtype=counts.dtype)
    unseen = np.flatnonzero(totals == 0)
    np.maximum(totals, 1, out=totals)
    bands = _blur_bands((h, w), sigma)
    band_rows = bands[0][0].stop  # the first band is the largest
    span_rows = max(src.stop - src.start for _, src, _ in bands)
    workers = min(jobs, c)
    scratch = [(np.empty((span_rows, w)), np.empty((band_rows, w)) if sigma else None)
               for _ in range(workers)]
    buf = np.empty((band_rows, w, c)) if out is None else None

    def work(first: int, rows: slice, src: slice, blur, span_unseen, block) -> None:
        # Workers write disjoint channels of ``block``.
        span, tmp = scratch[first]
        span = span[: src.stop - src.start]
        result = span[: rows.stop - rows.start]
        for k in range(first, c, workers):
            np.divide(counts[k, src], totals[src], out=span)
            span.reshape(-1)[span_unseen] = 1.0 / c
            if blur is not None:
                blur(span, tmp, result)
            np.clip(result, floor, 1.0, out=block[:, :, k])

    with worker_pool(workers) as map_items:
        for rows, src, blur in bands:
            block = buf[: rows.stop - rows.start] if out is None else out[rows]
            # The never-labelled pixels of the span, as flat indices into it.
            lo, hi = np.searchsorted(unseen, (src.start * w, src.stop * w))
            job = (rows, src, blur, unseen[lo:hi] - src.start * w, block)
            map_items(lambda first: work(first, *job), range(workers))
            yield rows, block


def estimate_priors_rows(labels, spec: ClassSpec, sigma: float, floor: float, *, jobs: int = 1):
    """The priors of :func:`estimate_priors` as a stream: ``(shape, blocks)``,
    H×W×C and the float64 priors a band of rows at a time, each band in one
    reused buffer, valid until the next is drawn. The maps are checked and
    counted at the call, so their errors raise before any block is drawn."""
    counts = _counted(labels, spec, sigma, floor, jobs)
    c, h, w = counts.shape
    return (h, w, c), _priors_bands(counts, sigma, floor, jobs)


def estimate_priors(
    labels, spec: ClassSpec, sigma: float, floor: float, *, jobs: int = 1
) -> PriorsMap:
    """Spatial priors: per-location frequencies, smoothed, then floored.

    The frequency of a class at a location is its count over the labels
    counted there: ignored pixels drop out of the denominator, and
    locations ignored in every map take the uniform 1/C. Flooring happens
    after smoothing and without renormalization; the ML argmax is
    scale-free per pixel, so renormalizing would change nothing.

    The bands of :func:`estimate_priors_rows` are made in place in the
    H×W×C output, so the only whole-map arrays are the compact counts and the
    output. ``jobs`` worker threads share the classes; the output's bytes do
    not depend on ``jobs``.
    """
    counts = _counted(labels, spec, sigma, floor, jobs)
    c, h, w = counts.shape
    out = np.empty((h, w, c))
    for _ in _priors_bands(counts, sigma, floor, jobs, out):
        pass
    out.setflags(write=False)  # handed over: PriorsMap adopts it without a copy
    return PriorsMap(data=out, floor=float(floor))


@contextmanager
def priors_rows(path, floor: float, shape: tuple | None = None):
    """Stream the priors SFT at ``path``: ``(dims, blocks)``, its float64 row
    blocks range-checked as :class:`PriorsMap` checks its data and handed over
    writeable (a float32 block is widened), each valid until the next is drawn.

    Entry checks the header and payload size; without ``shape`` (a header
    pass) the rank and ``floor`` too, with it that the dims still equal
    ``shape``. Every error names the file.
    """
    with sft_rows(path) as (dims, payload):
        if shape is None:
            with naming(path):
                _check_priors_shape(dims)
                _check_floor(floor)
        elif dims != shape:
            raise FormatError(f"{path}: priors of shape {shape} now have shape {dims}")

        def blocks():
            for rows, block in payload:
                block = block.astype(np.float64, copy=False)
                with naming(path):
                    _check_prior_range(block, floor)
                yield rows, block

        yield dims, blocks()


def decide_rows(shape: tuple, blocks, priors, ignore_id: int) -> LabelMap:
    """Argmax of an H×W×C map of ``shape`` streamed as (rows, block) pairs in
    row order; ties go to the lowest class id. ``priors`` is None (Bayes) or
    writeable float64 pairs that line up with the map's, as :func:`priors_rows`
    yields them (ML): each map block is divided by its priors block, into that
    block. Only the labels, in the smallest unsigned type that holds C - 1
    (uint8 up to 256 classes), and a block or two are held beyond the inputs."""
    h, w, c = shape
    labels = np.empty((h, w), dtype=np.min_scalar_type(c - 1))
    if priors is not None:
        blocks = _quotients(blocks, priors)
    for rows, block in blocks:
        labels[rows] = np.argmax(block, axis=2)
    labels.setflags(write=False)  # handed over: LabelMap adopts it without a copy
    return LabelMap(labels, ignore_id=ignore_id)


def _quotients(blocks, priors):
    # Each map block divided by its priors block, into that block, as a
    # (rows, quotient) pair. Each map block is drawn before its priors block,
    # so at one block the map's errors win over the priors'.
    for (rows, block), (_, prior) in zip(blocks, priors, strict=True):
        yield rows, np.divide(block, prior, out=prior)


def decide_bayes(p: ProbMap, ignore_id: int = DEFAULT_IGNORE_ID) -> LabelMap:
    """Per-pixel argmax of the posterior; ties go to the lowest class id."""
    return decide_rows(p.data.shape, _row_blocks(p.data), None, ignore_id)


def decide_ml(p: ProbMap, priors: PriorsMap, ignore_id: int = DEFAULT_IGNORE_ID) -> LabelMap:
    """Per-pixel argmax of posterior / prior; ties go to the lowest class id.

    The priors are float64, so the division runs in float64 for float32 maps too.
    """
    if priors.data.shape != p.data.shape:
        raise ShapeMismatchError(
            f"probabilities {p.data.shape} and priors {priors.data.shape} differ"
        )
    return decide_rows(p.data.shape, _row_blocks(p.data), _copied_blocks(priors.data), ignore_id)


def _copied_blocks(data: np.ndarray):
    # The row blocks of ``data`` as (rows, block) pairs, each copied into one
    # reused writeable buffer and valid until the next: what a reader hands over.
    buf = None
    for rows, block in _row_blocks(data):
        buf = np.empty_like(block) if buf is None else buf  # the first block is the largest
        out = buf[: len(block)]
        out[...] = block
        yield rows, out


@dataclass(frozen=True)
class RuleComparison:
    """Side-by-side evaluation of the Bayes and ML rules on one scene set."""

    bayes: SummaryReport
    ml: SummaryReport
    disagreement: int


def compare_rules(
    p: ProbMap, priors: PriorsMap, gt: LabelMap, groups: GroupSpec | None = None
) -> RuleComparison:
    """Run both rules against ground truth and count where they differ."""
    check_same_resolution((p.height, p.width), gt.data.shape)
    bayes_pred = decide_bayes(p, ignore_id=gt.ignore_id)
    ml_pred = decide_ml(p, priors, ignore_id=gt.ignore_id)
    c = p.num_classes
    bayes_cm = accumulate(ConfusionMatrix.empty(c), bayes_pred, gt)
    ml_cm = accumulate(ConfusionMatrix.empty(c), ml_pred, gt)
    return RuleComparison(
        bayes=summarize(class_metrics(bayes_cm), groups),
        ml=summarize(class_metrics(ml_cm), groups),
        disagreement=int((bayes_pred.data != ml_pred.data).sum()),
    )
