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
from dataclasses import dataclass

import numpy as np

from .core import (
    BLOCK_PIXELS,
    DEFAULT_IGNORE_ID,
    ClassSpec,
    LabelMap,
    ProbMap,
    _frozen_array,
    check_same_resolution,
)
from .errors import DomainError, EmptyInputError, ShapeMismatchError
from .metrics import ConfusionMatrix, GroupSpec, SummaryReport, accumulate, class_metrics, summarize


@dataclass(frozen=True)
class PriorsMap:
    """H×W×C spatial class priors, floored away from zero."""

    data: np.ndarray
    floor: float

    def __post_init__(self):
        data = _frozen_array(self.data, np.float64)
        if data.ndim != 3 or data.size == 0:
            raise ShapeMismatchError(f"priors must be H*W*C, got shape {data.shape}")
        _check_floor(self.floor)
        if data.min() < self.floor or data.max() > 1.0:
            raise DomainError("prior entries must lie in [floor, 1]")
        object.__setattr__(self, "data", data)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


def _reflect_indices(n: int, radius: int) -> np.ndarray:
    # Symmetric reflection with edge repeat; wraps for pads wider than the axis.
    idx = np.arange(-radius, n + radius)
    period = 2 * n
    j = np.mod(idx, period)
    return np.where(j >= n, period - 1 - j, j)


def _check_sigma(sigma: float) -> None:
    if not 0 <= sigma < math.inf:
        raise DomainError(f"sigma must be finite and non-negative, got {sigma}")


def _check_floor(floor: float) -> None:
    if not 0 < floor <= 1:
        raise DomainError(f"floor must lie in (0, 1], got {floor}")


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian taps with radius ceil(3*sigma)."""
    radius = math.ceil(3.0 * sigma)
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (x / sigma) ** 2)
    return kernel / kernel.sum()


def _smoothing_operator(n: int, kernel: np.ndarray) -> np.ndarray:
    """n×n matrix of the reflect-padded 1-D convolution along an axis of length n.

    Output i takes tap t from padded position i + t, whose source sample is
    the reflected index; taps that land on the same source are summed, so
    pads wider than the axis fold back exactly.
    """
    radius = (kernel.size - 1) // 2
    window = np.arange(n)[:, None] + np.arange(kernel.size)
    op = np.zeros((n, n))
    np.add.at(op, (np.arange(n)[:, None], _reflect_indices(n, radius)[window]), kernel)
    return op


def gaussian_smooth(field: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur with reflect padding; sigma = 0 is a no-op.

    The kernel is truncated at radius ceil(3*sigma) and renormalized to unit
    mass, so constant fields pass through unchanged.
    """
    _check_sigma(sigma)
    field = np.array(field, dtype=np.float64)
    if field.ndim != 2:
        raise ShapeMismatchError(f"smoothing expects a 2-D field, got shape {field.shape}")
    _smooth_channels(field[:, :, None], sigma)
    return field


def _smooth_channels(field: np.ndarray, sigma: float) -> None:
    """Blur each channel of an H×W×C float64 array in place, one channel at a time."""
    if sigma == 0:
        return
    kernel = gaussian_kernel(sigma)
    rows = _smoothing_operator(field.shape[0], kernel)
    cols = _smoothing_operator(field.shape[1], kernel)
    for k in range(field.shape[2]):
        field[:, :, k] = rows @ field[:, :, k] @ cols.T


def class_frequencies(labels, spec: ClassSpec) -> np.ndarray:
    """Per-location class frequencies over a stream of label maps.

    Maps are counted one at a time, so any iterable works. Ignored pixels
    drop out of that location's denominator; locations that are ignored
    everywhere fall back to the uniform distribution. Channel sums are 1 at
    every location.
    """
    c = spec.num_classes
    counts = shape = None
    for lm in labels:
        flat = lm.data.ravel()
        if counts is None:
            shape = lm.data.shape
            counts = np.zeros(flat.size * c, dtype=np.int64)
        elif lm.data.shape != shape:
            raise ShapeMismatchError(
                f"label maps differ in resolution: {lm.data.shape} vs {shape}"
            )
        keep = (flat >= 0) & (flat < c)
        np.add.at(counts, np.flatnonzero(keep) * c + flat[keep], 1)
    if counts is None:
        raise EmptyInputError("at least one label map is required")
    counts = counts.reshape(shape + (c,))
    totals = counts.sum(axis=2, keepdims=True)
    freq = counts / np.maximum(totals, 1)
    freq[totals[:, :, 0] == 0] = 1.0 / c
    return freq


def estimate_priors(labels, spec: ClassSpec, sigma: float, floor: float) -> PriorsMap:
    """Spatial priors: per-location frequencies, smoothed, then floored.

    Flooring happens after smoothing and without renormalization; the ML
    argmax is scale-free per pixel, so renormalizing would change nothing.
    """
    _check_floor(floor)
    _check_sigma(sigma)
    freq = class_frequencies(labels, spec)
    _smooth_channels(freq, sigma)
    np.clip(freq, floor, 1.0, out=freq)
    freq.setflags(write=False)  # handed over: PriorsMap adopts it without a copy
    return PriorsMap(data=freq, floor=float(floor))


def _labels(p: ProbMap, priors: PriorsMap | None, ignore_id: int) -> LabelMap:
    # Argmax over row blocks of about BLOCK_PIXELS pixels; with priors, each
    # block is first divided into one reused float64 buffer. Only the labels,
    # in the smallest unsigned type that holds C - 1 (uint8 up to 256
    # classes), and one block are ever held beyond the inputs.
    h, w, c = p.data.shape
    step = max(1, BLOCK_PIXELS // w)
    labels = np.empty((h, w), dtype=np.min_scalar_type(c - 1))
    buf = None if priors is None else np.empty((min(step, h), w, c), dtype=np.float64)
    for r0 in range(0, h, step):
        rows = slice(r0, r0 + step)
        block = p.data[rows]
        if priors is not None:
            block = np.divide(block, priors.data[rows], out=buf[: len(block)])
        labels[rows] = np.argmax(block, axis=2)
    labels.setflags(write=False)  # handed over: LabelMap adopts it without a copy
    return LabelMap(labels, ignore_id=ignore_id)


def decide_bayes(p: ProbMap, ignore_id: int = DEFAULT_IGNORE_ID) -> LabelMap:
    """Per-pixel argmax of the posterior; ties go to the lowest class id."""
    return _labels(p, None, ignore_id)


def decide_ml(p: ProbMap, priors: PriorsMap, ignore_id: int = DEFAULT_IGNORE_ID) -> LabelMap:
    """Per-pixel argmax of posterior / prior; ties go to the lowest class id.

    The priors are float64, so the division runs in float64 for float32 maps too.
    """
    if p.data.shape != priors.data.shape:
        raise ShapeMismatchError(
            f"probabilities {p.data.shape} and priors {priors.data.shape} differ"
        )
    return _labels(p, priors, ignore_id)


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
    check_same_resolution(p, gt)
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
