"""Confusion-matrix accumulation and per-class / per-group P, R, IoU reports.

A 0/0 metric is reported as ``None`` (never NaN) and excluded from means, so
classes absent from both prediction and ground truth cannot bias a summary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _LABEL_BLOCK_PIXELS, ClassSpec, LabelMap, _frozen_array, _outside_ids, _row_slices
from .fileio import json_field, json_value, load_json
from .errors import (
    DomainError,
    FormatError,
    InvalidClassError,
    ShapeMismatchError,
    UngroupedClassError,
    naming,
)


@dataclass(frozen=True)
class ConfusionMatrix:
    """counts[g, p] = number of pixels with ground truth g predicted as p."""

    counts: np.ndarray

    def __post_init__(self):
        counts = _frozen_array(self.counts, np.int64)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1] or counts.shape[0] == 0:
            raise ShapeMismatchError(f"confusion matrix must be square, got {counts.shape}")
        if (counts < 0).any():
            raise DomainError("confusion counts must be non-negative")
        object.__setattr__(self, "counts", counts)

    @classmethod
    def empty(cls, num_classes: int) -> "ConfusionMatrix":
        return cls(np.zeros((num_classes, num_classes), dtype=np.int64))

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def accumulate(cm: ConfusionMatrix, pred: LabelMap, gt: LabelMap) -> ConfusionMatrix:
    """Count (gt, pred) pairs over non-ignored pixels into a new matrix.

    Pixels whose ground truth equals the ignore id contribute nothing. The
    prediction must not contain ignore ids or out-of-range classes there,
    nor the ground truth out-of-range classes; a prediction error anywhere
    wins, and each error names the first bad value, row-major. The maps are
    counted row block by row block, so beyond them only one block's
    temporaries are held.
    """
    if pred.data.shape != gt.data.shape:
        raise ShapeMismatchError(
            f"prediction {pred.data.shape} and ground truth {gt.data.shape} differ"
        )
    c = cm.num_classes
    counts = np.zeros(c * c, dtype=np.int64)
    gt_error = None
    for rows in _row_slices(*gt.data.shape, _LABEL_BLOCK_PIXELS):
        gt_block = gt.data[rows]
        keep = gt_block != gt.ignore_id
        pv = pred.data[rows][keep]
        bad = _outside_ids(pv, c)
        bad |= pv == pred.ignore_id
        if bad.any():
            raise InvalidClassError(f"prediction contains invalid class id {int(pv[bad][0])}")
        if gt_error is not None:
            continue  # nothing more is counted, but a later prediction error still wins
        gv = gt_block[keep]
        bad = _outside_ids(gv, c)
        if bad.any():
            value = int(gv[bad][0])
            gt_error = (
                f"ground truth contains negative class id {value}" if value < 0
                else f"ground truth contains class id {value} >= {c}"
            )
            continue
        # The code g*c + p that bincount counts. The prediction's values lie
        # in [0, c), so the unsafe cast is exact, also from uint64 (whose sum
        # with intp numpy would promote to float64).
        codes = gv.astype(np.intp)
        codes *= c
        np.add(codes, pv, out=codes, casting="unsafe")
        counts += np.bincount(codes, minlength=c * c)
    if gt_error is not None:
        raise InvalidClassError(gt_error)
    return ConfusionMatrix(cm.counts + counts.reshape(c, c))


def merge(a: ConfusionMatrix, b: ConfusionMatrix) -> ConfusionMatrix:
    """Combine independently accumulated matrices (associative, commutative)."""
    if a.num_classes != b.num_classes:
        raise ShapeMismatchError("cannot merge confusion matrices of different sizes")
    return ConfusionMatrix(a.counts + b.counts)


@dataclass(frozen=True)
class ClassMetrics:
    """Precision, recall, IoU for one class; None marks a 0/0 denominator."""

    precision: float | None
    recall: float | None
    iou: float | None
    support: int = 0


def class_metrics(cm: ConfusionMatrix) -> tuple[ClassMetrics, ...]:
    counts = cm.counts
    row = counts.sum(axis=1)
    col = counts.sum(axis=0)
    out = []
    for k in range(cm.num_classes):
        tp = int(counts[k, k])
        fn = int(row[k]) - tp
        fp = int(col[k]) - tp
        precision = tp / (tp + fp) if tp + fp else None
        recall = tp / (tp + fn) if tp + fn else None
        iou = tp / (tp + fp + fn) if tp + fp + fn else None
        out.append(ClassMetrics(precision, recall, iou, support=tp + fn))
    return tuple(out)


def iou_from_pr(precision: float, recall: float) -> float:
    """IoU implied by precision and recall: 1 / (1/P + 1/R - 1)."""
    if precision <= 0 or recall <= 0:
        raise DomainError(f"precision and recall must be positive, got {precision}, {recall}")
    return 1.0 / (1.0 / precision + 1.0 / recall - 1.0)


@dataclass(frozen=True)
class GroupSpec:
    """Ordered, disjoint class-id groups; position 0 is the least important."""

    num_classes: int
    groups: tuple[tuple[int, ...], ...]
    names: tuple[str, ...] = ()

    def __post_init__(self):
        groups = tuple(tuple(int(c) for c in g) for g in self.groups)
        names = tuple(self.names) or tuple(f"G{i + 1}" for i in range(len(groups)))
        if len(names) != len(groups):
            raise UngroupedClassError("one name per group is required")
        seen: set[int] = set()
        for g in groups:
            for c in g:
                if not 0 <= c < self.num_classes:
                    raise UngroupedClassError(f"class id {c} is outside 0..{self.num_classes - 1}")
                if c in seen:
                    raise UngroupedClassError(f"class id {c} appears in more than one group")
                seen.add(c)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "names", names)

    def __len__(self) -> int:
        return len(self.groups)

    def membership(self) -> np.ndarray:
        """Length-C array mapping class id -> group index, -1 if ungrouped."""
        member = np.full(self.num_classes, -1, dtype=np.int64)
        for gi, g in enumerate(self.groups):
            for c in g:
                member[c] = gi
        return member


@dataclass(frozen=True)
class GroupMeans:
    name: str
    precision: float | None
    recall: float | None
    iou: float | None
    support: int


@dataclass(frozen=True)
class SummaryReport:
    per_class: tuple[ClassMetrics, ...]
    mean_precision: float | None
    mean_recall: float | None
    mean_iou: float | None
    total_support: int
    groups: tuple[GroupMeans, ...]


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def summarize(metrics, groups: GroupSpec | None = None) -> SummaryReport:
    """Unweighted means of each metric over all defined classes and per group.

    Classes with an undefined metric are excluded from that metric's mean.
    """
    metrics = tuple(metrics)

    def means_over(ids):
        return (
            _mean([metrics[k].precision for k in ids if metrics[k].precision is not None]),
            _mean([metrics[k].recall for k in ids if metrics[k].recall is not None]),
            _mean([metrics[k].iou for k in ids if metrics[k].iou is not None]),
            sum(metrics[k].support for k in ids),
        )

    mp, mr, mi, support = means_over(range(len(metrics)))
    group_rows = []
    if groups is not None:
        if groups.num_classes != len(metrics):
            raise ShapeMismatchError(
                f"group spec covers {groups.num_classes} classes, metrics have {len(metrics)}"
            )
        for name, ids in zip(groups.names, groups.groups):
            gp, gr, gi, gs = means_over(ids)
            group_rows.append(
                GroupMeans(name=name, precision=gp, recall=gr, iou=gi, support=gs)
            )
    return SummaryReport(
        per_class=metrics,
        mean_precision=mp,
        mean_recall=mr,
        mean_iou=mi,
        total_support=support,
        groups=tuple(group_rows),
    )


def render_metrics_csv(report: SummaryReport, class_names) -> str:
    """CSV with one row per class, a trailing mean row, and per-group rows.

    Values use 4 decimal places; undefined metrics print as empty fields.
    """

    def fmt(v):
        return "" if v is None else f"{v:.4f}"

    lines = ["class,precision,recall,iou,support"]
    for name, m in zip(class_names, report.per_class):
        lines.append(f"{name},{fmt(m.precision)},{fmt(m.recall)},{fmt(m.iou)},{m.support}")
    lines.append(
        f"mean,{fmt(report.mean_precision)},{fmt(report.mean_recall)},"
        f"{fmt(report.mean_iou)},{report.total_support}"
    )
    for g in report.groups:
        lines.append(f"{g.name},{fmt(g.precision)},{fmt(g.recall)},{fmt(g.iou)},{g.support}")
    return "\n".join(lines) + "\n"


def parse_group_spec(payload: dict, spec: ClassSpec, source) -> GroupSpec:
    """Build a GroupSpec from a parsed {"groups": [{"name", "classes"}...]} payload.

    Groups are ordered least to most important. Classes are names (resolved
    against the class spec) or integer ids; a group without a name is called
    G<position>. Every malformed part raises FormatError with a message that
    starts with ``source``, the file or preset the payload came from.
    """
    names, groups = [], []
    for i, item in enumerate(json_field(payload, "groups", list, source)):
        where = f"{source}: group {i}"
        item = json_value(item, dict, where)
        name = json_field(item, "name", str, where, f"G{i + 1}")
        members = []
        for ref in json_field(item, "classes", list, where, []):
            if isinstance(ref, str):
                if ref not in spec.names:
                    raise FormatError(f"{source}: group {name!r}: unknown class name {ref!r}")
                members.append(spec.names.index(ref))
            else:
                members.append(json_value(ref, int, f"{source}: group {name!r}: class id"))
        names.append(name)
        groups.append(tuple(members))
    with naming(source):
        return GroupSpec(num_classes=spec.num_classes, groups=tuple(groups), names=tuple(names))


def load_group_spec(path, spec: ClassSpec) -> GroupSpec:
    """Read a GroupSpec from a groups JSON file (see :func:`parse_group_spec`)."""
    return parse_group_spec(load_json(path), spec, path)
