"""Cross-entropy variants and the importance-aware loss with analytic gradients.

The importance-aware loss splits pixels into importance groups G1..GL (least
to most important), takes the mean cross-entropy I_l of each group, and
scales the more important groups by dynamic weights measuring how far the
ground-truth-channel outputs p' sit from per-level targets m_t:

    f_t = mean over contributing pixels of [ sqrt(m_t[y] + lambda) * (p' - m_t[y]) ]^2

    total = I_1 + (f_1 + alpha) * I_2 + (f_2 + alpha) * (f_3 + alpha) * I_3

With a single group the loss degenerates to plain unweighted cross-entropy.
Group terms use means (not sums) so lambda and alpha behave identically at
any image resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    LOG_CLAMP,
    LabelMap,
    ProbMap,
    _block_rows,
    _check_class_ids,
    _frozen_array,
    _row_blocks,
    check_same_resolution,
)
from .errors import DomainError, ShapeMismatchError, UngroupedClassError, naming
from .fileio import json_field, json_value, load_json
from .metrics import GroupSpec, parse_group_spec


def check_smoothing(smoothing: float) -> None:
    """Raise DomainError unless the frequency smoothing constant is finite and exceeds 1."""
    if not 1.0 < smoothing < math.inf:
        raise DomainError(f"smoothing must be finite and exceed 1, got {smoothing}")


@dataclass(frozen=True)
class FrequencyWeights:
    """Per-class weights 1 / ln(a + f) from class pixel frequencies f.

    The smoothing constant a must exceed 1 so every weight stays finite and
    positive; rarer classes get strictly larger weights.
    """

    frequencies: np.ndarray
    smoothing: float = 1.02

    def __post_init__(self):
        freq = _frozen_array(self.frequencies, np.float64)
        if freq.ndim != 1 or freq.size == 0:
            raise ShapeMismatchError("frequencies must be a non-empty 1-D vector")
        if not ((freq >= 0) & (freq <= 1)).all():
            raise DomainError("class frequencies must be finite and lie in [0, 1]")
        check_smoothing(self.smoothing)
        object.__setattr__(self, "frequencies", freq)

    @property
    def weights(self) -> np.ndarray:
        return 1.0 / np.log(self.smoothing + self.frequencies)


def class_pixel_frequencies(labels, num_classes: int) -> np.ndarray:
    """Share of non-ignored pixels per class over a sequence of label maps,
    each held to ``LabelMap.from_array``'s class-id rule (InvalidClassError)."""
    counts = np.zeros(num_classes, dtype=np.int64)
    total = 0
    for lm in labels:
        _check_class_ids(lm, num_classes)
        values = lm.data[lm.mask()]
        counts += np.bincount(values, minlength=num_classes)
        total += values.size
    if total == 0:
        return np.zeros(num_classes, dtype=np.float64)
    return counts / total


MASKED = np.nan  # masked entries of a target vector take no part in f_t


@dataclass(frozen=True)
class ImportanceConfig:
    """Importance groups plus the scalars and target vectors driving the loss.

    ``targets`` may be given explicitly (one length-C vector per level, NaN
    marking masked classes); otherwise the default construction is used:
    level t < L scores classes above level t against 1, level-t classes
    against 0, and masks the rest; the final level targets only the top group.
    """

    groups: GroupSpec
    lam: float = 0.5
    alpha: float = 1.0
    explicit_targets: tuple | None = None

    def __post_init__(self):
        if len(self.groups) == 0:
            raise UngroupedClassError("at least one importance group is required")
        if not 0 <= self.lam < math.inf:
            raise DomainError(f"lambda must be finite and non-negative, got {self.lam}")
        if not 0 <= self.alpha < math.inf:
            raise DomainError(f"alpha must be finite and non-negative, got {self.alpha}")
        if self.explicit_targets is not None:
            targets = tuple(_frozen_array(t, np.float64) for t in self.explicit_targets)
            if len(targets) != len(self.groups):
                raise ShapeMismatchError(
                    f"{len(targets)} target vectors for {len(self.groups)} groups"
                )
            for t in targets:
                if t.shape != (self.groups.num_classes,):
                    raise ShapeMismatchError(
                        f"target vector shape {t.shape} != ({self.groups.num_classes},)"
                    )
                live = t[~np.isnan(t)]
                if ((live < 0) | (live > 1)).any():
                    raise DomainError("target entries must lie in [0, 1] or be masked")
            object.__setattr__(self, "explicit_targets", targets)

    @property
    def targets(self) -> tuple:
        if self.explicit_targets is not None:
            return self.explicit_targets
        return default_importance_targets(self.groups)


def default_importance_targets(groups: GroupSpec) -> tuple:
    """Per-level target vectors from the nested group construction."""
    member = groups.membership()
    levels = len(groups)
    out = []
    for t in range(1, levels + 1):
        m = np.full(groups.num_classes, MASKED, dtype=np.float64)
        if t < levels:
            m[member > t - 1] = 1.0
            m[member == t - 1] = 0.0
        else:
            m[member == levels - 1] = 1.0
        m.setflags(write=False)
        out.append(m)
    return tuple(out)


def gt_channel_values(shape: tuple, blocks, gt: LabelMap):
    """(flat pixel index, label, p') over the non-ignored pixels of ``gt``, in row-major order.

    p' is gathered in float64 from ``blocks``, the (rows, block) pairs that
    cover an H×W×C probability map of ``shape`` in row order, so a map that
    streams is never held whole. The labels keep the map's own dtype; first,
    ``gt`` is held to ``LabelMap.from_array``'s class-id rule for C classes.
    """
    h, w, c = shape
    check_same_resolution((h, w), gt.data.shape)
    _check_class_ids(gt, c)
    flat = np.flatnonzero(gt.mask())
    labels = gt.data.reshape(-1)[flat]
    py = np.empty(flat.size, dtype=np.float64)
    for rows, block in blocks:
        sel, at = _labelled(flat, rows, w)
        py[sel] = block.reshape(-1)[_channel_index(at, c, labels[sel])]
    return flat, labels, py


def _labelled(flat, rows: slice, width: int):
    """``(sel, at)`` for the row block ``rows`` of a map ``width`` pixels wide:
    the slice of ``flat`` (sorted flat pixel indices) that falls in the block,
    and those pixels' flat indices within the block."""
    first = rows.start * width
    lo, hi = np.searchsorted(flat, (first, rows.stop * width))
    return slice(lo, hi), flat[lo:hi] - first


def _channel_index(at, c: int, labels) -> np.ndarray:
    """The flat index ``at * c + labels`` into a block of ``c`` channels, in intp
    even for uint64 labels (which numpy would promote to float64)."""
    return np.add(at * c, labels, dtype=np.intp, casting="unsafe")


def _map_values(p: ProbMap, gt: LabelMap, cfg: ImportanceConfig | None = None):
    """:func:`gt_channel_values` of a whole map; the groups of ``cfg``, if
    given, must cover the map's classes (else ShapeMismatchError)."""
    if cfg is not None and cfg.groups.num_classes != p.num_classes:
        raise ShapeMismatchError(
            f"importance groups cover {cfg.groups.num_classes} classes, "
            f"the map has {p.num_classes}"
        )
    return gt_channel_values(p.data.shape, _row_blocks(p.data), gt)


def cross_entropy(p: ProbMap, gt: LabelMap, weights: FrequencyWeights | None = None) -> float:
    """Mean of -w[y] * ln p'(y) over non-ignored pixels (w = 1 when unweighted).

    Probabilities are clamped below at 1e-12 before the log.
    """
    _, labels, py = _map_values(p, gt)
    return cross_entropy_values(labels, py, weights, p.num_classes)


def cross_entropy_values(labels, py, weights: FrequencyWeights | None, num_classes: int) -> float:
    """:func:`cross_entropy` of the (labels, p') that :func:`gt_channel_values`
    gathers from a map of ``num_classes`` channels."""
    if labels.size == 0:
        return 0.0
    loss = -np.log(np.clip(py, LOG_CLAMP, None))
    if weights is not None:
        w = weights.weights
        if w.shape[0] != num_classes:
            raise ShapeMismatchError(f"{w.shape[0]} frequency weights for {num_classes} classes")
        loss = loss * w[labels]
    return float(loss.mean())


def _dynamic_weight(labels: np.ndarray, py: np.ndarray, target: np.ndarray, lam: float) -> float:
    # Per-class tables gathered by label, and one p' copy worked in place:
    # the same bits as mean((sqrt(m + lam) * (p' - m))**2) over m = target[labels].
    live = np.isnan(target)[labels]
    np.logical_not(live, out=live)
    if not live.any():
        return 0.0
    live_labels = labels[live]
    miss = py[live]
    miss -= target[live_labels]
    miss *= np.sqrt(target + lam)[live_labels]
    np.square(miss, out=miss)
    return float(np.mean(miss))


@dataclass(frozen=True)
class IALBreakdown:
    """Per-group loss terms, dynamic weights, and the combined total."""

    group_losses: tuple[float, ...]
    dynamic_weights: tuple[float, ...]
    multipliers: tuple[float, ...]
    total: float


def _multipliers(f: tuple[float, ...], alpha: float) -> tuple[float, ...]:
    # Group 1 is unscaled; the top group compounds the last two weights.
    levels = len(f)
    if levels == 1:
        return (1.0,)
    mult = [1.0]
    for l in range(1, levels - 1):
        mult.append(f[l - 1] + alpha)
    mult.append((f[levels - 2] + alpha) * (f[levels - 1] + alpha))
    return tuple(mult)


def _label_groups(labels: np.ndarray, cfg: ImportanceConfig) -> np.ndarray:
    """The importance group of each gathered label; an ungrouped class raises."""
    grp = cfg.groups.membership()[labels]
    if (grp < 0).any():
        missing = sorted(int(c) for c in np.unique(labels[grp < 0]))
        raise UngroupedClassError(f"class ids {missing} are in no importance group")
    return grp


def _level_weights(labels, py, cfg: ImportanceConfig) -> tuple[float, ...]:
    """Every level's dynamic weight, from one gather of (labels, p')."""
    return tuple(_dynamic_weight(labels, py, m, cfg.lam) for m in cfg.targets)


def ial(p: ProbMap, gt: LabelMap, cfg: ImportanceConfig) -> IALBreakdown:
    """Importance-aware loss with its full per-group breakdown.

    Every class present in the (non-ignored) ground truth must belong to a
    group. Empty groups contribute a zero loss term.
    """
    _, labels, py = _map_values(p, gt, cfg)
    return ial_values(labels, py, cfg)


def ial_values(labels, py, cfg: ImportanceConfig) -> IALBreakdown:
    """:func:`ial` of the (labels, p') that :func:`gt_channel_values` gathers from a map."""
    grp = _label_groups(labels, cfg)
    ce = -np.log(np.clip(py, LOG_CLAMP, None))
    group_losses = []
    for l in range(len(cfg.groups)):
        sel = grp == l
        group_losses.append(float(ce[sel].mean()) if sel.any() else 0.0)
    f = _level_weights(labels, py, cfg)
    mult = _multipliers(f, cfg.alpha)
    return IALBreakdown(
        group_losses=tuple(group_losses),
        dynamic_weights=f,
        multipliers=mult,
        total=float(sum(m * i for m, i in zip(mult, group_losses))),
    )


def _pixel_weights(labels, py, cfg: ImportanceConfig) -> np.ndarray:
    """Each gathered (label, p') pixel's multiplier / its group's pixel count."""
    grp = _label_groups(labels, cfg)
    multipliers = _multipliers(_level_weights(labels, py, cfg), cfg.alpha)
    counts = np.bincount(grp, minlength=len(multipliers)).tolist()
    return np.array([m / n if n else 0.0 for m, n in zip(multipliers, counts)])[grp]


def ial_gradient(p: ProbMap, gt: LabelMap, cfg: ImportanceConfig) -> np.ndarray:
    """Gradient of the loss w.r.t. pre-softmax logits, H×W×C float64.

    Dynamic weights are frozen at the current probabilities (they are not
    differentiated through), so each pixel contributes
    (multiplier / group pixel count) * (softmax - indicator of the label); ignored pixels
    get a zero gradient (their weight 0 times a probability in [0, 1]).
    """
    flat, labels, py = _map_values(p, gt, cfg)
    w = _pixel_weights(labels, py, cfg)
    grad = np.empty(p.data.shape, dtype=np.float64)
    for rows, block in _row_blocks(p.data):
        _gradient_rows(rows, block, flat, labels, w, grad[rows])
    return grad


def _gradient_rows(rows: slice, block, flat, labels, w, out) -> np.ndarray:
    """``out``, holding the gradient of a map's row block ``rows``, ``block``: the block
    widened, scaled by its pixels' weights ``w``, less those at the gathered ``labels``."""
    sel, at = _labelled(flat, rows, block.shape[1])
    scale = np.zeros((*block.shape[:2], 1))
    scale.reshape(-1)[at] = w[sel]
    np.multiply(block, scale, out=out)
    out.reshape(-1)[_channel_index(at, block.shape[2], labels[sel])] -= w[sel]
    return out


FD_STEP = 1e-6  # logit step of the central differences in check_gradient


def check_gradient(p: ProbMap, gt: LabelMap, cfg: ImportanceConfig) -> float:
    """Max relative error of the analytic gradient vs central differences.

    With the dynamic weights frozen (the analytic gradient's contract), the
    objective is a sum of per-pixel terms w_i * ce_i, and a logit of pixel i
    moves only term i; so that term's difference is the objective's, without
    the cancellation noise of the other N - 1 terms. Ignored pixels carry no
    term and differ by exactly 0. Each row block's softmax q is formed once:
    bumping logit k by h divides p' by 1 + q_k * expm1(h), and multiplies it
    by e^h when k is the label, so each bump costs O(1) per pixel and the
    check runs at full resolution. Saturated probabilities still make the
    differences noisy.
    """
    return check_gradient_values(p.data.shape, _row_blocks(p.data), *_map_values(p, gt, cfg), cfg)


def check_gradient_values(shape: tuple, blocks, flat, labels, py, cfg: ImportanceConfig) -> float:
    """:func:`check_gradient` of the map of ``shape`` streamed as ``blocks``, from the (flat,
    labels, p') gathered from it; one row block of gradient is held, never the whole map."""
    w = _pixel_weights(labels, py, cfg)  # formed once, for both sides
    analytic = np.empty((min(shape[0], _block_rows(shape[1])), *shape[1:]))
    worst = 0.0
    for rows, block in blocks:
        a = _gradient_rows(rows, block, flat, labels, w, analytic[: len(block)])
        fd = _central_differences(rows, block, flat, labels, w)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(a)), 1e-10)
        worst = max(worst, float((np.abs(fd - a) / denom).max()))
    return worst


def _central_differences(rows: slice, block, flat, labels, w) -> np.ndarray:
    """:func:`check_gradient`'s differences of the frozen objective w.r.t. the logits ln p
    (p' clamped as in the loss) over :func:`_gradient_rows`' block, in the block's shape."""
    c = block.shape[2]
    z = np.log(np.clip(block.reshape(-1, c).astype(np.float64), LOG_CLAMP, None))
    q = np.exp(z - z.max(axis=1, keepdims=True))
    q /= q.sum(axis=1, keepdims=True)
    sel, at = _labelled(flat, rows, block.shape[1])
    label, weight = np.zeros(len(q), dtype=np.int64), np.zeros(len(q))
    label[at], weight[at] = labels[sel], w[sel]
    py = q[np.arange(len(q)), label]
    columns = q.T.copy()  # one contiguous row per channel
    fd = np.empty_like(q)
    for k in range(c):
        at_k, terms = label == k, []
        for step in (FD_STEP, -FD_STEP):
            bumped = py / (1.0 + columns[k] * math.expm1(step))
            bumped[at_k] *= math.exp(step)
            terms.append(weight * -np.log(np.clip(bumped, LOG_CLAMP, None)))
        fd[:, k] = (terms[0] - terms[1]) / (2 * FD_STEP)
    return fd.reshape(block.shape)


def load_importance_config(path, spec) -> ImportanceConfig:
    """Read an ImportanceConfig from JSON.

    Schema: {"groups": [{"name", "classes"}...], "lambda": 0.5, "alpha": 1.0,
    "targets": optional list of per-level vectors with null = masked}.
    Groups are read by :func:`metrics.parse_group_spec`; every malformed part
    raises FormatError naming the file.
    """
    payload = load_json(path)
    groups = parse_group_spec(payload, spec, path)
    targets = json_field(payload, "targets", list, path, None)
    if targets is not None:
        entry = f"{path}: a target entry"
        vectors = [json_value(vec, list, f"{path}: a target vector") for vec in targets]
        targets = tuple(
            np.array([math.nan if v is None else json_value(v, float, entry) for v in vec])
            for vec in vectors
        )
    lam = json_field(payload, "lambda", float, path, 0.5)
    alpha = json_field(payload, "alpha", float, path, 1.0)
    with naming(path):
        return ImportanceConfig(groups=groups, lam=lam, alpha=alpha, explicit_targets=targets)
