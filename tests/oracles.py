"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive (triple loops, dense convolutions,
finite differences) and shares no code with the package internals.
"""

import math

import numpy as np


def naive_confusion(pred, gt, num_classes, ignore_id):
    """Per-pixel triple-loop confusion counting."""
    counts = [[0] * num_classes for _ in range(num_classes)]
    h, w = gt.shape
    for y in range(h):
        for x in range(w):
            g = int(gt[y, x])
            if g == ignore_id:
                continue
            counts[g][int(pred[y, x])] += 1
    return counts


def naive_class_metrics(counts):
    """(precision, recall, iou) per class from a list-of-lists matrix."""
    num_classes = len(counts)
    out = []
    for k in range(num_classes):
        tp = counts[k][k]
        fn = sum(counts[k]) - tp
        fp = sum(counts[g][k] for g in range(num_classes)) - tp
        precision = tp / (tp + fp) if tp + fp else None
        recall = tp / (tp + fn) if tp + fn else None
        iou = tp / (tp + fp + fn) if tp + fp + fn else None
        out.append((precision, recall, iou))
    return out


def class_frequencies(label_arrays, num_classes):
    """Per-location class frequencies, H×W×C float64, by scattered int64 counts.

    Labels outside [0, C) are ignored and leave the denominator; a location
    ignored in every map gets the uniform 1/C.
    """
    counts = None
    for labels in label_arrays:
        flat = np.asarray(labels).ravel()
        if counts is None:
            shape = np.shape(labels)
            counts = np.zeros(flat.size * num_classes, dtype=np.int64)
        keep = (flat >= 0) & (flat < num_classes)
        np.add.at(counts, np.flatnonzero(keep) * num_classes + flat[keep], 1)
    counts = counts.reshape(shape + (num_classes,))
    totals = counts.sum(axis=2, keepdims=True)
    freq = counts / np.maximum(totals, 1)
    freq[totals[:, :, 0] == 0] = 1.0 / num_classes
    return freq


def dense_gaussian_2d(field, sigma):
    """Direct 2-D convolution with the outer-product Gaussian kernel."""
    radius = math.ceil(3.0 * sigma)
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k1 = np.exp(-0.5 * (x / sigma) ** 2)
    k1 /= k1.sum()
    kernel = np.outer(k1, k1)
    padded = np.pad(np.asarray(field, dtype=np.float64), radius, mode="symmetric")
    h, w = field.shape
    out = np.empty((h, w), dtype=np.float64)
    size = 2 * radius + 1
    for yy in range(h):
        for xx in range(w):
            out[yy, xx] = float(np.sum(kernel * padded[yy : yy + size, xx : xx + size]))
    return out


def grouped_dynamic_weight(prob_data, labels, ignore_id, target, lam):
    """Mean squared sqrt(m+lam)*(p'-m) over unmasked, non-ignored pixels."""
    total = 0.0
    n = 0
    h, w = labels.shape
    for y in range(h):
        for x in range(w):
            g = int(labels[y, x])
            if g == ignore_id:
                continue
            m = target[g]
            if math.isnan(m):
                continue
            miss = math.sqrt(m + lam) * (float(prob_data[y, x, g]) - m)
            total += miss * miss
            n += 1
    return total / n if n else 0.0


def frozen_objective(logits, labels, ignore_id, member, multipliers):
    """Sum over groups of multiplier * mean cross-entropy of that group."""
    z = logits - logits.max(axis=2, keepdims=True)
    q = np.exp(z)
    q /= q.sum(axis=2, keepdims=True)
    per_group_sum = [0.0] * len(multipliers)
    per_group_n = [0] * len(multipliers)
    h, w = labels.shape
    for y in range(h):
        for x in range(w):
            g = int(labels[y, x])
            if g == ignore_id:
                continue
            level = int(member[g])
            per_group_sum[level] += -math.log(max(float(q[y, x, g]), 1e-12))
            per_group_n[level] += 1
    total = 0.0
    for level, mult in enumerate(multipliers):
        if per_group_n[level]:
            total += mult * per_group_sum[level] / per_group_n[level]
    return total


def fd_gradient(logits, labels, ignore_id, member, multipliers, step=1e-6):
    """Central finite differences of the frozen-weight objective."""
    grad = np.zeros_like(logits)
    h, w, c = logits.shape
    for y in range(h):
        for x in range(w):
            for k in range(c):
                bumped = logits.copy()
                bumped[y, x, k] += step
                above = frozen_objective(bumped, labels, ignore_id, member, multipliers)
                bumped[y, x, k] -= 2 * step
                below = frozen_objective(bumped, labels, ignore_id, member, multipliers)
                grad[y, x, k] = (above - below) / (2 * step)
    return grad


def naive_ial_gradient(prob_data, labels, ignore_id, member, multipliers):
    """Per-pixel loop: (multiplier / group size) * (p - one_hot), zero where ignored.

    Each entry is formed as w * p, then w is subtracted at the label channel,
    so with the same multipliers the result is bit-identical to the library.
    """
    h, w, c = prob_data.shape
    counts = [0] * len(multipliers)
    for y in range(h):
        for x in range(w):
            g = int(labels[y, x])
            if g != ignore_id:
                counts[int(member[g])] += 1
    grad = np.zeros((h, w, c), dtype=np.float64)
    for y in range(h):
        for x in range(w):
            g = int(labels[y, x])
            if g == ignore_id:
                continue
            level = int(member[g])
            scale = multipliers[level] / counts[level]
            for k in range(c):
                grad[y, x, k] = scale * float(prob_data[y, x, k])
            grad[y, x, g] -= scale
    return grad


def blocked_softmax(features, rows, block):
    """Pixel classifier in one loop: each block of ``block`` pixels is scored
    against ``rows`` and then softmaxed before the next block is scored.

    Each block's scores come from the same BLAS product as the library's, and
    a maximum is exact, so the result is bit-identical to the library's.
    """
    h, w, d = features.shape
    pixels = features.reshape(h * w, d)
    out = np.empty((h * w, rows.shape[0]), dtype=np.float64)
    for start in range(0, h * w, block):
        blk = slice(start, start + block)
        scores = np.matmul(pixels[blk].astype(np.float64), rows.T, out=out[blk])
        scores -= scores.max(axis=1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=1, keepdims=True)
    return out.reshape(h, w, rows.shape[0])
