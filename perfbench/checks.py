"""Independent references for the program's outputs.

Each ``check_*`` function reads what one command wrote, recomputes it with
plain numpy (and scipy for smoothing) from the generated inputs, and returns
a list of problems; an empty list means the output is correct. None of this
code calls into segrecall.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from formats import read_pgm, read_sft
from inputs import CLASSES, GROUPS, IGNORE_ID

PRIORS_TOL = 1e-9  # the library's smoothing contract
LOSS_RTOL = 1e-9
GCN_TOL = 1e-9
GCN_ROW_STRIDE = 16  # the GCN reference is evaluated on every 16th row
LOG_CLAMP = 1e-12
WCE_SMOOTHING = 1.02
LEAKY_SLOPE = 0.01


def _manifest_paths(manifest: Path, key: str) -> list[Path]:
    entries = json.loads(manifest.read_text())["entries"]
    return [manifest.parent / e[key] for e in entries]


def _membership() -> np.ndarray:
    member = np.full(len(CLASSES), -1)
    for g, (_, names) in enumerate(GROUPS):
        member[[CLASSES.index(n) for n in names]] = g
    return member


def _close(name: str, got: float, want: float, rtol: float) -> list[str]:
    if abs(got - want) <= rtol * max(abs(want), 1e-12):
        return []
    return [f"{name}: got {got!r}, reference {want!r}"]


# --------------------------------------------------------------------- priors


def reference_priors(manifest: Path, sigma: float, floor: float) -> np.ndarray:
    """Per-pixel class frequencies from bincount, Gaussian-smoothed, floored."""
    from scipy.ndimage import gaussian_filter1d

    c = len(CLASSES)
    counts = None
    for path in _manifest_paths(manifest, "labels"):
        labels = read_pgm(path).astype(np.int64)
        keep = labels != IGNORE_ID
        index = np.flatnonzero(keep) * c + labels[keep]
        part = np.bincount(index, minlength=labels.size * c)
        counts = part if counts is None else counts + part
    counts = counts.reshape(labels.shape + (c,)).astype(np.float64)
    totals = counts.sum(axis=2, keepdims=True)
    freq = np.where(totals > 0, counts / np.maximum(totals, 1.0), 1.0 / c)
    if sigma > 0:
        radius = math.ceil(3.0 * sigma)
        for axis in (0, 1):
            freq = gaussian_filter1d(freq, sigma, axis=axis, mode="reflect", radius=radius)
    return np.clip(freq, floor, 1.0)


def check_priors(manifest: Path, out: Path, sigma: float, floor: float) -> list[str]:
    got = read_sft(out)
    want = reference_priors(manifest, sigma, floor)
    if got.shape != want.shape:
        return [f"{out}: shape {got.shape}, reference {want.shape}"]
    err = float(np.max(np.abs(got - want)))
    return [] if err <= PRIORS_TOL else [f"{out}: max |priors - reference| = {err:.3g}"]


# ------------------------------------------------------------------ decisions


def check_decisions(manifest: Path, out_dir: Path, priors: Path | None) -> list[str]:
    """Bayes labels are argmax p; ML labels are argmax p / priors, exactly."""
    prior = None if priors is None else read_sft(priors)
    problems = []
    for path in _manifest_paths(manifest, "probs"):
        p = read_sft(path)
        scores = p if prior is None else p.astype(np.float64) / prior
        want = np.argmax(scores, axis=2)
        target = out_dir / (path.stem + ".pgm")
        got = read_pgm(target)
        if got.shape != want.shape or not np.array_equal(got, want):
            problems.append(f"{target}: labels differ from the numpy argmax")
    return problems


def check_evaluate(manifest: Path, csv_path: Path) -> list[str]:
    """Per-class support and total_pixels equal a bincount of the ground truth."""
    c = len(CLASSES)
    support = np.zeros(c, dtype=np.int64)
    for path in _manifest_paths(manifest, "labels"):
        labels = read_pgm(path)
        support += np.bincount(labels[labels != IGNORE_ID], minlength=c)[:c]
    rows = {row["class"]: row for row in csv.DictReader(csv_path.open())}
    problems = []
    for k, name in enumerate(CLASSES):
        got = int(rows[name]["support"]) if name in rows else None
        if got != int(support[k]):
            problems.append(f"{csv_path}: support of {name} is {got}, reference {support[k]}")
    total = int(support.sum())
    if rows.get("mean", {}).get("support") != str(total):
        problems.append(f"{csv_path}: mean-row support differs from {total}")
    sidecar = json.loads(Path(str(csv_path) + ".json").read_text())
    if sidecar.get("total_pixels") != total:
        problems.append(f"{csv_path}.json: total_pixels {sidecar.get('total_pixels')} != {total}")
    return problems


# --------------------------------------------------------------------- losses


def _gathered(inputs: Path):
    labels = read_pgm(inputs / "labels.pgm")
    keep = labels != IGNORE_ID
    y = labels[keep].astype(np.int64)
    p = read_sft(inputs / "probs.sft")
    return labels, p, y, p[keep][np.arange(y.size), y].astype(np.float64)


def reference_ial(inputs: Path, lam: float = 0.5, alpha: float = 1.0) -> dict:
    """Group cross-entropy means, dynamic weights and multipliers of the loss."""
    _, _, y, py = _gathered(inputs)
    member = _membership()
    group = member[y]
    levels = len(GROUPS)
    ce = -np.log(np.clip(py, LOG_CLAMP, None))
    group_losses = [float(ce[group == g].mean()) if (group == g).any() else 0.0
                    for g in range(levels)]
    weights = []
    for t in range(1, levels + 1):
        m = np.full(len(CLASSES), np.nan)
        if t < levels:
            m[member > t - 1] = 1.0
            m[member == t - 1] = 0.0
        else:
            m[member == levels - 1] = 1.0
        target = m[y]
        live = ~np.isnan(target)
        miss = np.sqrt(target[live] + lam) * (py[live] - target[live])
        weights.append(float(np.mean(miss**2)) if live.any() else 0.0)
    mult = [1.0] + [weights[l - 1] + alpha for l in range(1, levels - 1)]
    mult.append((weights[-2] + alpha) * (weights[-1] + alpha))
    total = sum(m * g for m, g in zip(mult, group_losses))
    counts = [int((group == g).sum()) for g in range(levels)]
    return {"group_losses": group_losses, "dynamic_weights": weights, "multipliers": mult,
            "total": total, "counts": counts}


def check_loss_ial(report_path: Path, ref: dict) -> list[str]:
    report = json.loads(report_path.read_text())
    problems = _close(f"{report_path} value", report["value"], ref["total"], LOSS_RTOL)
    for key in ("group_losses", "dynamic_weights", "multipliers"):
        for i, (got, want) in enumerate(zip(report[key], ref[key], strict=True)):
            problems += _close(f"{report_path} {key}[{i}]", got, want, LOSS_RTOL)
    return problems


def check_loss_wce(inputs: Path, report_path: Path) -> list[str]:
    """Mean of -w[y] ln p_y with w = 1 / ln(1.02 + f), f from the label map."""
    _, _, y, py = _gathered(inputs)
    freq = np.bincount(y, minlength=len(CLASSES)) / y.size
    w = 1.0 / np.log(WCE_SMOOTHING + freq)
    want = float(np.mean(-np.log(np.clip(py, LOG_CLAMP, None)) * w[y]))
    report = json.loads(report_path.read_text())
    problems = _close(f"{report_path} value", report["value"], want, LOSS_RTOL)
    for k, (got, ref) in enumerate(zip(report["weights"], w, strict=True)):
        problems += _close(f"{report_path} weights[{k}]", got, float(ref), LOSS_RTOL)
    return problems


def check_step(inputs: Path, step_path: Path, ref: dict) -> list[str]:
    """Loss total, and gradient rows (m_g / n_g) * (p - onehot) at sampled pixels."""
    result = json.loads(step_path.read_text())
    problems = _close(f"{step_path} total", result["total"], ref["total"], LOSS_RTOL)
    labels, p, _, _ = _gathered(inputs)
    member = _membership()
    for y, x, row in result["samples"]:
        label = int(labels[y, x])
        want = np.zeros(len(CLASSES))
        if label != IGNORE_ID:
            g = member[label]
            w = ref["multipliers"][g] / ref["counts"][g]
            want = w * p[y, x].astype(np.float64)
            want[label] -= w
        err = float(np.max(np.abs(np.asarray(row) - want)))
        if err > 1e-12:
            problems.append(f"{step_path}: gradient at ({y}, {x}) is off by {err:.3g}")
    return problems


# ------------------------------------------------------------------------ gcn


def reference_classifier(inputs: Path) -> np.ndarray:
    """C×D classifier rows: (D^-1 A) H W per layer, leaky between layers."""
    member = _membership()
    adjacency = (member[:, None] >= member[None, :]).astype(np.float64)
    a_hat = adjacency / adjacency.sum(axis=1, keepdims=True)
    out = np.eye(len(CLASSES))
    layers = [read_sft(inputs / "w0.sft"), read_sft(inputs / "w1.sft")]
    for i, w in enumerate(layers):
        out = (a_hat @ out) @ w
        if i < len(layers) - 1:
            out = np.where(out >= 0, out, LEAKY_SLOPE * out)
    return out


def check_gcn(inputs: Path, out_dir: Path) -> list[str]:
    """labels = argmax probs exactly; probs = softmax(features · rows) on sampled rows."""
    probs = read_sft(out_dir / "probs.sft")
    labels = read_pgm(out_dir / "labels.pgm")
    problems = []
    if not np.array_equal(labels, np.argmax(probs, axis=2)):
        problems.append(f"{out_dir}/labels.pgm differs from the argmax of probs.sft")
    feats = read_sft(inputs / "features.sft")[::GCN_ROW_STRIDE].astype(np.float64)
    scores = feats @ reference_classifier(inputs).T
    scores = np.exp(scores - scores.max(axis=2, keepdims=True))
    scores /= scores.sum(axis=2, keepdims=True)
    got = probs[::GCN_ROW_STRIDE]
    err = float(np.max(np.abs(got - scores))) if got.shape == scores.shape else math.inf
    if err > GCN_TOL:
        problems.append(f"{out_dir}/probs.sft: max |probs - reference| = {err:.3g}")
    return problems
