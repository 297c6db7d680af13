"""Seeded synthetic Cityscapes-like inputs for the benchmark workloads.

Run as its own process so that the memory the generator touches never shows
up in the high-water mark of the processes being measured::

    python3 perfbench/inputs.py WORKLOAD SEED OUT_DIR [--tiny]

The same workload, seed and size always give byte-identical files. Labels
look like street scenes: a sky band over a building band over a road band,
with sidewalk, terrain, trees, poles, fences, small blobs of the rare classes
and a void (255) border. Each probability map is a float32 softmax of noisy
logits peaked at the true class.
"""

from __future__ import annotations

import argparse
import json
import os
import zlib
from pathlib import Path

import numpy as np

from formats import write_pgm, write_sft

IGNORE_ID = 255
CLASSES = (
    "road", "sidewalk", "building", "wall", "fence", "pole", "traffic light", "sign",
    "tree", "terrain", "sky", "pedestrian", "rider", "car", "truck", "bus", "train",
    "motorcycle", "bicycle",
)
# The Cityscapes importance groups, least to most important (the same grouping
# as the CLI's ``--groups cityscapes`` preset, written out for the commands
# that take a groups file).
GROUPS = (
    ("G1", ("road", "building", "wall", "tree", "terrain", "sky")),
    ("G2", ("car", "sidewalk", "fence", "pole", "pedestrian")),
    ("G3", ("sign", "rider", "truck", "bus", "train", "motorcycle", "bicycle", "traffic light")),
)
RARE = ("traffic light", "sign", "pedestrian", "rider", "car", "truck", "bus", "train",
        "motorcycle", "bicycle")
FEATURE_DIM = 16
GCN_HIDDEN = 32

# Input sizes per workload: (label maps, height, width). --tiny shrinks them
# for the self-check, which only needs every code path to run once.
SIZES = {
    "priors-sigma40": {"bench": (16, 256, 512), "tiny": (3, 48, 96)},
    "batch-decide": {"bench": (8, 512, 1024), "tiny": (3, 32, 64)},
    "fullres-pair": {"bench": (1, 1024, 2048), "tiny": (1, 32, 64)},
}


def _cls(name: str) -> int:
    return CLASSES.index(name)


def street_scene(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """One H×W uint8 label map with street-scene structure."""
    rows = np.arange(h, dtype=np.float64)[:, None]
    cols = np.arange(w, dtype=np.float64)[None, :] / w
    phase = rng.uniform(0, 2 * np.pi, size=2)
    sky_edge = h * (0.25 + 0.08 * rng.random() + 0.05 * np.sin(2 * np.pi * 2 * cols + phase[0]))
    road_edge = h * (0.55 + 0.06 * rng.random() + 0.02 * np.sin(2 * np.pi * cols + phase[1]))
    labels = np.full((h, w), _cls("building"), dtype=np.uint8)
    labels[np.broadcast_to(rows < sky_edge, (h, w))] = _cls("sky")
    below = np.broadcast_to(rows >= road_edge, (h, w))
    labels[below] = _cls("road")
    side = float(rng.uniform(0.12, 0.22))
    labels[below & ((cols < side) | (cols > 1 - side))] = _cls("sidewalk")
    labels[below & ((cols < side / 3) | (cols > 1 - side / 3))] = _cls("terrain")
    band = np.broadcast_to((rows >= sky_edge) & (rows < road_edge), (h, w))
    for name, count, width in (("tree", 3, 0.08), ("wall", 1, 0.1), ("pole", 6, 0.004)):
        for _ in range(count):
            x0 = rng.random()
            labels[band & (cols >= x0) & (cols < x0 + width)] = _cls(name)
    fence = np.broadcast_to((rows >= road_edge - 0.04 * h) & (rows < road_edge), (h, w))
    labels[fence & (cols > 0.6)] = _cls("fence")
    for _ in range(12):
        name = RARE[int(rng.integers(len(RARE)))]
        cy = rng.uniform(0.4, 0.85) * h
        cx = rng.uniform(0.05, 0.95) * w
        ry, rx = rng.uniform(0.01, 0.06) * h, rng.uniform(0.01, 0.05) * w
        y0, y1 = int(max(cy - ry, 0)), int(min(cy + ry + 1, h))
        x0, x1 = int(max(cx - rx, 0)), int(min(cx + rx + 1, w))
        yy = (np.arange(y0, y1)[:, None] - cy) / max(ry, 1.0)
        xx = (np.arange(x0, x1)[None, :] - cx) / max(rx, 1.0)
        patch = labels[y0:y1, x0:x1]
        patch[yy**2 + xx**2 <= 1.0] = _cls(name)
    border = max(2, h // 64)
    labels[:border, :] = IGNORE_ID
    labels[-border:, :] = IGNORE_ID
    labels[:, :border] = IGNORE_ID
    labels[:, -border:] = IGNORE_ID
    hood = np.broadcast_to(rows > h * 0.94 - 0.03 * h * np.cos(np.pi * (cols - 0.5)), (h, w))
    labels[hood] = IGNORE_ID
    return labels


def softmax_map(rng: np.random.Generator, labels: np.ndarray, num_classes: int) -> np.ndarray:
    """H×W×C float32 softmax of unit-normal logits lifted by 3 at the true class."""
    logits = rng.standard_normal(labels.shape + (num_classes,), dtype=np.float32)
    truth = np.where(labels == IGNORE_ID, rng.integers(0, num_classes, size=labels.shape), labels)
    np.put_along_axis(logits, truth[..., None].astype(np.intp), 3.0, axis=2)
    logits -= logits.max(axis=2, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=2, keepdims=True)
    return logits


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _groups_json() -> dict:
    return {"groups": [{"name": n, "classes": list(c)} for n, c in GROUPS]}


def generate(workload: str, seed: int, out: Path, size: str = "bench") -> dict:
    """Write the inputs of ``workload`` into ``out``; returns their description."""
    count, h, w = SIZES[workload][size]
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    c = len(CLASSES)
    out.mkdir(parents=True, exist_ok=True)
    classes = {"names": list(CLASSES), "ignore_id": IGNORE_ID}
    _write_json(out / "classes.json", classes)
    shapes: dict = {}
    if workload in ("priors-sigma40", "batch-decide"):
        (out / "labels").mkdir(exist_ok=True)
        entries = []
        for i in range(count):
            labels = street_scene(rng, h, w)
            write_pgm(out / "labels" / f"img{i:03d}.pgm", labels)
            entry = {"labels": f"labels/img{i:03d}.pgm"}
            if workload == "batch-decide":
                (out / "probs").mkdir(exist_ok=True)
                write_sft(out / "probs" / f"img{i:03d}.sft", softmax_map(rng, labels, c))
                entry["probs"] = f"probs/img{i:03d}.sft"
            entries.append(entry)
        _write_json(out / "manifest.json", {"classes": classes, "entries": entries})
        shapes["labels"] = [count, h, w]
        if workload == "batch-decide":
            shapes["probs"] = [count, h, w, c]
    else:
        labels = street_scene(rng, h, w)
        write_pgm(out / "labels.pgm", labels)
        write_sft(out / "probs.sft", softmax_map(rng, labels, c))
        # Features carry a class-dependent mean so the graph classifier's
        # labels follow the scene instead of being pure noise.
        centers = rng.standard_normal((c + 1, FEATURE_DIM)).astype(np.float32)
        feats = rng.standard_normal((h, w, FEATURE_DIM), dtype=np.float32)
        feats += centers[np.minimum(labels, c)]
        write_sft(out / "features.sft", feats)
        write_sft(out / "w0.sft", rng.uniform(-0.5, 0.5, size=(c, GCN_HIDDEN)))
        write_sft(out / "w1.sft", rng.uniform(-0.5, 0.5, size=(GCN_HIDDEN, FEATURE_DIM)))
        _write_json(out / "graph.json", _groups_json())
        _write_json(out / "importance.json", {**_groups_json(), "lambda": 0.5, "alpha": 1.0})
        shapes.update(labels=[h, w], probs=[h, w, c], features=[h, w, FEATURE_DIM],
                      weights=[[c, GCN_HIDDEN], [GCN_HIDDEN, FEATURE_DIM]])
    # Flushed to disk now, so that write-back of the fresh files does not
    # compete with the first timed pass.
    for path in out.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
    info = {"workload": workload, "seed": seed, "size": size, "shapes": shapes}
    # Written last: its presence marks a complete input set.
    _write_json(out / "inputs.json", info)
    return info


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(SIZES))
    parser.add_argument("seed", type=int)
    parser.add_argument("out", type=Path)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out, "tiny" if args.tiny else "bench")
