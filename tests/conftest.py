import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from segrecall import ClassSpec, LabelMap, ProbMap
from segrecall.fileio import write_label_map, write_sft


@pytest.fixture
def spec3():
    return ClassSpec(names=("road", "building", "rider"))


def softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def random_probmap(rng, h, w, c):
    return ProbMap(softmax(rng.normal(size=(h, w, c))))


def peak_traced_bytes(fn, *args):
    """Peak bytes traced while ``fn(*args)`` runs (numpy reports its buffers)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_labelmap(rng, h, w, c, ignore_id=255, ignore_frac=0.1):
    data = rng.integers(0, c, size=(h, w))
    data[rng.random((h, w)) < ignore_frac] = ignore_id
    return LabelMap(data.astype(np.int64), ignore_id=ignore_id)


# ---------------------------------------------------------------------------
# Synthetic 8-image pipeline fixture.
#
# A 16x16 scene with a dominant road band, a building band, and a rare
# "rider" zone that appears in only 2 of the 8 images. Zone probabilities
# favor road (0.55 vs 0.45), so the plain argmax misses every rider pixel
# while dividing by the location priors (rider prior 0.25 there) recovers
# them; rider recall goes from 0 to 1 and no other class loses a pixel.

FIXTURE_CLASSES = {"names": ["road", "building", "rider"], "ignore_id": 255}
ZONE_ROWS = slice(14, 16)
ZONE_COLS = slice(4, 12)
RIDER_IMAGES = (0, 1)


def build_pipeline_fixture(root: Path) -> dict:
    root = Path(root)
    (root / "labels").mkdir(parents=True)
    (root / "probs").mkdir(parents=True)
    entries = []
    for i in range(8):
        gt = np.zeros((16, 16), dtype=np.int64)
        gt[10:14, :] = 1
        probs = np.zeros((16, 16, 3), dtype=np.float64)
        probs[:10, :, 0] = 1.0
        probs[10:14, :, 1] = 1.0
        probs[14:, :, 0] = 1.0
        if i in RIDER_IMAGES:
            gt[ZONE_ROWS, ZONE_COLS] = 2
            probs[ZONE_ROWS, ZONE_COLS, 0] = 0.55
            probs[ZONE_ROWS, ZONE_COLS, 2] = 0.45
        else:
            probs[ZONE_ROWS, ZONE_COLS, 0] = 0.80
            probs[ZONE_ROWS, ZONE_COLS, 2] = 0.20
        gt[0, i] = 255
        write_label_map(root / "labels" / f"img{i}.pgm", LabelMap(gt))
        write_sft(root / "probs" / f"img{i}.sft", probs.astype(np.float32))
        entries.append({"probs": f"probs/img{i}.sft", "labels": f"labels/img{i}.pgm"})
    manifest = root / "manifest.json"
    manifest.write_text(json.dumps({"classes": FIXTURE_CLASSES, "entries": entries}, indent=2))
    classes = root / "classes.json"
    classes.write_text(json.dumps(FIXTURE_CLASSES, indent=2))
    return {"root": root, "manifest": manifest, "classes": classes, "labels": root / "labels"}


@pytest.fixture
def pipeline_fixture(tmp_path):
    return build_pipeline_fixture(tmp_path / "fixture")
