"""One importance-aware training step through the library: ``losses.ial``
followed by ``losses.ial_gradient`` on one probability/label pair.

    python3 perfbench/step.py --probs P.sft --labels L.pgm --classes C.json \
        --config IMPORTANCE.json --out STEP.json

Prints ``{"step_s": ...}``, the seconds spent in the two calls, on stdout.
Writes the deterministic results to ``--out``: the loss total, the SHA-256 of
the gradient and the gradient rows at a fixed grid of pixels, which the
benchmark compares with its own reference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from segrecall import fileio, losses

SAMPLE_GRID = 8  # gradient rows are reported at SAMPLE_GRID x SAMPLE_GRID pixels


def sample_pixels(h: int, w: int) -> list[tuple[int, int]]:
    return [
        (y * h // SAMPLE_GRID + h // (2 * SAMPLE_GRID), x * w // SAMPLE_GRID + w // (2 * SAMPLE_GRID))
        for y in range(SAMPLE_GRID)
        for x in range(SAMPLE_GRID)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ial + ial_gradient on one map pair")
    for flag in ("--probs", "--labels", "--classes", "--config", "--out"):
        parser.add_argument(flag, required=True)
    args = parser.parse_args(argv)
    spec = fileio.load_class_spec(args.classes)
    p = fileio.read_prob_map(args.probs, spec)
    gt = fileio.read_label_map(args.labels, spec)
    cfg = losses.load_importance_config(args.config, spec)
    start = time.perf_counter()
    breakdown = losses.ial(p, gt, cfg)
    grad = losses.ial_gradient(p, gt, cfg)
    elapsed = time.perf_counter() - start
    pixels = sample_pixels(*grad.shape[:2])
    result = {
        "total": breakdown.total,
        "grad_sha256": hashlib.sha256(grad.tobytes()).hexdigest(),
        "samples": [[y, x, grad[y, x].tolist()] for y, x in pixels],
    }
    Path(args.out).write_text(json.dumps(result, sort_keys=True) + "\n")
    print(json.dumps({"step_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
