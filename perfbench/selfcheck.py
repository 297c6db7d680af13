"""Self-check of the benchmark's output checks, on tiny inputs.

    python3 perfbench/selfcheck.py

Runs every workload's commands once on tiny inputs and requires every
reference check to pass. Then it corrupts one output at a time (one label
flipped, one float nudged, one count changed) and requires the matching
check to report it; last, it feeds the repeat-run comparison two runs whose
outputs differ. Exits 0 only if every clean output passes and every
corruption is caught.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

import run
from workloads import WORKLOADS


def _flip_label(path: Path) -> None:
    blob = bytearray(path.read_bytes())
    blob[-1] = (blob[-1] + 1) % 19
    path.write_bytes(bytes(blob))


def _nudge_float(path: Path, delta: float = 1e-6) -> None:
    blob = bytearray(path.read_bytes())
    rank = blob[5]
    dtype = np.float32 if blob[4] == 0 else np.float64
    start = 6 + 4 * rank
    value = np.frombuffer(bytes(blob[start:start + np.dtype(dtype).itemsize]), dtype=dtype)
    blob[start:start + value.nbytes] = (value + dtype(delta)).tobytes()
    path.write_bytes(bytes(blob))


def _edit_json(path: Path, edit) -> None:
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def _scale(key: str):
    def edit(payload):
        payload[key] = payload[key] * (1 + 1e-6)
    return edit


def _bump_support(path: Path) -> None:
    lines = path.read_text().splitlines()
    name, *rest, support = lines[1].split(",")
    lines[1] = ",".join([name, *rest, str(int(support) + 1)])
    path.write_text("\n".join(lines) + "\n")


def _nudge_gradient(payload) -> None:
    payload["samples"][0][2][0] += 1e-9


# (workload, op whose check must fail, file relative to the output dir, corruption)
CORRUPTIONS = [
    ("priors-sigma40", "priors_s", "priors.sft", _nudge_float),
    ("batch-decide", "setup_priors", "priors.sft", _nudge_float),
    ("batch-decide", "decide_ml_s", "ml/img000.pgm", _flip_label),
    ("batch-decide", "decide_bayes_s", "bayes/img001.pgm", _flip_label),
    ("batch-decide", "evaluate_s", "metrics.csv", _bump_support),
    ("batch-decide", "evaluate_s", "metrics.csv.json",
     lambda p: _edit_json(p, lambda d: d.update(total_pixels=d["total_pixels"] + 1))),
    ("fullres-pair", "loss_ial_s", "loss_ial.json", lambda p: _edit_json(p, _scale("value"))),
    ("fullres-pair", "loss_wce_s", "loss_wce.json", lambda p: _edit_json(p, _scale("value"))),
    ("fullres-pair", "loss_step_s", "step.json", lambda p: _edit_json(p, _scale("total"))),
    ("fullres-pair", "loss_step_s", "step.json", lambda p: _edit_json(p, _nudge_gradient)),
    ("fullres-pair", "gcn_s", "gcn/labels.pgm", _flip_label),
    ("fullres-pair", "gcn_s", "gcn/probs.sft", _nudge_float),
]


def main() -> int:
    if not run.sources_present():
        return 2
    failures = []
    for name, workload in WORKLOADS.items():
        inp, _ = run.prepare_inputs(name, seed=0, size="tiny")
        out = run.WORK / name / "selfcheck"
        if out.exists():
            shutil.rmtree(out)
        (out / "logs").mkdir(parents=True)
        runner = run.Runner(out / "logs")
        for op in workload.setup(inp, out) + workload.ops(inp, out):
            if runner.run(op).code != 0:
                failures.append(f"{name}: {op.metric} exited non-zero")
        checks = workload.check(inp, out)
        for metric, problems in run.run_checks(checks).items():
            failures += [f"{name}: clean output failed {metric}: {p}" for p in problems]
        for target_workload, metric, rel, corrupt in CORRUPTIONS:
            if target_workload != name:
                continue
            path = out / rel
            original = path.read_bytes()
            corrupt(path)
            caught = run.run_checks({metric: checks[metric]})[metric]
            path.write_bytes(original)
            print(f"{name}: corrupted {rel}: {'caught' if caught else 'MISSED'}")
            if not caught:
                failures.append(f"{name}: corrupting {rel} was not caught by {metric}")
    tally = run.Tally()
    a = run.Sample("decide_ml_s", 0, 1.0, 1.0, 1.0, b"", digest="a")
    b = run.Sample("decide_ml_s", 0, 1.0, 1.0, 1.0, b"", digest="b")
    run.verify(tally, [a, b], {})
    print(f"repeat run with different output: {'caught' if tally.failed == 1 else 'MISSED'}")
    if tally.failed != 1:
        failures.append("a repeat run with different output was not caught")
    for failure in failures:
        print(f"self-check failed: {failure}", file=sys.stderr)
    print("self-check " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
