"""The benchmark's workloads: what each runs, why it exists, and how its
outputs are checked.

Every workload uses the 19 Cityscapes classes with ignore id 255, and every
batch command runs with ``--jobs 2``. A pass runs the workload's operations
one after another, each in its own process, the way a user at a shell would.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

JOBS = ["--jobs", "2"]


@dataclass(frozen=True)
class Op:
    """One command of a pass: ``entry`` is "cli" (``segrecall.cli``) or "step"
    (``perfbench/step.py``); ``outputs`` are the files and directories, relative
    to the output directory, that must be byte-identical on every pass."""

    metric: str
    entry: str
    args: list[str]
    outputs: list[str]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (inputs dir, output dir) -> commands run once before timing starts
    setup: Callable[[Path, Path], list[Op]]
    # (inputs dir, output dir) -> commands of one timed pass
    ops: Callable[[Path, Path], list[Op]]
    # (inputs dir, output dir) -> {op metric: check returning the problems
    # found in that op's outputs}
    check: Callable[[Path, Path], dict[str, Callable[[], list[str]]]]


# ---------------------------------------------------------------- priors-sigma40

SIGMA, FLOOR = 40.0, 1e-5


def _priors_ops(inp: Path, out: Path) -> list[Op]:
    return [Op("priors_s", "cli", ["priors", "--manifest", str(inp / "manifest.json"),
                                   "--sigma", str(SIGMA), "--floor", str(FLOOR),
                                   "--out", str(out / "priors.sft"), *JOBS],
               ["priors.sft", "priors.sft.json"])]


def _priors_check(inp: Path, out: Path) -> dict:
    return {"priors_s": lambda: checks.check_priors(inp / "manifest.json", out / "priors.sft",
                                                    SIGMA, FLOOR)}


# ------------------------------------------------------------------ batch-decide

# The ML rule's priors are estimated once, before timing, without smoothing,
# so smoothing does no work in this workload. With only a handful of maps the
# raw frequencies are zero almost everywhere; the higher floor keeps the ML
# labels close to the scene instead of picking unseen classes everywhere.
BATCH_FLOOR = 0.05


def _batch_setup(inp: Path, out: Path) -> list[Op]:
    return [Op("setup_priors", "cli", ["priors", "--manifest", str(inp / "manifest.json"),
                                       "--sigma", "0", "--floor", str(BATCH_FLOOR),
                                       "--out", str(out / "priors.sft"), *JOBS],
               ["priors.sft", "priors.sft.json"])]


def _batch_ops(inp: Path, out: Path) -> list[Op]:
    manifest = str(inp / "manifest.json")
    return [
        Op("decide_ml_s", "cli", ["decide", "--probs", manifest, "--rule", "ml",
                                  "--priors", str(out / "priors.sft"), "--out", str(out / "ml"),
                                  *JOBS], ["ml"]),
        Op("decide_bayes_s", "cli", ["decide", "--probs", manifest, "--rule", "bayes",
                                     "--out", str(out / "bayes"), *JOBS], ["bayes"]),
        Op("evaluate_s", "cli", ["evaluate", "--pred", str(out / "ml"), "--gt", str(inp / "labels"),
                                 "--classes", str(inp / "classes.json"), "--groups", "cityscapes",
                                 "--out", str(out / "metrics.csv"), *JOBS],
           ["metrics.csv", "metrics.csv.json"]),
    ]


def _batch_check(inp: Path, out: Path) -> dict:
    manifest = inp / "manifest.json"
    return {
        "setup_priors": lambda: checks.check_priors(manifest, out / "priors.sft", 0.0,
                                                    BATCH_FLOOR),
        "decide_ml_s": lambda: checks.check_decisions(manifest, out / "ml", out / "priors.sft"),
        "decide_bayes_s": lambda: checks.check_decisions(manifest, out / "bayes", None),
        "evaluate_s": lambda: checks.check_evaluate(manifest, out / "metrics.csv"),
    }


# ------------------------------------------------------------------ fullres-pair


def _pair_ops(inp: Path, out: Path) -> list[Op]:
    pair = ["--probs", str(inp / "probs.sft"), "--labels", str(inp / "labels.pgm"),
            "--classes", str(inp / "classes.json")]
    return [
        Op("loss_ial_s", "cli", ["loss", *pair, "--loss", "ial",
                                 "--config", str(inp / "importance.json"),
                                 "--out", str(out / "loss_ial.json")], ["loss_ial.json"]),
        Op("loss_wce_s", "cli", ["loss", *pair, "--loss", "wce",
                                 "--out", str(out / "loss_wce.json")], ["loss_wce.json"]),
        Op("loss_step_s", "step", [*pair, "--config", str(inp / "importance.json"),
                                   "--out", str(out / "step.json")], ["step.json"]),
        Op("gcn_s", "cli", ["gcn", "--features", str(inp / "features.sft"),
                            "--graph", str(inp / "graph.json"),
                            "--weights", str(inp / "w0.sft"), str(inp / "w1.sft"),
                            "--classes", str(inp / "classes.json"), "--out", str(out / "gcn")],
           ["gcn"]),
    ]


def _pair_check(inp: Path, out: Path) -> dict:
    ref = functools.cache(lambda: checks.reference_ial(inp))
    return {
        "loss_ial_s": lambda: checks.check_loss_ial(out / "loss_ial.json", ref()),
        "loss_wce_s": lambda: checks.check_loss_wce(inp, out / "loss_wce.json"),
        "loss_step_s": lambda: checks.check_step(inp, out / "step.json", ref()),
        "gcn_s": lambda: checks.check_gcn(inp, out / "gcn"),
    }


def _none(inp: Path, out: Path) -> list[Op]:
    return []


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "priors-sigma40",
            "label-only 256x512 manifest through priors at sigma 40 (241 taps): smoothing "
            "and counting do the work and no probability map is read",
            _none, _priors_ops, _priors_check,
        ),
        Workload(
            "batch-decide",
            "8 maps of 512x1024x19 through decide ml, decide bayes and evaluate with --jobs 2: "
            "SFT reads, validation, decision rules, PGM writes, confusion counts, thread pool",
            _batch_setup, _batch_ops, _batch_check,
        ),
        Workload(
            "fullres-pair",
            "one 1024x2048 pair plus 16-d features: loss ial, loss wce, the ial+gradient step "
            "and gcn on one large working set (160 MB input, about 1.1 GB peak RSS)",
            _none, _pair_ops, _pair_check,
        ),
    )
}
