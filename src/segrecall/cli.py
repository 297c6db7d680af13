"""Command-line front end: batch decisions, priors, evaluation, losses,
graph classification, and architecture reports over dataset manifests.

Every run that produces files also writes a JSON sidecar recording the full
effective configuration, so results stay reproducible even when defaults
change. Exit codes: 0 success, 1 runtime/data error, 2 usage error.

Start-up imports only the standard library, ``errors`` and ``archcalc``
(which ``build_parser`` needs and which imports no numpy). Each command
imports the modules it uses, after the checks that need only its flags, so
``arch``, ``--help`` and a usage error exit without importing numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import TYPE_CHECKING

from . import archcalc
from .errors import (
    DimensionMismatchError,
    DomainError,
    EmptyInputError,
    FormatError,
    InvalidClassError,
    PriorsMismatchError,
    SegrecallError,
    ShapeMismatchError,
    UsageError,
    naming,
)

if TYPE_CHECKING:
    import numpy as np

    from . import fileio, metrics
    from .core import ClassSpec


def _sidecar_path(primary) -> Path:
    return Path(str(primary) + ".json")


def _write_text(path, text: str) -> None:
    from .atomic import replacing

    # Every output goes through atomic.replacing: whole or not at all.
    with replacing(path) as f:
        f.write(text.encode())


def _write_json(path, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _config(args) -> dict:
    """Every parsed option, the sidecar's record of the effective configuration."""
    return {k: v for k, v in vars(args).items() if k not in ("func", "command")}


def _write_record(path, args, **facts) -> None:
    """The run's record, written after its outputs: command, every option and ``facts``."""
    _write_json(path, {"command": args.command, "config": _config(args), **facts})


@contextmanager
def _prefixed(source, error_type):
    """Re-raise an ``error_type`` inside as its own type, its message prefixed
    by ``source``, so that its exit code stays (``errors.naming`` would make it
    a FormatError, which exits 1)."""
    try:
        yield
    except error_type as exc:
        raise type(exc)(f"{source}: {exc}") from exc


def _load_groups(name_or_path: str | None, spec: ClassSpec):
    if name_or_path is None:
        return None
    from . import datasets, metrics

    if name_or_path in datasets.GROUP_PRESETS:
        return datasets.preset_groups(name_or_path, spec)
    return metrics.load_group_spec(name_or_path, spec)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_priors(args) -> int:
    from . import decision, fileio

    manifest = fileio.load_manifest(args.manifest)
    # The maps stream one at a time and are counted at the call, so a bad map
    # stops the run before anything is written; the priors then stream into
    # the file one band of rows at a time.
    shape, blocks = decision.estimate_priors_rows(
        fileio.load_label_maps(manifest), manifest.class_spec, sigma=args.sigma, floor=args.floor,
        jobs=args.jobs,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with fileio.sft_writer(out, "float64", shape) as write:
        for _, block in blocks:
            write(block)
    _write_record(
        _sidecar_path(out), args,
        manifest_sha256=fileio.sha256_file(args.manifest),
        class_spec=fileio.class_spec_to_dict(manifest.class_spec),
        resolution=list(shape[:2]),
    )
    return 0


def _read_priors(path, manifest: fileio.DatasetManifest, map_shapes: dict):
    """Check the priors at ``path`` against their sidecar, the manifest's
    classes and the maps' shapes, reading them one row block at a time;
    returns ``(path, floor, shape)`` for ``decision.priors_rows``."""
    from . import decision, fileio

    sidecar = _sidecar_path(path)
    if not sidecar.exists():
        raise FormatError(f"{path}: missing sidecar {sidecar} with sigma/floor metadata")
    recorded = fileio.load_json(sidecar)
    config = fileio.json_field(recorded, "config", dict, sidecar)
    fileio.json_field(config, "sigma", float, sidecar)  # checked, not used: the data is smoothed
    floor = fileio.json_field(config, "floor", float, sidecar)
    with decision.priors_rows(path, floor) as (shape, blocks):
        for _ in blocks:
            pass
    spec = manifest.class_spec
    recorded_spec = fileio.json_field(recorded, "class_spec", dict, sidecar, None)
    if recorded_spec is not None and fileio.class_spec_from_dict(recorded_spec, sidecar) != spec:
        raise PriorsMismatchError(
            f"{path}: priors were estimated for classes {recorded_spec}, "
            f"but the manifest declares {fileio.class_spec_to_dict(spec)}"
        )
    res = fileio.json_field(recorded, "resolution", list, sidecar, list(shape[:2]))
    if len(res) != 2:
        raise FormatError(f"{sidecar}: 'resolution' must be 2 integers, got {len(res)} entries")
    resolution = tuple(fileio.json_value(v, int, f"{sidecar}: a resolution entry") for v in res)
    for p, found in map_shapes.items():
        if found != shape or found[:2] != resolution:
            raise PriorsMismatchError(
                f"{path}: priors of shape {shape} (sidecar resolution {list(resolution)}) "
                f"do not fit {p} of shape {found}"
            )
    return path, floor, shape


def _map_shapes(paths, spec: ClassSpec) -> dict:
    """Checked header shapes of the probability maps; every map must share one resolution."""
    from . import fileio

    shapes = {}
    for p in paths:
        with fileio.sft_rows(p, spec) as (shapes[p], _):
            pass  # the header alone: no block is drawn
    first, first_shape = paths[0], shapes[paths[0]]
    for p, shape in shapes.items():
        if shape[:2] != first_shape[:2]:
            raise ShapeMismatchError(
                f"{p}: resolution {shape[:2]} differs from {first_shape[:2]} of {first}"
            )
    return shapes


def cmd_decide(args) -> int:
    if args.rule == "ml" and args.priors is None:
        raise UsageError("--rule ml requires --priors")
    from . import decision, fileio
    from .core import pool_map

    manifest = fileio.load_manifest(args.probs)
    prob_paths = manifest.paths("probs")
    out_dir = Path(args.out)
    targets = {}
    for path in prob_paths:
        target = out_dir / (Path(path).stem + ".pgm")
        if target in targets:
            raise UsageError(f"{targets[target]} and {path} would both write {target}")
        targets[target] = path
    ignore = manifest.class_spec.ignore_id

    def process(item) -> None:
        target, path = item
        # A map that fails must not leave an earlier run's labels behind.
        target.unlink(missing_ok=True)
        # The map streams block by block through validation into the rule,
        # beside its priors block (ML); its labels are written only once its
        # last block has passed.
        priors_rows = decision.priors_rows(*priors) if priors else nullcontext((None, None))
        with (
            fileio.prob_map_rows(path, manifest.class_spec) as (shape, blocks),
            priors_rows as (dims, prior_blocks),
        ):
            if priors and shape != dims:  # the map was rewritten since the header pass
                raise FormatError(f"{path}: probabilities {shape} and priors {dims} differ")
            labels = decision.decide_rows(shape, blocks, prior_blocks, ignore)
        fileio.write_label_map(target, labels)

    with fileio.pinned_inputs():  # each map and the priors stay the files checked here
        # One header pass, before anything is written: ranks, channels,
        # resolutions and priors fit.
        shapes = _map_shapes(prob_paths, manifest.class_spec)
        priors = _read_priors(args.priors, manifest, shapes) if args.rule == "ml" else None
        out_dir.mkdir(parents=True, exist_ok=True)
        # A run that fails part way must not leave an earlier run's record behind.
        (out_dir / "run.json").unlink(missing_ok=True)
        pool_map(process, targets.items(), args.jobs)
    _write_record(out_dir / "run.json", args, outputs=sorted(t.name for t in targets))
    return 0


def cmd_evaluate(args) -> int:
    from . import fileio, metrics
    from .core import pool_map

    spec = fileio.load_class_spec(args.classes)
    groups = _load_groups(args.groups, spec)
    pred_paths = sorted(Path(args.pred).glob("*.pgm"))
    if not pred_paths:
        raise EmptyInputError(f"no .pgm predictions found in {args.pred}")
    gt_dir = Path(args.gt)

    def pair_matrix(pred_path) -> metrics.ConfusionMatrix:
        gt_path = gt_dir / pred_path.name
        if not gt_path.exists():
            raise FormatError(f"no ground truth {gt_path} for prediction {pred_path}")
        pred = fileio.read_label_map(pred_path, spec)
        gt = fileio.read_label_map(gt_path, spec)
        with (
            _prefixed(f"{pred_path} and {gt_path}", ShapeMismatchError),
            _prefixed(pred_path, InvalidClassError),
        ):
            return metrics.accumulate(metrics.ConfusionMatrix.empty(spec.num_classes), pred, gt)

    partials = pool_map(pair_matrix, pred_paths, args.jobs)
    cm = metrics.ConfusionMatrix.empty(spec.num_classes)
    for part in partials:
        cm = metrics.merge(cm, part)
    report = metrics.summarize(metrics.class_metrics(cm), groups)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_text(out, metrics.render_metrics_csv(report, spec.names))
    _write_record(
        _sidecar_path(out), args, pairs=[p.name for p in pred_paths], total_pixels=cm.total
    )
    return 0


def _read_freqs(path, num_classes: int) -> np.ndarray:
    """The --freqs file: a JSON list of finite frequencies in [0, 1], one per class."""
    import numpy as np

    from . import fileio

    values = fileio.load_json(path, list)
    freqs = np.array([fileio.json_value(v, float, f"{path}: a frequency") for v in values])
    if freqs.shape != (num_classes,) or ((freqs < 0) | (freqs > 1)).any():
        raise FormatError(f"{path}: needs {num_classes} class frequencies, each in [0, 1]")
    return freqs


def cmd_loss(args) -> int:
    if args.loss == "ial" and args.config is None:
        raise UsageError("--loss ial requires --config")
    if args.grad_check and args.loss != "ial":
        raise UsageError("--grad-check applies to --loss ial")
    from . import fileio, losses
    from .core import check_same_resolution

    if args.loss == "wce":
        losses.check_smoothing(args.smoothing)
    spec = fileio.load_class_spec(args.classes)
    with fileio.pinned_inputs():  # --grad-check's second pass must read the same file
        # The map streams through block by block, and only p' at the labelled
        # pixels is kept. Whatever else fails, the map still streams to its end,
        # so that its own errors win over the label file's and the pair's.
        with fileio.prob_map_rows(args.probs, spec) as (shape, blocks):
            try:
                gt = fileio.read_label_map(args.labels, spec)
                if gt.data.shape == shape[:2]:  # else the pair fails below
                    flat, labels, py = losses.gt_channel_values(shape, blocks, gt)
            finally:
                for _ in blocks:
                    pass
        report: dict = {"loss": args.loss, "config": _config(args)}
        if args.loss == "wce":
            if args.freqs is not None:
                freqs = _read_freqs(args.freqs, spec.num_classes)
            else:
                freqs = losses.class_pixel_frequencies([gt], spec.num_classes)
            weights = losses.FrequencyWeights(frequencies=freqs, smoothing=args.smoothing)
        elif args.loss == "ial":
            cfg = losses.load_importance_config(args.config, spec)
        # Maps of two resolutions fail after the config is read: its errors win.
        with _prefixed(f"{args.probs} and {args.labels}", ShapeMismatchError):
            check_same_resolution(shape[:2], gt.data.shape)
        if args.loss == "ce":
            report["value"] = losses.cross_entropy_values(labels, py, None, spec.num_classes)
        elif args.loss == "wce":
            report["value"] = losses.cross_entropy_values(labels, py, weights, spec.num_classes)
            report["weights"] = [float(v) for v in weights.weights]
        else:
            breakdown = losses.ial_values(labels, py, cfg)
            report["value"] = breakdown.total
            report["group_losses"] = list(breakdown.group_losses)
            report["dynamic_weights"] = list(breakdown.dynamic_weights)
            report["multipliers"] = list(breakdown.multipliers)
        if args.grad_check:  # (ial only) a second pass of the stream, a row block at a time
            with fileio.prob_map_rows(args.probs, spec) as (dims, blocks):
                if dims != shape:  # the map was rewritten since the first pass
                    raise FormatError(f"{args.probs}: map of shape {shape} now has shape {dims}")
                report["grad_max_rel_error"] = losses.check_gradient_values(
                    dims, blocks, flat, labels, py, cfg)
    # The report embeds the effective config, so it is its own sidecar.
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        _write_text(out, text + "\n")
    return 0


def cmd_gcn(args) -> int:
    from . import decision, fileio, gcn

    spec = fileio.load_class_spec(args.classes)
    graph = gcn.load_graph_spec(args.graph, spec)
    if graph.num_nodes != spec.num_classes:
        raise DimensionMismatchError(
            f"graph has {graph.num_nodes} nodes but the class spec lists {spec.num_classes}"
        )
    layers = []
    for p in args.weights:
        layers.append(fileio.read_sft(p))
        # GcnWeights checks these too, but cannot name the file: the layer is
        # finite, 2-D and fed by the layer before it.
        with naming(p):
            gcn.check_finite(layers[-1], "weight")
        with _prefixed(p, DimensionMismatchError):
            gcn.GcnWeights(layers=tuple(layers[-2:]))
    weights = gcn.GcnWeights(layers=tuple(layers), leaky_slope=args.slope)
    out_dir = Path(args.out)
    with fileio.sft_rows(args.features) as (dims, features):
        with _prefixed(args.weights[0], DimensionMismatchError):  # its rows are the class nodes
            node_out = gcn.gcn_forward(gcn.embed_one_hot(spec), graph, weights)
        classifier = gcn.ClassifierMatrix(rows=node_out)
        with _prefixed(args.features, DimensionMismatchError):
            shape, probs = gcn.score_rows(dims, features, classifier)
        out_dir.mkdir(parents=True, exist_ok=True)
        # A run that fails part way must not leave an earlier run's record behind.
        (out_dir / "run.json").unlink(missing_ok=True)
        # The features stream block by block through the classifier; each
        # block of probabilities is written, then decided. Beyond the labels
        # only a block of each is held.
        with fileio.sft_writer(out_dir / "probs.sft", "float64", shape) as write:

            def written():
                for rows, block in probs:
                    write(block)
                    yield rows, block

            try:
                labels = decision.decide_rows(shape, written(), None, spec.ignore_id)
            except DomainError as exc:  # a feature that is not finite
                raise FormatError(f"{args.features}: {exc}") from exc
    fileio.write_label_map(out_dir / "labels.pgm", labels)
    _write_record(out_dir / "run.json", args)
    return 0


def cmd_arch(args) -> int:
    dilations = ()
    if args.variant == "erf":
        try:
            dilations = tuple(int(d) for d in args.dilations.split(","))
        except ValueError:
            raise UsageError(f"--dilations expects integers, got {args.dilations!r}") from None
    variant = archcalc.UdbVariant(args.variant, dilations=dilations, kernel=args.kernel)
    try:
        h, w = (int(v) for v in args.input.lower().split("x"))
    except ValueError:
        raise UsageError(f"--input expects HxW, got {args.input!r}") from None
    report = archcalc.report_variant(variant, (h, w), width=args.width)
    sys.stdout.write(archcalc.render_arch_report(report))
    if args.json:
        payload = archcalc.arch_report_to_dict(report)
        payload["config"] = _config(args)
        _write_json(args.json, payload)
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segrecall",
        description="Decision rules, losses, metrics, and decoder analytics "
        "for high-recall semantic segmentation.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--jobs", type=int, default=1, help="worker pool size for batch steps")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("priors", parents=[common], help="estimate spatial class priors")
    p.add_argument("--manifest", required=True)
    p.add_argument("--sigma", type=float, default=40.0, help="Gaussian smoothing width in pixels")
    p.add_argument("--floor", type=float, default=1e-5, help="lower cutoff applied after smoothing")
    p.add_argument("--out", required=True, help="output SFT tensor path")
    p.set_defaults(func=cmd_priors)

    p = sub.add_parser("decide", parents=[common], help="run a decision rule over a manifest")
    p.add_argument("--probs", required=True, help="manifest listing probability maps")
    p.add_argument("--rule", required=True, choices=("bayes", "ml"))
    p.add_argument("--priors", help="priors SFT written by the priors command (ml only)")
    p.add_argument("--out", required=True, help="output directory for PGM label maps")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("evaluate", parents=[common], help="score predictions against ground truth")
    p.add_argument("--pred", required=True, help="directory of predicted PGM maps")
    p.add_argument("--gt", required=True, help="directory of ground-truth PGM maps")
    p.add_argument("--classes", required=True, help="class spec JSON")
    p.add_argument("--groups", help="'camvid', 'cityscapes', or a group JSON path")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("loss", help="evaluate a loss on one map pair")
    p.add_argument("--probs", required=True, help="probability map SFT")
    p.add_argument("--labels", required=True, help="ground-truth PGM")
    p.add_argument("--classes", required=True, help="class spec JSON")
    p.add_argument("--loss", required=True, choices=("ce", "wce", "ial"))
    p.add_argument("--config", help="importance config JSON (ial)")
    p.add_argument("--freqs", help="class frequency JSON list (wce); defaults to the label map")
    p.add_argument("--smoothing", type=float, default=1.02, help="frequency smoothing constant")
    p.add_argument("--grad-check", action="store_true", help="compare gradients to finite differences")
    p.add_argument("--out", help="optional JSON report path")
    p.set_defaults(func=cmd_loss)

    p = sub.add_parser("gcn", help="classify features via the class graph")
    p.add_argument("--features", required=True, help="H*W*D feature SFT")
    p.add_argument("--graph", required=True, help="graph JSON (adjacency or group rule)")
    p.add_argument("--weights", required=True, nargs="+", help="per-layer SFT matrices")
    p.add_argument("--classes", required=True, help="class spec JSON")
    p.add_argument("--slope", type=float, default=0.01, help="leaky rectifier slope")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gcn)

    p = sub.add_parser("arch", help="report decoder-variant shapes/RF/params")
    p.add_argument("--variant", required=True, choices=archcalc.UDB_KINDS)
    p.add_argument("--dilations", default="1,2,3", help="comma-separated dilations (erf)")
    p.add_argument("--kernel", type=int, default=7, help="large-kernel size (gcnet)")
    p.add_argument("--input", default="768x768", help="input resolution HxW")
    p.add_argument("--width", type=int, default=128, help="decoder width")
    p.add_argument("--json", help="optional JSON report path")
    p.set_defaults(func=cmd_arch)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Every command starts OpenBLAS with one thread: --jobs is the only source
    # of parallelism, and an idle OpenBLAS pool thread would only spin beside
    # the work. OpenBLAS reads the variable once, when numpy is first
    # imported, so a caller that imported numpy first keeps its pool; a value
    # the user set wins.
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        if getattr(args, "jobs", 1) < 1:
            raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SegrecallError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
