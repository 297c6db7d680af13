"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Expected values come from independent hand computation or from the naive
reference implementations in ``oracles.py``; tolerances are fixed here and
nowhere else.
"""

import time

import numpy as np

from oracles import (
    dense_gaussian_2d,
    fd_gradient,
    grouped_dynamic_weight,
    naive_class_metrics,
    naive_confusion,
)
from segrecall import (
    ConfusionMatrix,
    FrequencyWeights,
    GcnWeights,
    GraphSpec,
    GroupSpec,
    ImportanceConfig,
    LabelMap,
    PriorsMap,
    ProbMap,
    accumulate,
    class_metrics,
    classify_features,
    decide_bayes,
    decide_ml,
    gaussian_smooth,
    gcn_forward,
    ial,
    ial_gradient,
    iou_from_pr,
    normalize_adjacency,
    param_count,
    receptive_field,
    report_variant,
    validate_probmap,
)
from segrecall.archcalc import UdbVariant, conv, factorized_pair
from segrecall.cli import main
from segrecall.gcn import ClassifierMatrix

from conftest import build_pipeline_fixture, random_labelmap, random_probmap


def check(criterion: int, description: str, ok: bool) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {criterion} failed: {description}"


# Published per-class (precision %, recall %, IoU %) rows used to validate
# the precision/recall/IoU identity at table-rounding resolution.
PUBLISHED_ROWS = (
    ("camvid ce sign", 88.8, 45.9, 43.4),
    ("camvid ce car", 95.8, 95.7, 91.9),
    ("camvid ce pole", 55.4, 66.8, 43.4),
    ("camvid ial bicyclist", 79.0, 77.9, 64.6),
    ("cityscapes ce sign", 77.7, 90.4, 71.8),
    ("cityscapes ce rider", 73.4, 72.5, 57.4),
    ("cityscapes ce bus", 89.9, 88.6, 80.5),
    ("cityscapes ial train", 72.0, 82.8, 62.6),
    ("cityscapes ce wall", 73.9, 51.3, 43.4),
    ("cityscapes ce car", 95.9, 97.6, 93.6),
    ("cityscapes ml motorcycle", 31.6, 76.7, 28.9),
    ("cityscapes ml sign", 47.3, 94.2, 46.0),
)


def test_criterion_1_metric_identity_vs_published_tables():
    start = time.perf_counter()
    worst = 0.0
    for _, precision, recall, published_iou in PUBLISHED_ROWS:
        computed = 100.0 * iou_from_pr(precision / 100.0, recall / 100.0)
        worst = max(worst, abs(computed - published_iou))
    elapsed = time.perf_counter() - start
    check(
        1,
        f"IoU identity holds on {len(PUBLISHED_ROWS)} published rows "
        f"(max deviation {worst:.3f} pp <= 0.2, {elapsed:.3f}s < 1s)",
        worst <= 0.2 and elapsed < 1.0,
    )


def test_criterion_2_metrics_match_naive_oracle_exactly():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    ok = True
    for _ in range(100):
        c = int(rng.integers(2, 6))
        pred = random_labelmap(rng, 16, 16, c, ignore_frac=0)
        gt = random_labelmap(rng, 16, 16, c, ignore_frac=0.15)
        cm = accumulate(ConfusionMatrix.empty(c), pred, gt)
        want_counts = naive_confusion(pred.data, gt.data, c, 255)
        ok = ok and cm.counts.tolist() == want_counts
        got = [(m.precision, m.recall, m.iou) for m in class_metrics(cm)]
        ok = ok and got == naive_class_metrics(want_counts)
    elapsed = time.perf_counter() - start
    check(
        2,
        f"100 random 16x16 scenes match the triple-loop oracle exactly "
        f"({elapsed:.2f}s < 5s)",
        ok and elapsed < 5.0,
    )


def test_criterion_3_rule_equivalence_and_prior_monotonicity():
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    equal = True
    for _ in range(100):
        c = int(rng.integers(2, 6))
        p = random_probmap(rng, 8, 8, c)
        uniform = PriorsMap(np.full((8, 8, c), 1.0 / c), floor=1e-6)
        equal = equal and np.array_equal(decide_ml(p, uniform).data, decide_bayes(p).data)

    grows = True
    for _ in range(50):
        c = 4
        p = random_probmap(rng, 8, 8, c)
        base = np.clip(rng.random((8, 8, c)), 1e-4, 1.0)
        k = int(rng.integers(0, c))
        before = decide_ml(p, PriorsMap(base, floor=1e-6)).data == k
        lowered = base.copy()
        lowered[:, :, k] = np.clip(
            lowered[:, :, k] * rng.uniform(0.05, 0.95), 1e-6, 1.0
        )
        after = decide_ml(p, PriorsMap(lowered, floor=1e-6)).data == k
        grows = grows and bool(np.all(after[before]))
    elapsed = time.perf_counter() - start
    check(
        3,
        "ML with uniform priors equals the plain argmax on 100 maps and "
        f"lowering a prior never shrinks its class's pixel set ({elapsed:.2f}s < 5s)",
        equal and grows and elapsed < 5.0,
    )


def test_criterion_4_gradient_matches_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(1003)
    groups = GroupSpec(num_classes=4, groups=((0, 1), (2,), (3,)))
    cfg = ImportanceConfig(groups=groups, lam=0.5, alpha=1.0)
    member = groups.membership()
    worst = 0.0
    for _ in range(20):
        p = random_probmap(rng, 4, 4, 4)
        gt = random_labelmap(rng, 4, 4, 4, ignore_frac=0.1)
        analytic = ial_gradient(p, gt, cfg)
        # Frozen multipliers rebuilt independently of the library path.
        f = [
            grouped_dynamic_weight(p.data, gt.data, 255, target, cfg.lam)
            for target in cfg.targets
        ]
        multipliers = [1.0, f[0] + 1.0, (f[1] + 1.0) * (f[2] + 1.0)]
        fd = fd_gradient(np.log(p.data), gt.data, 255, member, multipliers)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), 1e-10)
        worst = max(worst, float((np.abs(fd - analytic) / denom).max()))
    elapsed = time.perf_counter() - start
    check(
        4,
        f"analytic gradient vs central differences on 20 random 4x4x4 "
        f"instances: max rel err {worst:.2e} < 1e-5 ({elapsed:.2f}s < 10s)",
        worst < 1e-5 and elapsed < 10.0,
    )


def test_criterion_5_hand_derived_loss_fixtures():
    p = ProbMap(np.array([[[0.2, 0.0, 0.8]]]))
    gt = LabelMap(np.array([[2]], dtype=np.int64))
    cfg = ImportanceConfig(
        groups=GroupSpec(num_classes=3, groups=((0,), (1,), (2,))), lam=0.5, alpha=1.0
    )
    total = ial(p, gt, cfg).total
    weight = float(FrequencyWeights(frequencies=np.zeros(1)).weights[0])
    check(
        5,
        f"single important pixel (p'=0.8) gives {total:.6f} within 1e-4 of 0.2507 "
        f"and the zero-frequency weight {weight:.4f} is within 1e-3 of 50.4979",
        abs(total - 0.2507) <= 1e-4 and abs(weight - 50.4979) <= 1e-3,
    )


def test_criterion_6_separable_smoothing_matches_dense_oracle():
    rng = np.random.default_rng(1004)
    field = rng.random((7, 7))
    sep = gaussian_smooth(field, 1.0)
    dense = dense_gaussian_2d(field, 1.0)
    oracle_ok = bool(np.abs(sep - dense).max() <= 1e-9)

    constant = np.full((9, 9), 2.5)
    const_ok = bool(np.abs(gaussian_smooth(constant, 3.0) - 2.5).max() <= 1e-6)

    impulse = np.zeros((31, 31))
    impulse[15, 15] = 1.0
    mass_ok = abs(gaussian_smooth(impulse, 2.0).sum() - 1.0) <= 1e-6
    check(
        6,
        "separable blur matches the dense 2-D oracle (1e-9), keeps constants "
        "(1e-6), and conserves unit mass (1e-6)",
        oracle_ok and const_ok and mass_ok,
    )


def test_criterion_7_graph_convolution_properties():
    rng = np.random.default_rng(1005)
    rows_ok = True
    equivariant = True
    for _ in range(20):
        n = 5
        adj = (rng.random((n, n)) < 0.5).astype(float)
        np.fill_diagonal(adj, 1.0)
        g = GraphSpec(adjacency=adj)
        rows_ok = rows_ok and bool(
            np.abs(normalize_adjacency(g).sum(axis=1) - 1.0).max() <= 1e-12
        )
        h = rng.normal(size=(n, 3))
        w = GcnWeights(layers=(rng.normal(size=(3, 4)), rng.normal(size=(4, 2))))
        perm = rng.permutation(n)
        base = gcn_forward(h, g, w)
        permuted = gcn_forward(h[perm], GraphSpec(adjacency=adj[np.ix_(perm, perm)]), w)
        equivariant = equivariant and np.array_equal(permuted, base[perm])

    probmaps_ok = True
    for _ in range(5):
        features = rng.normal(size=(4, 4, 6)) * 5
        cls = ClassifierMatrix(rows=rng.normal(size=(3, 6)))
        try:
            validate_probmap(classify_features(features, cls))
        except Exception:
            probmaps_ok = False
    check(
        7,
        "normalized rows sum to 1 (1e-12), node relabeling permutes outputs "
        "bit-exactly on 20 random 5-node graphs, classifier outputs validate",
        rows_ok and equivariant and probmaps_ok,
    )


def test_criterion_8_architecture_calculator_invariants():
    erf_rf = receptive_field([factorized_pair(3, 128, 128, dilation=d) for d in (1, 2, 3)])
    c = 128
    factorized = param_count([factorized_pair(3, c, c)])
    square = param_count([conv(3, c, c)])
    report = report_variant(UdbVariant("erf", dilations=(1, 2, 3)), (768, 768), width=128)
    udb_rf = {s.name: s.rf for s in report.stages}["udb1"]
    final_shape = report.stages[-1].output_shape
    check(
        8,
        f"erf(1,2,3) decoder block reports {udb_rf} receptive field, factorized "
        f"{factorized} < square {square}, and 768x768 input ends at "
        f"{final_shape[0]}x{final_shape[1]}",
        erf_rf == (13, 13)
        and udb_rf == (13, 13)
        and factorized == 6 * c * c
        and square == 9 * c * c
        and factorized < square
        and final_shape == (768, 768, 128),
    )


def _run_pipeline(fixture, workdir, rule, jobs):
    """priors -> decide -> evaluate through the CLI; returns the CSV path."""
    priors = workdir / "priors.sft"
    preds = workdir / "preds"
    report = workdir / "metrics.csv"
    assert main(["priors", "--manifest", str(fixture["manifest"]), "--sigma", "0",
                 "--floor", "1e-5", "--out", str(priors), "--jobs", str(jobs)]) == 0
    cmd = ["decide", "--probs", str(fixture["manifest"]), "--rule", rule,
           "--out", str(preds), "--jobs", str(jobs)]
    if rule == "ml":
        cmd += ["--priors", str(priors)]
    assert main(cmd) == 0
    assert main(["evaluate", "--pred", str(preds), "--gt", str(fixture["labels"]),
                 "--classes", str(fixture["classes"]), "--out", str(report),
                 "--jobs", str(jobs)]) == 0
    return report


def _mean_recall(csv_path) -> float:
    for line in csv_path.read_text().strip().split("\n"):
        cells = line.split(",")
        if cells[0] == "mean":
            return float(cells[2])
    raise AssertionError("no mean row in CSV")


def test_criterion_9_pipeline_determinism_and_recall_direction(tmp_path):
    fixture = build_pipeline_fixture(tmp_path / "fixture")
    run_a = tmp_path / "run_a"
    run_b = tmp_path / "run_b"
    run_bayes = tmp_path / "run_bayes"
    for d in (run_a, run_b, run_bayes):
        d.mkdir()
    csv_a = _run_pipeline(fixture, run_a, rule="ml", jobs=1)
    csv_b = _run_pipeline(fixture, run_b, rule="ml", jobs=2)
    identical = csv_a.read_bytes() == csv_b.read_bytes()
    csv_bayes = _run_pipeline(fixture, run_bayes, rule="bayes", jobs=1)
    ml_recall = _mean_recall(csv_a)
    bayes_recall = _mean_recall(csv_bayes)
    check(
        9,
        f"priors->decide->evaluate is byte-identical across two runs and mean "
        f"recall improves under the prior-corrected rule ({ml_recall:.4f} >= "
        f"{bayes_recall:.4f})",
        identical and ml_recall >= bayes_recall,
    )
