import json

import numpy as np
import pytest

from oracles import naive_class_metrics, naive_confusion
from segrecall import (
    ConfusionMatrix,
    GroupSpec,
    LabelMap,
    accumulate,
    class_metrics,
    iou_from_pr,
    merge,
    render_metrics_csv,
    summarize,
)
from segrecall.errors import (
    DomainError,
    FormatError,
    InvalidClassError,
    ShapeMismatchError,
    UngroupedClassError,
)
from segrecall.core import _LABEL_BLOCK_PIXELS
from segrecall.gcn import load_graph_spec
from segrecall.losses import load_importance_config
from segrecall.metrics import load_group_spec

from conftest import peak_traced_bytes, random_labelmap


def lm(rows, ignore_id=255):
    return LabelMap(np.asarray(rows, dtype=np.int64), ignore_id=ignore_id)


class TestAccumulate:
    def test_hand_count(self):
        cm = accumulate(ConfusionMatrix.empty(2), lm([[0, 1, 1, 1]]), lm([[0, 0, 1, 1]]))
        assert cm.counts.tolist() == [[1, 1], [0, 2]]

    def test_perfect_prediction_is_diagonal(self):
        rng = np.random.default_rng(3)
        gt = random_labelmap(rng, 6, 6, 3, ignore_frac=0)
        cm = accumulate(ConfusionMatrix.empty(3), gt, gt)
        assert np.array_equal(np.diag(np.diag(cm.counts)), cm.counts)
        assert cm.total == 36

    def test_ignore_pixels_are_skipped(self):
        cm = accumulate(ConfusionMatrix.empty(2), lm([[1, 0]]), lm([[255, 0]]))
        assert cm.counts.tolist() == [[1, 0], [0, 0]]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            accumulate(ConfusionMatrix.empty(2), lm([[0, 0]]), lm([[0], [0]]))

    def test_ignore_in_prediction_rejected(self):
        with pytest.raises(InvalidClassError):
            accumulate(ConfusionMatrix.empty(2), lm([[255, 0]]), lm([[0, 0]]))

    def test_out_of_range_prediction_rejected(self):
        with pytest.raises(InvalidClassError):
            accumulate(ConfusionMatrix.empty(2), lm([[5, 0]]), lm([[0, 0]]))

    def test_additivity_matches_concatenation(self):
        rng = np.random.default_rng(5)
        pred1 = random_labelmap(rng, 4, 7, 3, ignore_frac=0)
        pred2 = random_labelmap(rng, 4, 7, 3, ignore_frac=0)
        gt1 = random_labelmap(rng, 4, 7, 3)
        gt2 = random_labelmap(rng, 4, 7, 3)
        split = accumulate(accumulate(ConfusionMatrix.empty(3), pred1, gt1), pred2, gt2)
        joined = accumulate(
            ConfusionMatrix.empty(3),
            lm(np.vstack([pred1.data, pred2.data])),
            lm(np.vstack([gt1.data, gt2.data])),
        )
        assert np.array_equal(split.counts, joined.counts)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.uint64])
    def test_every_label_dtype_gives_the_same_matrix(self, dtype):
        rng = np.random.default_rng(15)
        pred = random_labelmap(rng, 9, 11, 4, ignore_frac=0)
        gt = random_labelmap(rng, 9, 11, 4)
        cm = accumulate(ConfusionMatrix.empty(4), LabelMap(pred.data.astype(dtype)),
                        LabelMap(gt.data.astype(dtype)))
        np.testing.assert_array_equal(cm.counts, naive_confusion(pred.data, gt.data, 4, 255))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.uint64])
    @pytest.mark.parametrize("pred, gt, text", [
        ([[0, 255, 5]], [[0, 1, 1]], "prediction contains invalid class id 255"),
        ([[0, 1, 5]], [[0, 1, 1]], "prediction contains invalid class id 5"),
        ([[0, 1, 7]], [[0, 9, 1]], "prediction contains invalid class id 7"),
        ([[0, 1, 1]], [[0, 9, 1]], "ground truth contains class id 9 >= 2"),
        ([[0, 1, 1]], [[255, 1, 200]], "ground truth contains class id 200 >= 2"),
    ], ids=["pred-ignore", "pred-range", "pred-wins", "gt-range", "gt-after-ignore"])
    def test_every_label_dtype_gives_the_same_errors(self, dtype, pred, gt, text):
        with pytest.raises(InvalidClassError) as exc:
            accumulate(ConfusionMatrix.empty(2), LabelMap(np.array(pred, dtype=dtype)),
                       LabelMap(np.array(gt, dtype=dtype)))
        assert str(exc.value) == text

    @pytest.mark.parametrize("pred, gt, text", [
        ([[0, 1]], [[0, -3]], "ground truth contains negative class id -3"),
        ([[0, 5]], [[0, -3]], "prediction contains invalid class id 5"),
        ([[0, 1, 1]], [[-3, 9, 1]], "ground truth contains negative class id -3"),
        ([[0, 1, 1]], [[255, 9, -3]], "ground truth contains class id 9 >= 2"),
    ], ids=["gt-negative", "pred-wins", "negative-first", "range-first"])
    def test_negative_ground_truth_id_is_an_invalid_class(self, pred, gt, text):
        with pytest.raises(InvalidClassError) as exc:
            accumulate(ConfusionMatrix.empty(2), LabelMap(np.array(pred, dtype=np.int64)),
                       LabelMap(np.array(gt, dtype=np.int64)))
        assert str(exc.value) == text

    # Four row blocks at width 100, the last one 5 rows.
    W = 100
    ROWS = _LABEL_BLOCK_PIXELS // W

    def _block_pair(self, dtype, c=4):
        rng = np.random.default_rng(17)
        h = 3 * self.ROWS + 5
        pred = rng.integers(0, c, size=(h, self.W)).astype(dtype)
        gt = random_labelmap(rng, h, self.W, c).data.astype(dtype)
        return pred, gt

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_blocks_count_as_the_whole_map(self, dtype):
        pred, gt = self._block_pair(dtype)
        pred[gt == 255] = 255  # an ignored pixel's prediction is not checked
        cm = accumulate(ConfusionMatrix.empty(4), LabelMap(pred), LabelMap(gt))
        assert cm.counts.tolist() == naive_confusion(pred, gt, 4, 255)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    @pytest.mark.parametrize("pred_bad, gt_bad, text", [
        ({(-1, 7): 6}, {(0, 3): 9}, "prediction contains invalid class id 6"),
        ({(-1, 7): 255}, {(1, 3): 9, (-2, 0): 8}, "prediction contains invalid class id 255"),
        ({}, {(ROWS + 2, 5): 7, (2 * ROWS + 1, 0): 8, (-1, 0): 5},
         "ground truth contains class id 7 >= 4"),
        ({(ROWS - 1, 99): 5, (ROWS, 0): 7}, {}, "prediction contains invalid class id 5"),
    ], ids=["pred-in-last-block-wins", "pred-ignore-wins", "gt-row-major", "pred-row-major"])
    def test_errors_across_blocks(self, dtype, pred_bad, gt_bad, text):
        pred, gt = self._block_pair(dtype)
        for (y, x), value in pred_bad.items():
            pred[y, x], gt[y, x] = value, 1  # at a labelled pixel
        for (y, x), value in gt_bad.items():
            gt[y, x] = value
        with pytest.raises(InvalidClassError) as exc:
            accumulate(ConfusionMatrix.empty(4), LabelMap(pred), LabelMap(gt))
        assert str(exc.value) == text

    def test_memory_is_the_kept_values_and_their_codes(self):
        rng = np.random.default_rng(16)
        h, w, c = 512, 1024, 19
        pred = LabelMap(rng.integers(0, c, size=(h, w), dtype=np.uint8))
        gt = random_labelmap(rng, h, w, c)
        gt = LabelMap(gt.data.astype(np.uint8))
        cm = ConfusionMatrix.empty(c)
        peak = peak_traced_bytes(accumulate, cm, pred, gt)
        # Per block pixel: the mask, the kept values of both maps and their
        # checks, the intp code and numpy's buffer casting the prediction to
        # add it (about 20 B), plus the counts; no whole-map temporary.
        assert peak <= 24 * _LABEL_BLOCK_PIXELS + 2 * c * c * 8
        assert accumulate(cm, pred, gt).total == int(gt.mask().sum())

    def test_merge_is_commutative(self):
        a = ConfusionMatrix(np.array([[1, 2], [3, 4]]))
        b = ConfusionMatrix(np.array([[5, 0], [1, 1]]))
        assert np.array_equal(merge(a, b).counts, merge(b, a).counts)


class TestClassMetrics:
    def test_hand_count(self):
        cm = ConfusionMatrix(np.array([[1, 1], [0, 2]]))
        m0, m1 = class_metrics(cm)
        assert (m0.precision, m0.recall, m0.iou) == (1.0, 0.5, 0.5)
        assert (m1.precision, m1.recall, m1.iou) == (2 / 3, 1.0, 2 / 3)
        assert (m0.support, m1.support) == (2, 2)

    def test_diagonal_matrix_is_all_ones(self):
        cm = ConfusionMatrix(np.diag([4, 2, 9]))
        for m in class_metrics(cm):
            assert (m.precision, m.recall, m.iou) == (1.0, 1.0, 1.0)

    def test_absent_class_is_undefined_not_nan(self):
        cm = ConfusionMatrix(np.array([[3, 0], [0, 0]]))
        m1 = class_metrics(cm)[1]
        assert m1.precision is None and m1.recall is None and m1.iou is None

    def test_zero_tp_with_fp_only(self):
        cm = ConfusionMatrix(np.array([[0, 0], [1, 0]]))
        m0 = class_metrics(cm)[0]
        assert m0.precision == 0.0
        assert m0.recall is None
        assert m0.iou == 0.0


class TestIouFromPr:
    def test_published_rows(self):
        # Percent values as reported alongside each precision/recall pair.
        assert abs(100 * iou_from_pr(0.888, 0.459) - 43.4) < 0.05
        assert abs(100 * iou_from_pr(0.777, 0.904) - 71.8) < 0.05
        assert iou_from_pr(1.0, 1.0) == 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            iou_from_pr(0.0, 0.5)
        with pytest.raises(DomainError):
            iou_from_pr(0.5, -0.1)

    def test_identity_against_counted_metrics(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            pred = random_labelmap(rng, 8, 8, 4, ignore_frac=0)
            gt = random_labelmap(rng, 8, 8, 4)
            cm = accumulate(ConfusionMatrix.empty(4), pred, gt)
            for m in class_metrics(cm):
                if None in (m.precision, m.recall, m.iou) or 0 in (m.precision, m.recall):
                    continue
                assert m.iou <= min(m.precision, m.recall)
                assert abs(iou_from_pr(m.precision, m.recall) - m.iou) < 1e-12


class TestOracleEquivalence:
    def test_matches_naive_triple_loop(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            c = int(rng.integers(2, 6))
            pred = random_labelmap(rng, 16, 16, c, ignore_frac=0)
            gt = random_labelmap(rng, 16, 16, c)
            cm = accumulate(ConfusionMatrix.empty(c), pred, gt)
            assert cm.counts.tolist() == naive_confusion(pred.data, gt.data, c, 255)
            got = [(m.precision, m.recall, m.iou) for m in class_metrics(cm)]
            assert got == naive_class_metrics(naive_confusion(pred.data, gt.data, c, 255))

    def test_class_permutation_permutes_metrics(self):
        rng = np.random.default_rng(2)
        c = 4
        pred = random_labelmap(rng, 10, 10, c, ignore_frac=0)
        gt = random_labelmap(rng, 10, 10, c)
        perm = rng.permutation(c)
        relabel = np.zeros(256, dtype=np.int64)
        relabel[:c] = perm
        relabel[255] = 255
        base = class_metrics(accumulate(ConfusionMatrix.empty(c), pred, gt))
        permuted = class_metrics(
            accumulate(
                ConfusionMatrix.empty(c),
                lm(relabel[pred.data]),
                lm(relabel[gt.data]),
            )
        )
        for k in range(c):
            assert base[k] == permuted[perm[k]]


class TestGroupSpec:
    def test_disjointness_enforced(self):
        with pytest.raises(UngroupedClassError):
            GroupSpec(num_classes=3, groups=((0, 1), (1, 2)))

    def test_ids_validated(self):
        with pytest.raises(UngroupedClassError):
            GroupSpec(num_classes=2, groups=((0, 5),))

    def test_membership(self):
        g = GroupSpec(num_classes=4, groups=((1,), (0, 3)))
        assert g.membership().tolist() == [1, 0, -1, 1]
        assert g.names == ("G1", "G2")

    @pytest.mark.parametrize("groups, dtype", [(0, np.int8), (3, np.int8), (128, np.int8),
                                               (129, np.int16)])
    def test_membership_takes_the_smallest_signed_type(self, groups, dtype):
        # -1 and every group index fit; a loss's per-pixel group ids take its dtype.
        g = GroupSpec(num_classes=130, groups=tuple((k,) for k in range(groups)))
        member = g.membership()
        assert member.dtype == dtype
        assert member.tolist() == [*range(groups), *[-1] * (130 - groups)]

    def test_json_loader(self, tmp_path, spec3):
        path = tmp_path / "groups.json"
        path.write_text(
            '{"groups": [{"name": "G1", "classes": ["road"]},'
            ' {"name": "G2", "classes": [1, "rider"]}]}'
        )
        g = load_group_spec(path, spec3)
        assert g.groups == ((0,), (1, 2))


ALL_THREE = [{"classes": ["road", "building", "rider"]}]
GROUP_LOADERS = (load_group_spec, load_importance_config, load_graph_spec)
MALFORMED_GROUPS = {
    "group-not-object": {"groups": [["road"]]},
    "groups-not-list": {"groups": "abc"},
    "null-class": {"groups": [{"classes": ["road", None]}]},
    "float-class": {"groups": [{"classes": [0, 1.7, 2]}]},
    "unknown-class": {"groups": [{"classes": ["road", "sky"]}]},
}
MALFORMED = [
    *[pytest.param(loader, payload, id=f"{loader.__name__}-{case}")
      for loader in GROUP_LOADERS for case, payload in MALFORMED_GROUPS.items()],
    pytest.param(load_importance_config, {"groups": ALL_THREE, "lambda": "x"},
                 id="load_importance_config-string-lambda"),
    pytest.param(load_importance_config, {"groups": ALL_THREE, "targets": [[0, "a", 1]]},
                 id="load_importance_config-string-target"),
    pytest.param(load_graph_spec, {"adjacency": [[1, 0, 0], [1, 1], [1, 1, 1]]},
                 id="load_graph_spec-ragged-adjacency"),
]


@pytest.mark.parametrize("loader,payload", MALFORMED)
def test_malformed_group_files_name_the_file(tmp_path, spec3, loader, payload):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(FormatError) as err:
        loader(path, spec3)
    assert str(err.value).startswith(f"{path}: ")


class TestSummarize:
    def test_means(self):
        cm = ConfusionMatrix(np.array([[1, 1], [0, 2]]))
        report = summarize(class_metrics(cm), GroupSpec(num_classes=2, groups=((0, 1),)))
        assert report.mean_recall == pytest.approx(0.75)
        assert report.mean_iou == pytest.approx(0.5833333333333333)
        assert report.groups[0].recall == pytest.approx(0.75)

    def test_single_class_group(self):
        cm = ConfusionMatrix(np.array([[1, 1], [0, 2]]))
        report = summarize(class_metrics(cm), GroupSpec(num_classes=2, groups=((0,), (1,))))
        assert report.groups[1].recall == 1.0

    def test_two_recalls_mean(self):
        metrics = class_metrics(ConfusionMatrix(np.array([[8, 2], [1, 9]])))
        report = summarize(metrics, GroupSpec(num_classes=2, groups=((0, 1),)))
        assert report.mean_recall == pytest.approx((0.8 + 0.9) / 2)

    def test_undefined_classes_are_excluded_and_listed(self):
        cm = ConfusionMatrix(np.array([[4, 0], [0, 0]]))
        report = summarize(class_metrics(cm))
        assert report.mean_precision == 1.0
        assert report.mean_recall == 1.0

    def test_group_size_checked(self):
        cm = ConfusionMatrix(np.array([[1, 0], [0, 1]]))
        with pytest.raises(ShapeMismatchError):
            summarize(class_metrics(cm), GroupSpec(num_classes=3, groups=((0,),)))


class TestCsv:
    def test_layout_and_formatting(self):
        cm = ConfusionMatrix(np.array([[1, 1], [0, 2]]))
        report = summarize(class_metrics(cm), GroupSpec(num_classes=2, groups=((0,), (1,))))
        text = render_metrics_csv(report, ("bg", "fg"))
        lines = text.strip().split("\n")
        assert lines[0] == "class,precision,recall,iou,support"
        assert lines[1] == "bg,1.0000,0.5000,0.5000,2"
        assert lines[2] == "fg,0.6667,1.0000,0.6667,2"
        assert lines[3].startswith("mean,")
        assert lines[4].startswith("G1,") and lines[5].startswith("G2,")

    def test_undefined_prints_empty_field(self):
        report = summarize(class_metrics(ConfusionMatrix(np.array([[4, 0], [0, 0]]))))
        line = render_metrics_csv(report, ("a", "b")).strip().split("\n")[2]
        assert line == "b,,,,0"
