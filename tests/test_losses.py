import json
import math

import numpy as np
import pytest

from oracles import fd_gradient, grouped_dynamic_weight, naive_ial_gradient
from segrecall import (
    FrequencyWeights,
    GroupSpec,
    ImportanceConfig,
    LabelMap,
    ProbMap,
    cross_entropy,
    ial,
    ial_gradient,
    losses,
)
from segrecall.errors import (
    DomainError,
    InvalidClassError,
    ShapeMismatchError,
    UngroupedClassError,
)
from segrecall.core import _row_blocks
from segrecall.datasets import cityscapes_groups
from segrecall.losses import (
    _dynamic_weight,
    check_gradient,
    class_pixel_frequencies,
    default_importance_targets,
    load_importance_config,
)

from conftest import random_labelmap, random_probmap


def pm(rows):
    return ProbMap(np.asarray(rows, dtype=np.float64))


def lm(rows, ignore_id=255):
    return LabelMap(np.asarray(rows, dtype=np.int64), ignore_id=ignore_id)


def single_pixel(probs, label):
    return pm([[probs]]), lm([[label]])


THREE_GROUPS = GroupSpec(num_classes=3, groups=((0,), (1,), (2,)))


class TestFrequencyWeights:
    def test_zero_frequency_weight(self):
        w = FrequencyWeights(frequencies=np.zeros(2))
        assert w.weights[0] == pytest.approx(50.4983497918439, abs=1e-10)

    def test_weights_decrease_with_frequency(self):
        w = FrequencyWeights(frequencies=np.linspace(0.0, 1.0, 11))
        assert (np.diff(w.weights) < 0).all()

    def test_smoothing_must_exceed_one(self):
        with pytest.raises(DomainError):
            FrequencyWeights(frequencies=np.zeros(2), smoothing=1.0)

    def test_frequencies_bounded(self):
        with pytest.raises(DomainError):
            FrequencyWeights(frequencies=np.array([1.2]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_frequency_rejected(self, bad):
        with pytest.raises(DomainError):
            FrequencyWeights(frequencies=np.array([0.5, bad]))


class TestCrossEntropy:
    def test_perfect_prediction_is_zero(self):
        p, gt = single_pixel([1.0, 0.0], 0)
        assert cross_entropy(p, gt) == 0.0

    def test_half_probability(self):
        p, gt = single_pixel([0.5, 0.5], 0)
        assert cross_entropy(p, gt) == pytest.approx(0.6931471805599453, abs=1e-12)

    def test_frequency_weighted(self):
        p, gt = single_pixel([0.5, 0.5], 0)
        weights = FrequencyWeights(frequencies=np.array([0.0, 1.0]))
        # -ln(0.5) / ln(1.02), computed independently with math.log
        expected = -math.log(0.5) / math.log(1.02)
        assert cross_entropy(p, gt, weights) == pytest.approx(expected, abs=1e-9)

    def test_ignored_pixels_do_not_contribute(self):
        p = pm([[[0.5, 0.5], [0.1, 0.9]]])
        gt = lm([[0, 255]])
        assert cross_entropy(p, gt) == pytest.approx(-math.log(0.5))

    def test_all_ignored_is_zero(self):
        p, _ = single_pixel([0.5, 0.5], 0)
        assert cross_entropy(p, lm([[255]])) == 0.0

    def test_clamp_prevents_infinite_loss(self):
        p, gt = single_pixel([0.0, 1.0], 0)
        assert cross_entropy(p, gt) == pytest.approx(-math.log(1e-12))

    def test_shape_mismatch(self):
        p = pm([[[0.5, 0.5]]])
        with pytest.raises(ShapeMismatchError):
            cross_entropy(p, lm([[0, 0]]))

    def test_nonnegative_and_zero_only_when_perfect(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = random_probmap(rng, 5, 5, 3)
            gt = random_labelmap(rng, 5, 5, 3)
            assert cross_entropy(p, gt) > 0.0

    def test_weight_vector_length_checked(self):
        p, gt = single_pixel([0.5, 0.5], 0)
        with pytest.raises(ShapeMismatchError):
            cross_entropy(p, gt, FrequencyWeights(frequencies=np.zeros(3)))


class TestClassPixelFrequencies:
    def test_counts_exclude_ignore(self):
        maps = [lm([[0, 0, 1, 255]])]
        freqs = class_pixel_frequencies(maps, 2)
        assert freqs.tolist() == [2 / 3, 1 / 3]


def level_weight(p, gt, target, lam):
    """The dynamic weight of one target vector, read through a one-group ial."""
    groups = GroupSpec(num_classes=p.num_classes, groups=(tuple(range(p.num_classes)),))
    cfg = ImportanceConfig(groups=groups, lam=lam, explicit_targets=(target,))
    return ial(p, gt, cfg).dynamic_weights[0]


class TestDynamicWeight:
    def test_exact_target_is_zero(self):
        p, gt = single_pixel([0.0, 1.0, 0.0], 1)
        target = np.array([0.0, 1.0, np.nan])
        assert level_weight(p, gt, target, lam=0.5) == 0.0

    def test_hand_value(self):
        p, gt = single_pixel([0.2, 0.0, 0.8], 2)
        target = np.array([np.nan, 0.0, 1.0])
        assert level_weight(p, gt, target, lam=0.5) == pytest.approx(0.06, abs=1e-12)

    def test_masked_class_contributes_nothing(self):
        p, gt = single_pixel([0.3, 0.7], 0)
        target = np.array([np.nan, 1.0])
        assert level_weight(p, gt, target, lam=0.5) == 0.0

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(8)
        p = random_probmap(rng, 6, 6, 4)
        gt = random_labelmap(rng, 6, 6, 4)
        target = np.array([1.0, 0.0, np.nan, 1.0])
        got = level_weight(p, gt, target, lam=0.5)
        want = grouped_dynamic_weight(p.data, gt.data, 255, target, 0.5)
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_same_bits_as_the_per_pixel_formula(self, lam):
        # The formula before the per-class tables: every pixel's target gathered
        # as a float, masked where it is NaN.
        def per_pixel(labels, py, target):
            m = target[labels]
            live = ~np.isnan(m)
            if not live.any():
                return 0.0
            return float(np.mean((np.sqrt(m[live] + lam) * (py[live] - m[live])) ** 2))

        rng = np.random.default_rng(17)
        labels = rng.integers(0, 6, size=5000)
        py = rng.random(5000)
        targets = [
            rng.random(6),
            np.where(rng.random(6) < 0.5, np.nan, rng.random(6)),  # masked classes
            np.array([np.nan, np.nan, 1.0, 0.0, np.nan, np.nan]),
            np.full(6, np.nan),  # a level with no live pixel
        ]
        labels[labels == 2] = 3  # class 2 has no pixel: its level is masked or absent only
        for target in targets:
            got = _dynamic_weight(labels, py, target, lam)
            assert got == per_pixel(labels, py, target)
        assert _dynamic_weight(labels, py, targets[3], lam) == 0.0
        assert _dynamic_weight(labels[:0], py[:0], targets[0], lam) == 0.0

    def test_invariant_under_pixel_duplication(self):
        rng = np.random.default_rng(12)
        p = random_probmap(rng, 4, 4, 3)
        gt = random_labelmap(rng, 4, 4, 3)
        doubled_p = ProbMap(np.vstack([p.data, p.data]))
        doubled_gt = lm(np.vstack([gt.data, gt.data]))
        target = np.array([0.0, 1.0, np.nan])
        assert level_weight(p, gt, target, 0.5) == pytest.approx(
            level_weight(doubled_p, doubled_gt, target, 0.5), abs=1e-12
        )


class TestDefaultTargets:
    def test_three_group_construction(self):
        groups = GroupSpec(num_classes=6, groups=((0, 1), (2, 3), (4, 5)))
        m1, m2, m3 = default_importance_targets(groups)
        assert m1.tolist() == [0.0, 0.0, 1.0, 1.0, 1.0, 1.0]
        np.testing.assert_array_equal(np.isnan(m2), [True, True, False, False, False, False])
        assert m2[2:].tolist() == [0.0, 0.0, 1.0, 1.0]
        np.testing.assert_array_equal(np.isnan(m3), [True, True, True, True, False, False])
        assert m3[4:].tolist() == [1.0, 1.0]

    def test_single_group_targets_itself(self):
        groups = GroupSpec(num_classes=2, groups=((0, 1),))
        (m1,) = default_importance_targets(groups)
        assert m1.tolist() == [1.0, 1.0]


class TestIal:
    def test_single_important_pixel(self):
        p, gt = single_pixel([0.2, 0.0, 0.8], 2)
        out = ial(p, gt, ImportanceConfig(groups=THREE_GROUPS, lam=0.5, alpha=1.0))
        assert out.total == pytest.approx(0.2507240942566460, abs=1e-12)
        assert out.dynamic_weights[1] == pytest.approx(0.06, abs=1e-12)
        assert out.dynamic_weights[2] == pytest.approx(0.06, abs=1e-12)
        assert out.group_losses[2] == pytest.approx(-math.log(0.8), abs=1e-12)

    def test_all_pixels_in_bottom_group(self):
        rng = np.random.default_rng(13)
        p = random_probmap(rng, 4, 4, 3)
        gt = lm(np.zeros((4, 4), dtype=np.int64))
        out = ial(p, gt, ImportanceConfig(groups=THREE_GROUPS))
        assert out.total == out.group_losses[0]
        assert out.group_losses[1] == 0.0 and out.group_losses[2] == 0.0

    def test_perfect_prediction_is_zero(self):
        gt = lm([[0, 1], [2, 2]])
        data = np.zeros((2, 2, 3))
        for y in range(2):
            for x in range(2):
                data[y, x, gt.data[y, x]] = 1.0
        out = ial(ProbMap(data), gt, ImportanceConfig(groups=THREE_GROUPS))
        assert out.total == 0.0

    def test_single_group_degenerates_to_cross_entropy(self):
        rng = np.random.default_rng(14)
        p = random_probmap(rng, 5, 5, 3)
        gt = random_labelmap(rng, 5, 5, 3)
        cfg = ImportanceConfig(groups=GroupSpec(num_classes=3, groups=((0, 1, 2),)))
        assert ial(p, gt, cfg).total == cross_entropy(p, gt)

    def test_ungrouped_class_rejected(self):
        p, gt = single_pixel([0.5, 0.5], 1)
        cfg = ImportanceConfig(groups=GroupSpec(num_classes=2, groups=((0,),)))
        with pytest.raises(UngroupedClassError):
            ial(p, gt, cfg)

    def test_breakdown_recombines_exactly(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            p = random_probmap(rng, 6, 6, 3)
            gt = random_labelmap(rng, 6, 6, 3)
            cfg = ImportanceConfig(groups=THREE_GROUPS, alpha=0.7)
            out = ial(p, gt, cfg)
            recombined = sum(
                m * i for m, i in zip(_local_multipliers(p, gt, cfg), out.group_losses)
            )
            assert abs(recombined - out.total) <= 1e-12


class TestIalGradient:
    def test_cross_entropy_identity_on_bottom_group(self):
        p, gt = single_pixel([0.5, 0.5, 0.0], 0)
        grad = ial_gradient(p, gt, ImportanceConfig(groups=THREE_GROUPS))
        np.testing.assert_allclose(grad[0, 0], [-0.5, 0.5, 0.0], atol=1e-12)

    def test_near_one_hot_prediction_has_tiny_gradient(self):
        eps = 1e-9
        p, gt = single_pixel([eps / 2, eps / 2, 1.0 - eps], 2)
        grad = ial_gradient(p, gt, ImportanceConfig(groups=THREE_GROUPS))
        assert np.abs(grad).max() < 1e-6

    def test_ignored_pixels_have_zero_gradient(self):
        p = pm([[[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]]])
        gt = lm([[255, 1]])
        grad = ial_gradient(p, gt, ImportanceConfig(groups=THREE_GROUPS))
        assert np.all(grad[0, 0] == 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(16)
        cfg = ImportanceConfig(
            groups=GroupSpec(num_classes=4, groups=((0, 1), (2,), (3,))), lam=0.5, alpha=1.0
        )
        p = random_probmap(rng, 4, 4, 4)
        gt = random_labelmap(rng, 4, 4, 4)
        analytic = ial_gradient(p, gt, cfg)

        member = cfg.groups.membership()
        multipliers = _local_multipliers(p, gt, cfg)
        logits = np.log(p.data)
        fd = fd_gradient(logits, gt.data, 255, member, multipliers)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), 1e-10)
        assert (np.abs(fd - analytic) / denom).max() < 1e-5

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_naive_loop_exactly(self, dtype):
        # Ignored pixels, an empty group (class 3 never occurs) and explicit
        # NaN-masked targets; the gradient must match the loop bit for bit.
        rng = np.random.default_rng(18)
        p = ProbMap(random_probmap(rng, 9, 7, 5).data.astype(dtype))
        labels = rng.choice([0, 1, 2, 4, 255], size=(9, 7))
        gt = lm(labels)
        targets = (
            [0.0, 1.0, 1.0, np.nan, 1.0],
            [np.nan, 0.0, 1.0, 1.0, np.nan],
            [np.nan, np.nan, 0.5, 1.0, 1.0],
            [np.nan, np.nan, np.nan, 1.0, 1.0],
        )
        groups = GroupSpec(num_classes=5, groups=((0,), (1, 2), (3,), (4,)))
        cfg = ImportanceConfig(groups=groups, lam=0.5, alpha=0.7, explicit_targets=targets)
        breakdown = ial(p, gt, cfg)
        assert breakdown.group_losses[2] == 0.0
        for got, target in zip(breakdown.dynamic_weights, cfg.targets):
            assert got == pytest.approx(
                grouped_dynamic_weight(p.data, labels, 255, target, cfg.lam), abs=1e-12
            )
        want = naive_ial_gradient(p.data, labels, 255, groups.membership(), breakdown.multipliers)
        np.testing.assert_array_equal(ial_gradient(p, gt, cfg), want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_flat_gather_and_scatter_equal_the_two_index_forms(self, dtype):
        # 8 rows per block at width 1000, so 37 rows end in a 5-row block.
        h, w, c = 37, 1000, 19
        rng = np.random.default_rng(46)
        p = ProbMap(random_probmap(rng, h, w, c).data.astype(dtype))
        gt = random_labelmap(rng, h, w, c, ignore_frac=0.2)
        flat, labels, py = losses._map_values(p, gt)
        np.testing.assert_array_equal(py, p.data.reshape(-1, c)[flat, labels].astype(np.float64))
        cfg = ImportanceConfig(groups=cityscapes_groups())
        weights = losses._pixel_weights(labels, py, cfg)
        w_pixel = np.zeros(h * w)
        w_pixel[flat] = weights
        want = p.data * w_pixel.reshape(h, w, 1)
        want.reshape(-1, c)[flat, labels] -= weights
        np.testing.assert_array_equal(ial_gradient(p, gt, cfg), want)

    @pytest.mark.parametrize("h, w, groups", [
        (4, 5, GroupSpec(num_classes=4, groups=((0, 1), (2,), (3,)))),
        (3, 4, cityscapes_groups()),
    ], ids=["4-classes", "cityscapes"])
    def test_checker_differences_match_the_oracle(self, h, w, groups):
        # The checker's O(1) bumps through the block's softmax against the
        # oracle's bumps of the whole objective, with ignored pixels.
        rng = np.random.default_rng(19)
        cfg = ImportanceConfig(groups=groups)
        c = groups.num_classes
        p = random_probmap(rng, h, w, c)
        gt = random_labelmap(rng, h, w, c, ignore_frac=0.2)
        flat, labels, py = losses._map_values(p, gt)
        weights = losses._pixel_weights(labels, py, cfg)
        got = np.concatenate([losses._central_differences(rows, block, flat, labels, weights)
                              for rows, block in _row_blocks(p.data)])
        want = fd_gradient(np.log(p.data), gt.data, 255, groups.membership(),
                           _local_multipliers(p, gt, cfg))
        np.testing.assert_allclose(got.reshape(h, w, c), want, rtol=1e-5, atol=1e-9)
        assert (want[~gt.mask()] == 0).all() and (got.reshape(h, w, c)[~gt.mask()] == 0).all()

    def test_packaged_checker_agrees(self):
        rng = np.random.default_rng(17)
        p = random_probmap(rng, 4, 4, 3)
        gt = random_labelmap(rng, 4, 4, 3)
        assert check_gradient(p, gt, ImportanceConfig(groups=THREE_GROUPS)) < 1e-5

    # 19 classes in the Cityscapes groups. A difference of the whole objective
    # carries the rounding noise of every pixel's term, which grows with the
    # map (2e-5 at 8x8, 1e-4 at 16x16); each pixel's own term stays near 1e-6.
    @pytest.mark.parametrize("h, w", [(8, 8), (16, 16), (64, 64), (256, 512)])
    def test_checker_stays_accurate_as_the_map_grows(self, h, w):
        rng = np.random.default_rng(41)
        p = random_probmap(rng, h, w, 19)
        gt = random_labelmap(rng, h, w, 19)
        assert check_gradient(p, gt, ImportanceConfig(groups=cityscapes_groups())) < 1e-5

    @staticmethod
    def _mutated_check(monkeypatch, mutate):
        rng = np.random.default_rng(42)
        p = random_probmap(rng, 16, 16, 19)
        gt = random_labelmap(rng, 16, 16, 19, ignore_frac=0.2)
        exact = losses._gradient_rows  # ial_gradient's one code path, a row block at a time

        def mutated(rows, block, flat, labels, w, out):
            exact(rows, block, flat, labels, w, out)
            mutate(out, rows, gt)
            return out

        monkeypatch.setattr(losses, "_gradient_rows", mutated)
        return check_gradient(p, gt, ImportanceConfig(groups=cityscapes_groups()))

    def test_checker_catches_one_scaled_entry(self, monkeypatch):
        def scale_one(out, rows, gt):
            y, x = np.argwhere(gt.mask())[5]
            if rows.start <= y < rows.stop:
                out[y - rows.start, x, 3] *= 1.01

        assert self._mutated_check(monkeypatch, scale_one) >= 5e-3

    def test_checker_catches_a_gradient_on_an_ignored_pixel(self, monkeypatch):
        def touch_ignored(out, rows, gt):
            y, x = np.argwhere(~gt.mask())[0]
            if rows.start <= y < rows.stop:
                out[y - rows.start, x, 0] = 1e-3

        assert self._mutated_check(monkeypatch, touch_ignored) == 1.0


def _local_multipliers(p, gt, cfg):
    # Independent reconstruction of the per-group scale factors.
    f = [
        grouped_dynamic_weight(p.data, gt.data, gt.ignore_id, target, cfg.lam)
        for target in cfg.targets
    ]
    levels = len(f)
    if levels == 1:
        return [1.0]
    mult = [1.0]
    for i in range(1, levels - 1):
        mult.append(f[i - 1] + cfg.alpha)
    mult.append((f[levels - 2] + cfg.alpha) * (f[levels - 1] + cfg.alpha))
    return mult


TWO_GROUPS = ImportanceConfig(groups=GroupSpec(num_classes=2, groups=((0,), (1,))))
LOSSES_OF_A_MAP = {
    "cross_entropy": cross_entropy,
    "ial": lambda p, gt: ial(p, gt, TWO_GROUPS),
    "ial_gradient": lambda p, gt: ial_gradient(p, gt, TWO_GROUPS),
    "check_gradient": lambda p, gt: check_gradient(p, gt, TWO_GROUPS),
}


class TestClassIdRule:
    """The loss path applies ``LabelMap.from_array``'s rule: a value that is
    neither a class id nor the ignore id raises InvalidClassError at its pixel."""

    @pytest.mark.parametrize("bad", [-1, 2])
    @pytest.mark.parametrize("loss", sorted(LOSSES_OF_A_MAP))
    def test_a_value_outside_the_classes_is_named(self, loss, bad):
        # -1 would gather the previous pixel's probability; 2 is one past
        # the two channels.
        p = pm([[[0.2, 0.8], [0.6, 0.4]]])
        with pytest.raises(InvalidClassError) as exc:
            LOSSES_OF_A_MAP[loss](p, lm([[0, bad]]))
        assert str(exc.value) == f"label {bad} at pixel (0, 1) is not a class id or ignore id"

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_class_pixel_frequencies_names_a_value_outside_the_classes(self, bad):
        with pytest.raises(InvalidClassError) as exc:
            class_pixel_frequencies([lm([[0, 1, 255, 1]]), lm([[0, 1, bad, bad]])], 2)
        assert str(exc.value) == f"label {bad} at pixel (0, 2) is not a class id or ignore id"

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint64])
    def test_unsigned_label_maps_give_the_int64_bits(self, dtype):
        rng = np.random.default_rng(71)
        p = random_probmap(rng, 70, 130, 3)  # two row blocks
        gt = random_labelmap(rng, 70, 130, 3)
        narrow = LabelMap(gt.data.astype(dtype))
        cfg = ImportanceConfig(groups=THREE_GROUPS)
        assert cross_entropy(p, narrow) == cross_entropy(p, gt)
        assert ial(p, narrow, cfg) == ial(p, gt, cfg)
        assert np.array_equal(ial_gradient(p, narrow, cfg), ial_gradient(p, gt, cfg))
        assert check_gradient(p, narrow, cfg) == check_gradient(p, gt, cfg)
        assert np.array_equal(class_pixel_frequencies([narrow], 3),
                              class_pixel_frequencies([gt], 3))

    @pytest.mark.parametrize("loss", ["ial", "ial_gradient", "check_gradient"])
    @pytest.mark.parametrize("channels, label", [(3, 0), (3, 2), (1, 0)])
    def test_importance_groups_for_another_class_count(self, loss, channels, label):
        # TWO_GROUPS covers 2 classes; the groups must not apply to a map of
        # another count, even where every label lies within both.
        p = pm([[np.full(channels, 1.0 / channels)]])
        with pytest.raises(ShapeMismatchError) as exc:
            LOSSES_OF_A_MAP[loss](p, lm([[label]]))
        assert str(exc.value) == f"importance groups cover 2 classes, the map has {channels}"


class TestImportanceConfigJson:
    def test_load_with_defaults(self, tmp_path, spec3):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "groups": [
                        {"name": "G1", "classes": ["road"]},
                        {"name": "G2", "classes": ["building"]},
                        {"name": "G3", "classes": ["rider"]},
                    ]
                }
            )
        )
        cfg = load_importance_config(path, spec3)
        assert cfg.lam == 0.5 and cfg.alpha == 1.0
        assert cfg.groups.groups == ((0,), (1,), (2,))
        assert len(cfg.targets) == 3

    def test_explicit_targets_with_null_masks(self, tmp_path, spec3):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "groups": [{"classes": [0, 1]}, {"classes": [2]}],
                    "lambda": 0.25,
                    "alpha": 0.5,
                    "targets": [[0, 0, 1], [None, None, 1]],
                }
            )
        )
        cfg = load_importance_config(path, spec3)
        assert cfg.lam == 0.25 and cfg.alpha == 0.5
        assert np.isnan(cfg.targets[1][0])
        assert cfg.targets[1][2] == 1.0

    def test_scalar_validation(self):
        with pytest.raises(DomainError):
            ImportanceConfig(groups=THREE_GROUPS, lam=-0.1)
        with pytest.raises(DomainError):
            ImportanceConfig(groups=THREE_GROUPS, alpha=-1.0)

    @pytest.mark.parametrize("field", ["lam", "alpha"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_scalar_rejected(self, field, bad):
        with pytest.raises(DomainError, match="finite"):
            ImportanceConfig(groups=THREE_GROUPS, **{field: bad})
