import sys
import threading
import warnings

import numpy as np
import pytest

from oracles import class_frequencies, dense_gaussian_2d
from segrecall import (
    ClassSpec,
    GroupSpec,
    LabelMap,
    PriorsMap,
    ProbMap,
    compare_rules,
    decide_bayes,
    decide_ml,
    estimate_priors,
    gaussian_smooth,
)
from segrecall.core import BLOCK_PIXELS
from segrecall.decision import _smoothing_operator, _widened, estimate_priors_rows
from segrecall.errors import DomainError, EmptyInputError, InvalidClassError, ShapeMismatchError

from conftest import peak_traced_bytes, random_labelmap, random_probmap


def lm(rows, ignore_id=255):
    return LabelMap(np.asarray(rows, dtype=np.int64), ignore_id=ignore_id)


# A floor far below any frequency: sigma-0 priors are then the frequencies,
# with each zero raised to TINY.
TINY = 1e-300


def frequencies(labels, spec):
    return estimate_priors(labels, spec, sigma=0.0, floor=TINY).data


def uniform_priors(h, w, c, floor=1e-5):
    return PriorsMap(np.full((h, w, c), 1.0 / c), floor=floor)


class TestGaussianSmooth:
    def test_constant_field_unchanged(self):
        field = np.full((9, 7), 3.25)
        for sigma in (0.5, 1.0, 4.0, 40.0):
            np.testing.assert_allclose(gaussian_smooth(field, sigma), field, atol=1e-6)

    def test_impulse_mass_preserved(self):
        field = np.zeros((15, 15))
        field[7, 7] = 1.0
        out = gaussian_smooth(field, 1.0)
        assert abs(out.sum() - 1.0) < 1e-6

    @pytest.mark.parametrize("sigma, radius", [(1.0, 3), (2.4, 8)])  # radius ceil(3 * sigma)
    def test_kernel_mass_and_radius(self, sigma, radius):
        # Checked on the operator: every row holds the taps' unit mass, and a
        # row far enough from both edges spans exactly 2 * radius + 1 samples.
        n = 40
        op = _smoothing_operator(n, sigma)
        np.testing.assert_allclose(op.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        for i in range(radius, n - radius):
            assert np.flatnonzero(op[i]).tolist() == list(range(i - radius, i + radius + 1))

    def test_matches_dense_2d_oracle(self):
        rng = np.random.default_rng(23)
        # The last three pad wider than the field, so reflection must wrap:
        # radius 12 over 5x9, radius 120 over 3x4, radius 6 over 1x6.
        for shape, sigma in (((7, 7), 1.0), ((5, 9), 4.0), ((3, 4), 40.0), ((1, 6), 2.0)):
            field = rng.random(shape)
            got = gaussian_smooth(field, sigma)
            want = dense_gaussian_2d(field, sigma)
            np.testing.assert_allclose(got, want, atol=1e-9, err_msg=f"{shape} {sigma}")

    def test_sigma_zero_is_identity(self):
        rng = np.random.default_rng(24)
        field = rng.random((4, 6))
        np.testing.assert_array_equal(gaussian_smooth(field, 0.0), field)

    def test_negative_sigma_rejected(self):
        with pytest.raises(DomainError):
            gaussian_smooth(np.zeros((3, 3)), -1.0)

    def test_sigma_beyond_int64_taps_rejected(self, spec3):
        # ceil(3 * sigma) would not fit int64: numpy would make object taps.
        for call in (lambda: gaussian_smooth(np.zeros((3, 3)), 1e300),
                     lambda: estimate_priors([lm([[0]])], spec3, sigma=1e300, floor=1e-5),
                     lambda: estimate_priors_rows([lm([[0]])], spec3, 2.0**63 / 3, 1e-5)):
            with pytest.raises(DomainError, match=r"^sigma "):
                call()

    def test_sigma_beyond_the_cap_rejected(self, spec3):
        # Smoothing time grows with the 6*sigma + 1 taps, so sigma is capped at 1e6.
        above = np.nextafter(1e6, np.inf)
        for call in (lambda: gaussian_smooth(np.zeros((3, 3)), above),
                     lambda: estimate_priors([lm([[0]])], spec3, sigma=1e7, floor=1e-5),
                     lambda: estimate_priors_rows([lm([[0]])], spec3, above, 1e-5)):
            with pytest.raises(DomainError, match=r"^sigma must lie in \[0, 1e6\]"):
                call()

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0)])
    def test_empty_field_passes_through_without_warning(self, shape):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = gaussian_smooth(np.zeros(shape), 2.0)
        assert got.shape == shape and got.dtype == np.float64

    @pytest.mark.parametrize("shape, sigma", [((256, 512), 20000.0), ((64, 64), 1e6)])
    def test_operator_memory_does_not_grow_with_sigma(self, shape, sigma):
        # Radius 60000 against axes of 256 and 512, and 3e6 against 64: the
        # taps fold onto one reflection period a chunk at a time, so no
        # array grows with the kernel.
        field = np.full(shape, 2.5)
        peak = peak_traced_bytes(gaussian_smooth, field, sigma)
        operators = (shape[0] ** 2 + shape[1] ** 2) * 8
        assert peak <= 4 * field.nbytes + 2 * operators
        np.testing.assert_allclose(gaussian_smooth(field, sigma), field, rtol=0, atol=1e-9)

    def test_kernel_wider_than_field(self):
        # sigma 40 means radius 120; reflection must wrap small fields.
        field = np.full((4, 4), 2.0)
        np.testing.assert_allclose(gaussian_smooth(field, 40.0), field, atol=1e-6)


class TestClassFrequencies:
    def test_two_sample_frequency(self, spec3):
        maps = [lm(np.zeros((2, 2), dtype=np.int64)), lm(np.ones((2, 2), dtype=np.int64))]
        freq = frequencies(maps, spec3)
        np.testing.assert_array_equal(freq[0, 0], [0.5, 0.5, TINY])

    def test_ignored_pixels_leave_denominator(self, spec3):
        maps = [lm([[0]]), lm([[255]]), lm([[1]])]
        np.testing.assert_array_equal(frequencies(maps, spec3)[0, 0], [0.5, 0.5, TINY])

    def test_all_ignored_location_gets_uniform(self, spec3):
        maps = [lm([[255, 0]])]
        freq = frequencies(maps, spec3)
        np.testing.assert_array_equal(freq[0, 0], [1 / 3, 1 / 3, 1 / 3])
        np.testing.assert_array_equal(freq[0, 1], [1.0, TINY, TINY])

    def test_channels_sum_to_one(self, spec3):
        rng = np.random.default_rng(30)
        maps = [random_labelmap(rng, 6, 6, 3) for _ in range(5)]
        freq = frequencies(maps, spec3)
        np.testing.assert_allclose(freq.sum(axis=2), 1.0, atol=1e-6)

    def test_streamed_counts_are_exact(self, spec3):
        rng = np.random.default_rng(37)
        maps = [random_labelmap(rng, 5, 7, 3, ignore_frac=0.3) for _ in range(6)]
        # Two locations ignored in every map fall back to uniform.
        maps = [LabelMap(np.where(np.arange(35).reshape(5, 7) < 2, 255, m.data)) for m in maps]
        freq = frequencies((m for m in maps), spec3)
        for y in range(5):
            for x in range(7):
                seen = [int(m.data[y, x]) for m in maps if m.data[y, x] != 255]
                want = [seen.count(k) / len(seen) for k in range(3)] if seen else [1 / 3] * 3
                np.testing.assert_array_equal(freq[y, x], np.clip(want, TINY, 1.0))
        assert (freq[0, :2] == 1 / 3).all()
        np.testing.assert_array_equal(
            freq, np.clip(class_frequencies([m.data for m in maps], 3), TINY, 1.0)
        )

    def test_empty_sequence_rejected(self, spec3):
        with pytest.raises(EmptyInputError):
            frequencies(iter([]), spec3)

    def test_mixed_resolutions_rejected(self, spec3):
        maps = [lm(np.zeros((2, 2), dtype=np.int64)), lm(np.zeros((3, 3), dtype=np.int64))]
        with pytest.raises(ShapeMismatchError):
            frequencies(maps, spec3)

    @pytest.mark.parametrize("value, dtype", [
        (7, np.uint8), (7, np.int64), (-1, np.int8), (-1, np.int64),
    ])
    def test_label_neither_class_nor_ignore_id_rejected(self, spec3, value, dtype):
        maps = [lm([[0, 255]]), LabelMap(np.array([[0, value]], dtype=dtype))]
        with pytest.raises(InvalidClassError, match=(
            rf"^label {value} at pixel \(0, 1\) of map 1 is not a class id or ignore id$"
        )):
            frequencies(maps, spec3)

    def test_256_maps_count_to_exactly_one(self, spec3):
        # A uint8 count of 256 wraps to 0, which would leave the floor.
        maps = [lm([[0, 255]]) for _ in range(256)]
        np.testing.assert_array_equal(frequencies(maps, spec3)[0, 0], [1.0, TINY, TINY])

    def test_300_maps_are_the_clipped_oracle_bit_for_bit(self, spec3):
        # Class 0 takes nine pixels in ten, so its counts pass 255 and are
        # held in uint16.
        rng = np.random.default_rng(48)
        arrays = [rng.choice([0, 1, 2, 255], size=(9, 11), p=[0.9, 0.04, 0.03, 0.03])
                  for _ in range(300)]
        assert (sum(a == 0 for a in arrays) > 255).any()
        got = estimate_priors((lm(a) for a in arrays), spec3, sigma=0.0, floor=1e-5)
        want = np.clip(class_frequencies(arrays, 3), 1e-5, 1.0)
        assert got.data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype, n, want", [
        (np.uint8, 255, np.uint8),
        (np.uint8, 256, np.uint16),
        (np.uint16, 65535, np.uint16),
        (np.uint16, 65536, np.uint32),
        (np.uint32, 2**32, np.uint64),
    ])
    def test_counts_widen_only_when_the_next_map_could_overflow(self, dtype, n, want):
        counts = np.array([[[0, 1], [2, np.iinfo(dtype).max]]], dtype=dtype)
        got = _widened(counts, n)
        assert got.dtype == want
        assert (got is counts) == (want == dtype)
        np.testing.assert_array_equal(got, counts)


class TestEstimatePriors:
    def test_single_class_input_with_floor(self, spec3):
        maps = [lm(np.full((3, 3), 2, dtype=np.int64))]
        priors = estimate_priors(maps, spec3, sigma=0.0, floor=1e-5)
        np.testing.assert_array_equal(priors.data[:, :, 2], 1.0)
        np.testing.assert_array_equal(priors.data[:, :, 0], 1e-5)
        np.testing.assert_array_equal(priors.data[:, :, 1], 1e-5)

    def test_two_sample_frequency(self, spec3):
        maps = [lm(np.zeros((2, 2), dtype=np.int64)), lm(np.ones((2, 2), dtype=np.int64))]
        priors = estimate_priors(maps, spec3, sigma=0.0, floor=1e-5)
        np.testing.assert_allclose(priors.data[0, 0], [0.5, 0.5, 1e-5])

    def test_smoothing_leaves_constant_frequencies(self, spec3):
        # Same label layout in every map means spatially constant frequencies.
        layout = np.zeros((6, 6), dtype=np.int64)
        layout[:, 3:] = 1
        maps = [lm(layout), lm(1 - layout)]
        flat = estimate_priors(maps, spec3, sigma=0.0, floor=1e-5)
        smoothed = estimate_priors(maps, spec3, sigma=3.0, floor=1e-5)
        np.testing.assert_allclose(smoothed.data, flat.data, atol=1e-6)

    @pytest.mark.parametrize("shape, sigma", [
        ((150, 300), 4.0),  # radius 12: every band reads a strict subset of its axis
        ((3, 4), 40.0),  # radius 120: reflection wraps many times
        ((1, 6), 2.0),
    ], ids=["banded", "wrapped", "one-row"])
    def test_matches_smoothed_oracle_frequencies(self, spec3, shape, sigma):
        rng = np.random.default_rng(43)
        maps = [random_labelmap(rng, *shape, 3, ignore_frac=0.3) for _ in range(4)]
        freq = class_frequencies([m.data for m in maps], 3)
        want = np.stack([dense_gaussian_2d(freq[:, :, k], sigma) for k in range(3)], axis=2)
        got = estimate_priors(maps, spec3, sigma=sigma, floor=1e-3)
        np.testing.assert_allclose(got.data, np.clip(want, 1e-3, 1.0), rtol=0, atol=1e-9)

    def test_sigma_zero_is_the_clipped_oracle_bit_for_bit(self):
        rng = np.random.default_rng(44)
        spec = ClassSpec(names=tuple(f"c{k}" for k in range(19)))
        maps = [LabelMap(random_labelmap(rng, 33, 47, 19).data.astype(np.uint8))
                for _ in range(7)]
        maps.append(LabelMap(np.full((33, 47), 255, dtype=np.uint8)))
        got = estimate_priors(maps, spec, sigma=0.0, floor=1e-5)
        want = np.clip(class_frequencies([m.data for m in maps], 19), 1e-5, 1.0)
        assert got.data.tobytes() == want.tobytes()

    def test_extra_memory_is_counts_output_and_a_few_planes(self):
        h, w, c = 256, 512, 19
        rng = np.random.default_rng(45)
        spec = ClassSpec(names=tuple(f"c{k}" for k in range(c)))
        maps = [LabelMap(random_labelmap(rng, h, w, c).data.astype(np.uint8)) for _ in range(3)]
        peak = peak_traced_bytes(estimate_priors, maps, spec, 40.0, 1e-5)
        plane = h * w * 8
        operators = (h * h + w * w) * 8
        # uint8 counts, the float64 output, four float64 planes, the two operators.
        assert peak <= c * h * w + c * plane + 4 * plane + operators

    @pytest.mark.parametrize("c", [1, 3, 19])
    @pytest.mark.parametrize("sigma", [0.0, 40.0])
    def test_output_bytes_do_not_depend_on_jobs(self, c, sigma):
        # 150x300 at sigma 40: three row bands and five column bands; the
        # top-left corner is ignored in every map, so it takes 1/C unsmoothed.
        rng = np.random.default_rng(47)
        spec = ClassSpec(names=tuple(f"c{k}" for k in range(c)))
        maps = []
        for _ in range(3):
            data = random_labelmap(rng, 150, 300, c, ignore_frac=0.3).data.copy()
            data[:7, :11] = 255
            maps.append(LabelMap(data))
        want = estimate_priors(maps, spec, sigma=sigma, floor=1e-5).data.tobytes()
        # More workers than cores, switching threads as often as possible.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for jobs in (2, 5):
                got = estimate_priors(maps, spec, sigma=sigma, floor=1e-5, jobs=jobs)
                assert got.data.tobytes() == want, jobs
        finally:
            sys.setswitchinterval(interval)

    def test_extra_memory_with_two_jobs_is_two_planes_per_worker(self):
        h, w, c = 256, 512, 19
        rng = np.random.default_rng(45)
        spec = ClassSpec(names=tuple(f"c{k}" for k in range(c)))
        maps = [LabelMap(random_labelmap(rng, h, w, c).data.astype(np.uint8)) for _ in range(3)]
        peak = peak_traced_bytes(
            lambda: estimate_priors(maps, spec, 40.0, 1e-5, jobs=2)
        )
        plane = h * w * 8
        operators = (h * h + w * w) * 8
        # uint8 counts, the float64 output, the two operators, the int32
        # totals, and a plane and a scratch plane for each of two workers.
        assert peak <= c * h * w + c * plane + operators + plane // 2 + 2 * 2 * plane

    def test_jobs_must_be_positive(self, spec3):
        with pytest.raises(DomainError, match="jobs must be at least 1, got 0"):
            estimate_priors([lm([[0]])], spec3, sigma=0.0, floor=1e-5, jobs=0)

    def test_floor_must_be_positive(self, spec3):
        with pytest.raises(DomainError):
            estimate_priors([lm([[0]])], spec3, sigma=0.0, floor=0.0)

    def test_empty_input(self, spec3):
        with pytest.raises(EmptyInputError):
            estimate_priors([], spec3, sigma=0.0, floor=1e-5)


class TestEstimatePriorsRows:
    @pytest.mark.parametrize("h", [1, 64, 65, 150, 256, 257])
    @pytest.mark.parametrize("sigma", [0.0, 40.0])
    def test_blocks_are_the_rows_of_estimate_priors_for_any_jobs(self, h, sigma):
        # 300 columns at sigma 40: five column bands; 64 rows are one whole
        # band, and 65, 150 and 257 rows end in a short row band. The top-left
        # corner is ignored in every map.
        rng = np.random.default_rng(52)
        c, w = 5, 300
        spec = ClassSpec(names=tuple(f"c{k}" for k in range(c)))
        maps = []
        for _ in range(3):
            data = random_labelmap(rng, h, w, c, ignore_frac=0.3).data.copy()
            data[:7, :11] = 255
            maps.append(LabelMap(data))
        want = estimate_priors(maps, spec, sigma=sigma, floor=1e-5).data
        for jobs in (1, 2, 5):
            shape, blocks = estimate_priors_rows(maps, spec, sigma, 1e-5, jobs=jobs)
            assert shape == (h, w, c)
            covered = 0
            for rows, block in blocks:
                assert rows.start == covered and rows.stop > rows.start, jobs
                assert block.dtype == np.float64 and block.shape == (rows.stop - rows.start, w, c)
                assert block.tobytes() == want[rows].tobytes(), (jobs, rows)
                covered = rows.stop
            assert covered == h, jobs

    def test_a_bad_label_in_the_last_map_raises_at_the_call(self, spec3):
        drawn = []

        def maps():
            for rows in ([[0, 1]], [[2, 255]], [[1, 7]]):
                drawn.append(rows)
                yield lm(rows)

        with pytest.raises(InvalidClassError, match=r"^label 7 at pixel \(0, 1\) of map 2 "):
            estimate_priors_rows(maps(), spec3, 40.0, 1e-5, jobs=2)
        assert len(drawn) == 3

    def test_an_abandoned_stream_stops_its_workers(self):
        rng = np.random.default_rng(53)
        spec = ClassSpec(names=tuple(f"c{k}" for k in range(4)))
        maps = [random_labelmap(rng, 300, 40, 4) for _ in range(2)]
        before = threading.active_count()
        _, blocks = estimate_priors_rows(maps, spec, 4.0, 1e-5, jobs=2)
        next(blocks)
        assert threading.active_count() > before
        blocks.close()
        assert threading.active_count() == before


class TestDecideBayes:
    def test_argmax(self):
        pred = decide_bayes(ProbMap(np.array([[[0.2, 0.5, 0.3]]])))
        assert pred.data.tolist() == [[1]]

    def test_tie_breaks_to_lowest_id(self):
        pred = decide_bayes(ProbMap(np.array([[[0.5, 0.5, 0.0]]])))
        assert pred.data.tolist() == [[0]]

    def test_one_hot(self):
        pred = decide_bayes(ProbMap(np.array([[[0.0, 0.0, 1.0]]])))
        assert pred.data.tolist() == [[2]]


class TestDecideMl:
    def test_uniform_priors_equal_bayes(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            p = random_probmap(rng, 6, 5, 4)
            ml = decide_ml(p, uniform_priors(6, 5, 4))
            np.testing.assert_array_equal(ml.data, decide_bayes(p).data)

    def test_prior_ratio_flips_decision(self):
        p = ProbMap(np.array([[[0.6, 0.4]]]))
        priors = PriorsMap(np.array([[[0.9, 0.1]]]), floor=1e-5)
        assert decide_ml(p, priors).data.tolist() == [[1]]

    def test_zero_probability_never_wins(self):
        p = ProbMap(np.array([[[1.0, 0.0]]]))
        priors = PriorsMap(np.array([[[1.0, 1e-5]]]), floor=1e-5)
        assert decide_ml(p, priors).data.tolist() == [[0]]

    def test_scaling_all_priors_at_a_pixel_changes_nothing(self):
        rng = np.random.default_rng(32)
        p = random_probmap(rng, 4, 4, 3)
        base = np.clip(rng.random((4, 4, 3)), 1e-5, 1.0)
        scaled = base * rng.uniform(0.25, 1.0, size=(4, 4, 1))
        before = decide_ml(p, PriorsMap(base, floor=1e-6))
        after = decide_ml(p, PriorsMap(np.clip(scaled, 1e-6, 1.0), floor=1e-6))
        np.testing.assert_array_equal(before.data, after.data)

    def test_lowering_a_prior_grows_the_assigned_set(self):
        rng = np.random.default_rng(33)
        p = random_probmap(rng, 8, 8, 4)
        base = np.clip(rng.random((8, 8, 4)), 1e-4, 1.0)
        k = 2
        before = decide_ml(p, PriorsMap(base, floor=1e-6)).data == k
        lowered = base.copy()
        lowered[:, :, k] = np.clip(lowered[:, :, k] * 0.3, 1e-6, 1.0)
        after = decide_ml(p, PriorsMap(lowered, floor=1e-6)).data == k
        assert np.all(after[before])

    def test_shape_mismatch(self):
        p = ProbMap(np.full((2, 2, 2), 0.5))
        with pytest.raises(ShapeMismatchError):
            decide_ml(p, uniform_priors(2, 3, 2))


class TestBlockedRules:
    ROWS = BLOCK_PIXELS // 500

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [
        (2 * ROWS + 7, 500, 5),
        (3, BLOCK_PIXELS + 9, 3),
        (1, 1, 4),
        (5, 70, 257),
    ], ids=["height-not-a-multiple", "row-wider-than-a-block", "one-pixel", "257-classes"])
    @pytest.mark.parametrize("ties", [False, True], ids=["random", "ties"])
    def test_rules_match_whole_map_argmax(self, dtype, shape, ties):
        rng = np.random.default_rng(41)
        if ties:
            # Quarter steps divided by priors of 1/4 or 1/2 tie exactly and often.
            data = rng.integers(0, 4, size=shape) / 4
            prior = rng.choice([0.25, 0.5], size=shape)
        else:
            data = rng.random(shape)
            prior = rng.uniform(1e-3, 1.0, size=shape)
        if shape[2] > 256:
            # Pixel (0, 0) picks class 256 under both rules; it must not wrap to 0.
            data[0, 0, -1], prior[0, 0, -1] = 1.0, prior.min()
        data = data.astype(dtype)
        p, priors = ProbMap(data), PriorsMap(prior, floor=1e-3)
        ratio = data / prior
        for pred, scores in ((decide_bayes(p), data), (decide_ml(p, priors), ratio)):
            np.testing.assert_array_equal(pred.data, np.argmax(scores, axis=2))
            # Ties go to the lowest id: the first channel that reaches the maximum.
            first_max = (scores == scores.max(axis=2, keepdims=True)).argmax(axis=2)
            np.testing.assert_array_equal(pred.data, first_max)
            if ties and scores.size > 4:
                assert ((scores == scores.max(axis=2, keepdims=True)).sum(axis=2) > 1).any()

    @pytest.mark.parametrize("rule", ["bayes", "ml"])
    def test_extra_memory_is_the_labels_and_one_block(self, rule):
        h, w, c = 512, 1024, 19
        data = np.random.default_rng(42).random((h, w, c), dtype=np.float32)
        p = ProbMap(data)
        del data
        if rule == "bayes":
            decide, args = decide_bayes, (p,)
        else:
            decide, args = decide_ml, (p, uniform_priors(h, w, c))
        peak = peak_traced_bytes(decide, *args)
        # One byte per label (19 classes fit uint8) plus two float64 blocks.
        assert decide(*args).data.dtype == np.uint8
        assert peak <= h * w + 2 * BLOCK_PIXELS * c * 8


class TestCompareRules:
    def test_uniform_priors_agree_everywhere(self, spec3):
        rng = np.random.default_rng(34)
        p = random_probmap(rng, 6, 6, 3)
        gt = random_labelmap(rng, 6, 6, 3)
        report = compare_rules(p, uniform_priors(6, 6, 3), gt)
        assert report.disagreement == 0
        assert report.bayes == report.ml

    def test_perfect_one_hot_maps(self, spec3):
        gt = lm([[0, 1], [2, 0]])
        data = np.zeros((2, 2, 3))
        for y in range(2):
            for x in range(2):
                data[y, x, gt.data[y, x]] = 1.0
        report = compare_rules(ProbMap(data), uniform_priors(2, 2, 3), gt)
        assert report.disagreement == 0
        assert report.bayes.mean_recall == 1.0 and report.ml.mean_recall == 1.0

    def test_disagreement_matches_exhaustive_count(self):
        rng = np.random.default_rng(35)
        p = random_probmap(rng, 8, 8, 3)
        gt = random_labelmap(rng, 8, 8, 3)
        skewed = PriorsMap(
            np.clip(rng.random((8, 8, 3)) ** 3, 1e-5, 1.0), floor=1e-5
        )
        report = compare_rules(p, skewed, gt, GroupSpec(num_classes=3, groups=((0, 1), (2,))))
        expected = 0
        for y in range(8):
            for x in range(8):
                b = int(np.argmax(p.data[y, x]))
                m = int(np.argmax(p.data[y, x] / skewed.data[y, x]))
                expected += b != m
        assert report.disagreement == expected


class TestPriorsMapValidation:
    def test_entries_must_respect_floor(self):
        with pytest.raises(DomainError):
            PriorsMap(np.array([[[0.5, 1e-9]]]), floor=1e-5)

    def test_entries_must_not_exceed_one(self):
        with pytest.raises(DomainError):
            PriorsMap(np.array([[[1.5, 0.5]]]), floor=1e-5)
