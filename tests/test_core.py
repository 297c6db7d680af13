import functools
import re
import threading
from contextvars import ContextVar

import numpy as np
import pytest

from segrecall import ClassSpec, LabelMap, PriorsMap, ProbMap, validate_probmap
from segrecall.core import (
    _LABEL_BLOCK_PIXELS,
    BLOCK_PIXELS,
    PROB_SUM_TOL,
    check_same_resolution,
    worker_pool,
)
from segrecall.errors import (
    InvalidClassError,
    NotNormalizedError,
    OutOfRangeError,
    ShapeMismatchError,
)

from conftest import peak_traced_bytes


class TestClassSpec:
    def test_basic(self):
        spec = ClassSpec(names=("a", "b", "c"))
        assert spec.num_classes == 3
        assert spec.ignore_id == 255
        assert spec.index_of("b") == 1

    def test_duplicate_names_rejected(self):
        with pytest.raises(InvalidClassError):
            ClassSpec(names=("a", "a"))

    def test_empty_name_rejected(self):
        with pytest.raises(InvalidClassError):
            ClassSpec(names=("a", ""))

    def test_no_names_rejected(self):
        with pytest.raises(InvalidClassError):
            ClassSpec(names=())

    def test_ignore_id_must_be_outside_class_range(self):
        with pytest.raises(InvalidClassError):
            ClassSpec(names=("a", "b"), ignore_id=1)
        ClassSpec(names=("a", "b"), ignore_id=-1)  # fine

    def test_unknown_name(self):
        with pytest.raises(InvalidClassError):
            ClassSpec(names=("a",)).index_of("missing")


class TestProbMapValidation:
    def test_exactly_normalized(self):
        validate_probmap(ProbMap(np.array([[[0.5, 0.5]]])))

    def test_sum_violation(self):
        with pytest.raises(NotNormalizedError):
            validate_probmap(ProbMap(np.array([[[0.7, 0.7]]])))

    def test_tolerance_path(self):
        # Just inside and just outside the 1e-4 band around 1.
        validate_probmap(ProbMap(np.array([[[0.3334, 0.3333, 0.3333]]])))
        validate_probmap(ProbMap(np.array([[[0.50005, 0.5]]])))
        with pytest.raises(NotNormalizedError):
            validate_probmap(ProbMap(np.array([[[0.50011, 0.5]]])))

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            validate_probmap(ProbMap(np.array([[[1.2, -0.2]]])))
        with pytest.raises(OutOfRangeError):
            validate_probmap(ProbMap(np.array([[[np.nan, 1.0]]])))
        with pytest.raises(OutOfRangeError):
            validate_probmap(ProbMap(np.array([[[np.inf, 0.0]]])))

    @pytest.mark.parametrize("bad, text", [
        pytest.param(np.nan, "nan", id="nan"),
        pytest.param(np.inf, "inf", id="inf"),
        pytest.param(-0.25, "-0.25", id="-0.25"),
    ])
    def test_out_of_range_names_the_first_offending_pixel(self, bad, text):
        data = np.full((4, 5, 3), 1.0 / 3)
        data[2, 3, 1] = bad
        data[3, 4, 0] = bad
        with pytest.raises(OutOfRangeError, match=rf"^probability {text} at pixel \(2, 3\) channel 1 "):
            validate_probmap(ProbMap(data))

    def test_out_of_range_in_a_later_block_wins_over_an_earlier_bad_sum(self):
        w = 500
        rows = BLOCK_PIXELS // w
        data = np.full((2 * rows + 7, w, 3), 1.0 / 3)
        data[0, 0] = [1.0, 0.5, 0.0]  # channel sum 1.5, in block 0
        data[-1, 7, 0] = np.nan  # in the last block
        line = f"probability nan at pixel ({2 * rows + 6}, 7) channel 0 is outside [0, 1]"
        with pytest.raises(OutOfRangeError, match=f"^{re.escape(line)}$"):
            validate_probmap(ProbMap(data))
        data[-1, 7, 0] = 1.0 / 3
        with pytest.raises(NotNormalizedError, match=r"^channel sum 1\.500000 at pixel \(0, 0\) "):
            validate_probmap(ProbMap(data))

    @staticmethod
    def _pixels_summing_to(rng, targets, c, dtype):
        # Each pixel's channels share out its target sum; the cast to dtype
        # scatters the float64 sum by about one ulp around the target.
        shares = rng.dirichlet(np.full(c, 5.0), size=targets.shape)
        return np.clip(shares * targets[..., None], 0.0, 1.0).astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c", [2, 19])
    def test_guard_band_decides_like_a_float64_sum(self, dtype, c):
        rng = np.random.default_rng(43)
        ulp = np.finfo(dtype).eps
        outcomes = set()
        for trial in range(300):
            # Pixels at 1 +/- (tol + k ulp); every third map has all of them
            # at least c ulps inside the edge, so that it may pass.
            shape = (1, 1) if trial % 3 == 0 else (5, 6)
            k = rng.integers(-4 * c, 4 * c + 1, size=shape)
            if trial % 3 == 2:
                k = -np.abs(k) - c
            side = rng.choice([1.0, -1.0], size=shape)
            data = self._pixels_summing_to(rng, 1 + side * (PROB_SUM_TOL + k * ulp), c, dtype)
            sums = data.sum(axis=2, dtype=np.float64)
            off = np.argwhere(np.abs(sums - 1) > PROB_SUM_TOL)
            if off.size:
                y, x = off[0]
                line = f"channel sum {sums[y, x]:.6f} at pixel ({y}, {x}) is outside"
                with pytest.raises(NotNormalizedError, match=re.escape(line)):
                    validate_probmap(ProbMap(data))
            else:
                validate_probmap(ProbMap(data))
            outcomes.add((data.shape[:2], bool(off.size)))
        assert len(outcomes) == 4  # accepted and rejected maps of both sizes

    def test_extra_memory_stays_below_a_float64_plane(self):
        h, w, c = 512, 1024, 19
        data = np.random.default_rng(44).random((h, w, c), dtype=np.float32)
        data /= data.sum(axis=2, keepdims=True)
        p = ProbMap(data)
        del data
        assert peak_traced_bytes(validate_probmap, p) < h * w * 8

    def test_from_array_validates(self):
        with pytest.raises(NotNormalizedError):
            validate_probmap(ProbMap(np.full((2, 2, 2), 0.7)))

    def test_shape_checks(self):
        with pytest.raises(ShapeMismatchError):
            ProbMap(np.zeros((2, 2)))

    def test_immutable(self):
        pm = ProbMap(np.array([[[0.5, 0.5]]]))
        with pytest.raises(ValueError):
            pm.data[0, 0, 0] = 1.0


MAP_TYPES = [
    (ProbMap, lambda: np.full((2, 3, 2), 0.5)),
    (LabelMap, lambda: np.ones((2, 3), dtype=np.int64)),
    (functools.partial(PriorsMap, floor=1e-5), lambda: np.full((2, 3, 2), 0.5)),
]


@pytest.mark.parametrize("cls,make", MAP_TYPES, ids=["ProbMap", "LabelMap", "PriorsMap"])
class TestArrayAdoption:
    def test_writeable_array_is_copied(self, cls, make):
        data = make()
        m = cls(data)
        data[0, 0] = 0
        assert not np.shares_memory(m.data, data)
        assert m.data[0, 0].tolist() == make()[0, 0].tolist()

    def test_read_only_owner_is_adopted(self, cls, make):
        data = make()
        data.setflags(write=False)
        assert np.shares_memory(cls(data).data, data)

    def test_read_only_view_of_writeable_base_is_copied(self, cls, make):
        base = make()
        view = base[:]
        view.setflags(write=False)
        m = cls(view)
        base[0, 0] = 0
        assert not np.shares_memory(m.data, base)
        assert m.data[0, 0].tolist() == make()[0, 0].tolist()


class TestLabelMap:
    def test_from_array_accepts_classes_and_ignore(self, spec3):
        lm = LabelMap.from_array(np.array([[0, 1], [2, 255]]), spec3)
        assert lm.mask().tolist() == [[True, True], [True, False]]

    def test_invalid_value_rejected(self, spec3):
        with pytest.raises(InvalidClassError):
            LabelMap.from_array(np.array([[0, 7]]), spec3)

    @pytest.mark.parametrize("dtype, value", [(np.uint8, 7), (np.int64, 7), (np.int64, -1)])
    def test_bad_id_in_a_later_block_names_its_pixel(self, spec3, dtype, value):
        w = 100
        rows = _LABEL_BLOCK_PIXELS // w
        data = np.zeros((3 * rows + 5, w), dtype=dtype)
        data[-1] = 255
        data[rows + 3, 42] = value
        data[2 * rows, 0] = 9  # a later bad id is not named
        with pytest.raises(InvalidClassError) as exc:
            LabelMap.from_array(data, spec3)
        assert str(exc.value) == (
            f"label {value} at pixel ({rows + 3}, 42) is not a class id or ignore id"
        )

    def test_float_data_rejected(self):
        with pytest.raises(InvalidClassError):
            LabelMap(np.array([[0.5]]))

    def test_immutable(self, spec3):
        lm = LabelMap.from_array(np.array([[0]]), spec3)
        with pytest.raises(ValueError):
            lm.data[0, 0] = 1


def test_resolution_check():
    a = LabelMap(np.zeros((2, 3), dtype=np.int64))
    b = LabelMap(np.zeros((3, 2), dtype=np.int64))
    with pytest.raises(ShapeMismatchError):
        check_same_resolution((a.height, a.width), (b.height, b.width))


def test_worker_threads_run_in_the_callers_context():
    # fileio.pinned_inputs() must reach decide's worker threads.
    var = ContextVar("var", default="unset")
    token = var.set("caller")
    barrier = threading.Barrier(2, timeout=10)  # both threads hold an item at once

    def seen(_):
        barrier.wait()
        var.set("item")  # stays in this item's own copy
        return threading.current_thread() is not threading.main_thread(), var.get()

    try:
        with worker_pool(2) as map_items:
            assert map_items(lambda _: var.get(), range(2)) == ["caller"] * 2
            assert map_items(seen, range(2)) == [(True, "item")] * 2
            assert map_items(lambda _: var.get(), range(2)) == ["caller"] * 2
    finally:
        var.reset(token)
