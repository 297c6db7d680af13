import functools

import numpy as np
import pytest

from segrecall import ClassSpec, LabelMap, PriorsMap, ProbMap, validate_probmap
from segrecall.core import check_same_resolution
from segrecall.errors import (
    InvalidClassError,
    NotNormalizedError,
    OutOfRangeError,
    ShapeMismatchError,
)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.25])
    def test_out_of_range_names_the_first_offending_pixel(self, bad):
        data = np.full((4, 5, 3), 1.0 / 3)
        data[2, 3, 1] = bad
        data[3, 4, 0] = bad
        with pytest.raises(OutOfRangeError, match=r"at pixel \(2, 3\) channel 1 "):
            validate_probmap(ProbMap(data))

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
    (functools.partial(PriorsMap, sigma=0.0, floor=1e-5), lambda: np.full((2, 3, 2), 0.5)),
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
        check_same_resolution(a, b)
