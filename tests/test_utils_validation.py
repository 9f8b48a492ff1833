"""Unit tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_binary_array,
    check_in_range,
    check_non_negative,
    check_one_of,
    check_positive,
    check_probability,
    check_shape,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 3.5) == 3.5

    def test_rejects_zero_when_strict(self):
        with pytest.raises(ValueError):
            check_positive("x", 0)

    def test_accepts_zero_when_not_strict(self):
        assert check_non_negative("x", 0) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_non_negative("x", -1)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            check_positive("x", float("nan"))


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_valid(self, value):
        assert check_probability("p", value) == value

    @pytest.mark.parametrize("value", [-0.1, 1.1, float("inf")])
    def test_rejects_invalid(self, value):
        with pytest.raises(ValueError):
            check_probability("p", value)


class TestCheckInRangeAndOneOf:
    def test_in_range(self):
        assert check_in_range("x", 5, 0, 10) == 5
        with pytest.raises(ValueError):
            check_in_range("x", 11, 0, 10)

    def test_one_of(self):
        assert check_one_of("mode", "a", ("a", "b")) == "a"
        with pytest.raises(ValueError):
            check_one_of("mode", "c", ("a", "b"))


class TestCheckBinaryArray:
    def test_accepts_binary(self):
        out = check_binary_array("bits", [0, 1, 1, 0])
        assert out.dtype == np.uint8

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            check_binary_array("bits", [0, 2])

    def test_empty_ok(self):
        assert check_binary_array("bits", []).size == 0

    @pytest.mark.parametrize(
        "bits, binary",
        [
            (np.array([0, 1], dtype=np.int8), True),
            (np.array([-1, 1], dtype=np.int8), False),
            (np.array([0, 2], dtype=np.uint64), False),
            (np.array([True, False]), True),
            (np.array([0.0, 1.0]), True),
            (np.array([0.0, 0.5]), False),
        ],
    )
    def test_every_dtype_takes_the_same_rule(self, bits, binary):
        if binary:
            assert np.array_equal(check_binary_array("bits", bits), bits.astype(np.uint8))
        else:
            with pytest.raises(ValueError):
                check_binary_array("bits", bits)

    def test_integer_check_allocates_only_the_copy(self):
        """The checked copy is the only allocation: widening to int64, as
        ``np.isin`` does, would cost 8 bytes per entry of a dense H."""
        import tracemalloc

        bits = np.ones((1022, 1024), dtype=np.uint8)
        tracemalloc.start()
        try:
            check_binary_array("bits", bits)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * bits.nbytes


class TestCheckShape:
    def test_exact_match(self):
        arr = np.zeros((2, 3))
        assert check_shape("a", arr, (2, 3)) is not None

    def test_wildcard(self):
        arr = np.zeros((5, 3))
        check_shape("a", arr, (-1, 3))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            check_shape("a", np.zeros(3), (1, 3))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            check_shape("a", np.zeros((2, 4)), (2, 3))
