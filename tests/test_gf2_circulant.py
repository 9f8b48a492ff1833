"""Unit tests for repro.gf2.circulant."""

import numpy as np
import pytest

from repro.gf2.circulant import Circulant


class TestConstruction:
    def test_positions_normalized_and_sorted(self):
        c = Circulant(5, (7, 3))  # 7 mod 5 = 2
        assert c.positions == (2, 3)

    def test_duplicate_positions_rejected(self):
        with pytest.raises(ValueError):
            Circulant(5, (1, 6))  # 6 mod 5 == 1

    def test_zero_and_identity(self):
        assert Circulant(4, ()).is_zero
        assert not Circulant(4, (0,)).is_zero
        assert np.array_equal(Circulant(4, (0,)).to_dense(), np.eye(4, dtype=np.uint8))

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Circulant(0, ())


class TestDenseConsistency:
    def test_first_row_matches_dense(self):
        c = Circulant(7, (1, 4))
        assert np.flatnonzero(c.to_dense()[0]).tolist() == [1, 4]

    def test_first_column_matches_dense(self):
        c = Circulant(8, (3, 6))
        assert np.flatnonzero(c.to_dense()[:, 0]).tolist() == [2, 5]

    def test_rows_are_right_shifts(self):
        c = Circulant(6, (0, 2))
        dense = c.to_dense()
        for i in range(1, 6):
            assert np.array_equal(dense[i], np.roll(dense[i - 1], 1))

    def test_row_and_column_weights(self):
        c = Circulant(9, (2, 5, 7))
        dense = c.to_dense()
        assert (dense.sum(axis=0) == 3).all()
        assert (dense.sum(axis=1) == 3).all()

    def test_nonzero_coordinates_match_dense(self):
        c = Circulant(11, (1, 4, 9))
        rows, cols = c.nonzero_coordinates()
        dense = np.zeros((11, 11), dtype=np.uint8)
        dense[rows, cols] = 1
        assert np.array_equal(dense, c.to_dense())
