"""Unit tests for repro.gf2.dense."""

import tracemalloc

import numpy as np
import pytest

from repro.codes import build_scaled_ccsds_code
from repro.gf2.dense import (
    gf2_inverse,
    gf2_matmul,
    gf2_matvec,
    gf2_null_space,
    gf2_rank,
    gf2_row_reduce,
    gf2_solve,
    is_binary_matrix,
)


class TestBasics:
    def test_is_binary_matrix(self):
        assert is_binary_matrix([[0, 1], [1, 0]])
        assert not is_binary_matrix([[0, 2]])

    def test_matmul_mod2(self):
        a = np.array([[1, 1], [0, 1]], dtype=np.uint8)
        b = np.array([[1, 0], [1, 1]], dtype=np.uint8)
        assert gf2_matmul(a, b).tolist() == [[0, 1], [1, 1]]

    def test_matvec_single_and_batch(self):
        h = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)
        v = np.array([1, 1, 0], dtype=np.uint8)
        assert gf2_matvec(h, v).tolist() == [0, 1]
        batch = np.array([[1, 1, 0], [1, 0, 1]], dtype=np.uint8)
        assert gf2_matvec(h, batch).tolist() == [[0, 1], [1, 1]]

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            gf2_matmul([[2]], [[1]])


class TestRowReduceAndRank:
    def test_identity_rank(self):
        assert gf2_rank(np.eye(5, dtype=np.uint8)) == 5

    def test_dependent_rows(self):
        m = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0]], dtype=np.uint8)
        # Third row is the sum of the first two.
        assert gf2_rank(m) == 2

    def test_rref_pivots_are_unit_columns(self, rng):
        m = rng.integers(0, 2, size=(6, 10), dtype=np.uint8)
        rref, pivots = gf2_row_reduce(m)
        for row, col in enumerate(pivots):
            column = rref[:, col]
            assert column[row] == 1
            assert column.sum() == 1

    def test_rank_invariant_under_row_permutation(self, rng):
        m = rng.integers(0, 2, size=(8, 12), dtype=np.uint8)
        perm = rng.permutation(8)
        assert gf2_rank(m) == gf2_rank(m[perm])

    def test_reducing_a_parity_check_matrix_holds_one_copy(self):
        """The reduction works in one copy of H and XORs rows in bounded blocks.

        The scaled C2 twin's H has 254 rows, so its pivot columns reach
        more rows than one block; the input must come back unchanged.
        """
        h = build_scaled_ccsds_code(127).parity_check_matrix().to_dense()
        before = h.copy()
        tracemalloc.start()
        try:
            rref, pivots = gf2_row_reduce(h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * h.nbytes, f"peak {peak / h.nbytes:.2f} x the matrix"
        assert np.array_equal(h, before)
        for row, col in enumerate(pivots):
            assert rref[row, col] == 1 and rref[:, col].sum() == 1
        assert not rref[len(pivots):].any()
        assert gf2_rank(np.concatenate([h, rref[: len(pivots)]])) == len(pivots)


    def test_overwrite_reduces_the_matrix_itself(self, rng):
        """``overwrite=True`` returns the input, reduced, with the pivots of a copy's reduction."""
        m = rng.integers(0, 2, size=(9, 14), dtype=np.uint8)
        want, want_pivots = gf2_row_reduce(m)
        work = m.copy()
        rref, pivots = gf2_row_reduce(work, overwrite=True)
        assert rref is work
        assert pivots == want_pivots
        assert np.array_equal(rref, want)


class TestNullSpace:
    def test_null_space_annihilated(self, rng):
        m = rng.integers(0, 2, size=(5, 12), dtype=np.uint8)
        basis = gf2_null_space(m)
        assert basis.shape[0] == 12 - gf2_rank(m)
        for row in basis:
            assert not gf2_matvec(m, row).any()

    def test_null_space_rows_independent(self, rng):
        m = rng.integers(0, 2, size=(4, 10), dtype=np.uint8)
        basis = gf2_null_space(m)
        assert gf2_rank(basis) == basis.shape[0]

    def test_full_rank_square_has_trivial_null_space(self):
        assert gf2_null_space(np.eye(4, dtype=np.uint8)).shape[0] == 0


class TestSolve:
    def test_solution_satisfies_system(self, rng):
        m = rng.integers(0, 2, size=(6, 9), dtype=np.uint8)
        x_true = rng.integers(0, 2, size=9, dtype=np.uint8)
        rhs = gf2_matvec(m, x_true)
        x = gf2_solve(m, rhs)
        assert x is not None
        assert np.array_equal(gf2_matvec(m, x), rhs)

    def test_inconsistent_system_returns_none(self):
        m = np.array([[1, 0], [1, 0]], dtype=np.uint8)
        rhs = np.array([0, 1], dtype=np.uint8)
        assert gf2_solve(m, rhs) is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gf2_solve(np.eye(3, dtype=np.uint8), np.array([1, 0], dtype=np.uint8))


class TestInverse:
    def test_inverse_roundtrip(self):
        m = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=np.uint8)
        inv = gf2_inverse(m)
        assert np.array_equal(gf2_matmul(m, inv), np.eye(3, dtype=np.uint8))

    def test_singular_raises(self):
        m = np.array([[1, 1], [1, 1]], dtype=np.uint8)
        with pytest.raises(ValueError):
            gf2_inverse(m)

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            gf2_inverse(np.zeros((2, 3), dtype=np.uint8))
