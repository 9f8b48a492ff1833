"""Parity-check matrix wrapper.

``ParityCheckMatrix`` owns the sparse H matrix of an LDPC code and exposes
the views the rest of the library needs: degree profiles, syndrome checks,
edge lists for the decoders, the systematic form that both rank/dimension
and the systematic encoder read (derived lazily, at most once per matrix,
and cached on disk — see :mod:`repro.codes.systematic_form`), and the
scatter data used to reproduce Figure 2 of the paper.
"""

from __future__ import annotations

import numpy as np

from repro.codes.systematic_form import SystematicForm, derive_systematic_form
from repro.gf2.sparse import SparseBinaryMatrix

__all__ = ["ParityCheckMatrix"]


class ParityCheckMatrix:
    """Sparse parity-check matrix of an (n, k) LDPC code.

    Parameters
    ----------
    matrix:
        Either a :class:`~repro.gf2.sparse.SparseBinaryMatrix` or a dense 0/1
        array of shape ``(m, n)`` where ``m`` is the number of parity checks
        and ``n`` the code length.
    """

    def __init__(self, matrix):
        if isinstance(matrix, SparseBinaryMatrix):
            self._sparse = matrix
        else:
            self._sparse = SparseBinaryMatrix.from_dense(np.asarray(matrix))
        self._form: SystematicForm | None = None

    # ------------------------------------------------------------------ #
    # Basic dimensions
    # ------------------------------------------------------------------ #
    @property
    def sparse(self) -> SparseBinaryMatrix:
        """The underlying sparse matrix."""
        return self._sparse

    @property
    def num_checks(self) -> int:
        """Number of parity-check rows ``m``."""
        return self._sparse.shape[0]

    @property
    def block_length(self) -> int:
        """Code length ``n`` (number of columns)."""
        return self._sparse.shape[1]

    @property
    def num_edges(self) -> int:
        """Number of ones in H — the number of messages exchanged per iteration."""
        return self._sparse.nnz

    def systematic_form(self) -> SystematicForm:
        """Pivot columns, information columns and parity map of H.

        Derived on the first call and kept: read from the on-disk encoder
        cache, keyed by H's coordinates, or computed by one row reduction of
        dense H that is then stored there (see
        :func:`~repro.codes.systematic_form.derive_systematic_form`).
        """
        if self._form is None:
            self._form = derive_systematic_form(self._sparse)
        return self._form

    @property
    def rank(self) -> int:
        """GF(2) rank of H, from its systematic form.

        The first read on a matrix reads the on-disk encoder cache, or
        row-reduces H and fills the cache with its whole systematic form
        (about 1 MB for C2), even if the code is never encoded.  With
        ``REPRO_ENCODER_CACHE=off`` it row-reduces H once per matrix and
        writes nothing.
        """
        return self.systematic_form().rank

    @property
    def dimension(self) -> int:
        """Code dimension ``k = n - rank(H)``.

        Reads :attr:`rank`, so the first read reads or fills the on-disk
        encoder cache.
        """
        return self.block_length - self.rank

    @property
    def design_rate(self) -> float:
        """Design rate ``(n - m) / n`` assuming full-rank H."""
        return (self.block_length - self.num_checks) / self.block_length

    @property
    def rate(self) -> float:
        """True code rate ``k / n`` using the actual rank of H."""
        return self.dimension / self.block_length

    # ------------------------------------------------------------------ #
    # Degree profiles
    # ------------------------------------------------------------------ #
    def check_degrees(self) -> np.ndarray:
        """Degree (row weight) of every check node."""
        return self._sparse.row_degrees()

    def bit_degrees(self) -> np.ndarray:
        """Degree (column weight) of every bit node."""
        return self._sparse.col_degrees()

    def is_regular(self) -> bool:
        """``True`` when all check degrees are equal and all bit degrees are equal."""
        check = self.check_degrees()
        bit = self.bit_degrees()
        return bool(
            check.size
            and bit.size
            and (check == check[0]).all()
            and (bit == bit[0]).all()
        )

    def degree_profile(self) -> dict[str, dict[int, int]]:
        """Histogram of check and bit degrees.

        Returns a dictionary ``{"check": {degree: count}, "bit": {...}}``.
        """
        check_vals, check_counts = np.unique(self.check_degrees(), return_counts=True)
        bit_vals, bit_counts = np.unique(self.bit_degrees(), return_counts=True)
        return {
            "check": {int(v): int(c) for v, c in zip(check_vals, check_counts)},
            "bit": {int(v): int(c) for v, c in zip(bit_vals, bit_counts)},
        }

    # ------------------------------------------------------------------ #
    # Edge views and syndrome
    # ------------------------------------------------------------------ #
    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """``(check_index, bit_index)`` arrays of every edge, sorted by check."""
        return self._sparse.row_indices, self._sparse.col_indices

    def syndrome(self, codeword) -> np.ndarray:
        """Syndrome ``H @ c^T mod 2`` for a codeword or a batch of codewords."""
        return self._sparse.matvec(codeword)

    def is_codeword(self, word) -> bool | np.ndarray:
        """Whether a word (or each word of a batch) satisfies all parity checks."""
        syndrome = self.syndrome(word)
        if syndrome.ndim == 1:
            return bool(not syndrome.any())
        return ~syndrome.any(axis=1)

    # ------------------------------------------------------------------ #
    # Figure-2 style views
    # ------------------------------------------------------------------ #
    def scatter(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates of every 1 in H, for scatter plots (paper Figure 2)."""
        return self._sparse.row_indices.copy(), self._sparse.col_indices.copy()

    def density_grid(self, row_bins: int, col_bins: int) -> np.ndarray:
        """Count the ones of H in a ``row_bins x col_bins`` grid.

        This is an ASCII-friendly stand-in for the scatter chart: each cell
        of the returned array counts the ones whose coordinates fall in the
        corresponding rectangle of H.
        """
        if row_bins <= 0 or col_bins <= 0:
            raise ValueError("bin counts must be positive")
        rows, cols = self.scatter()
        m, n = self._sparse.shape
        row_cell = np.minimum((rows * row_bins) // m, row_bins - 1)
        col_cell = np.minimum((cols * col_bins) // n, col_bins - 1)
        grid = np.zeros((row_bins, col_bins), dtype=np.int64)
        np.add.at(grid, (row_cell, col_cell), 1)
        return grid

    def to_dense(self) -> np.ndarray:
        """Dense 0/1 copy of H (use only for small codes and tests)."""
        return self._sparse.to_dense()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ParityCheckMatrix(m={self.num_checks}, n={self.block_length}, "
            f"edges={self.num_edges})"
        )
