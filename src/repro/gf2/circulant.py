"""Circulant matrices over GF(2).

A ``b x b`` circulant is fully specified by its first row; every subsequent
row is the previous row cyclically shifted one position to the right.  The
CCSDS C2 parity-check matrix is a 2 x 16 array of 511 x 511 circulants of
row weight 2; :class:`~repro.codes.qc.QCLDPCCode` expands each block of
its array through :class:`Circulant`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Circulant"]


@dataclass(frozen=True)
class Circulant:
    """A binary circulant matrix described by its size and first-row support.

    Parameters
    ----------
    size:
        Matrix dimension ``b`` (the circulant is ``b x b``).
    positions:
        Sorted tuple of column indices holding a 1 in the *first row*.
        An empty tuple denotes the all-zero block.
    """

    size: int
    positions: tuple[int, ...]

    def __post_init__(self):
        if self.size <= 0:
            raise ValueError("circulant size must be positive")
        normalized = tuple(sorted(int(p) % self.size for p in self.positions))
        if len(set(normalized)) != len(normalized):
            raise ValueError("duplicate positions in circulant first row")
        object.__setattr__(self, "positions", normalized)

    # ------------------------------------------------------------------ #
    # Properties and conversions
    # ------------------------------------------------------------------ #
    @property
    def weight(self) -> int:
        """Row (= column) weight of the circulant."""
        return len(self.positions)

    @property
    def is_zero(self) -> bool:
        """``True`` when the circulant is the all-zero block."""
        return not self.positions

    def to_dense(self) -> np.ndarray:
        """Expand to the full ``size x size`` dense matrix.

        Row ``i`` contains ones at columns ``(p + i) mod size`` for every
        first-row position ``p``.
        """
        dense = np.zeros((self.size, self.size), dtype=np.uint8)
        if not self.positions:
            return dense
        rows = np.arange(self.size)
        for p in self.positions:
            dense[rows, (rows + p) % self.size] = 1
        return dense

    def nonzero_coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates ``(rows, cols)`` of every 1, without densifying.

        Useful for building sparse scatter plots of very large matrices
        (Figure 2 of the paper).
        """
        if not self.positions:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        rows = np.tile(np.arange(self.size, dtype=np.int64), self.weight)
        cols = np.concatenate(
            [(np.arange(self.size, dtype=np.int64) + p) % self.size for p in self.positions]
        )
        return rows, cols

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Circulant(size={self.size}, positions={self.positions})"

