"""Quasi-Cyclic LDPC codes.

A QC-LDPC code is described by a small *block array* of circulants: the
CCSDS C2 code juxtaposes a 2 x 16 array of 511 x 511 circulants, each of
row/column weight 2, to form the 1022 x 8176 parity-check matrix
(paper Section 2.2).  :class:`CirculantSpec` captures that block array and
:class:`QCLDPCCode` expands it (lazily) into a
:class:`~repro.codes.parity_check.ParityCheckMatrix` and exposes the
structure the hardware exploits (which block column / offset every edge
belongs to).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.codes.parity_check import ParityCheckMatrix
from repro.gf2.circulant import Circulant
from repro.gf2.sparse import SparseBinaryMatrix

__all__ = ["CirculantSpec", "QCLDPCCode"]


@dataclass(frozen=True)
class CirculantSpec:
    """Block-array description of a QC-LDPC parity-check matrix.

    Parameters
    ----------
    circulant_size:
        Size ``b`` of every circulant block.
    block_positions:
        Nested tuple of shape ``(row_blocks, col_blocks)``; entry ``[j][k]``
        is the tuple of first-row positions of circulant block ``(j, k)``
        (empty tuple = zero block).
    """

    circulant_size: int
    block_positions: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        if self.circulant_size <= 0:
            raise ValueError("circulant_size must be positive")
        if not self.block_positions:
            raise ValueError("block_positions must not be empty")
        width = len(self.block_positions[0])
        normalized_rows = []
        for row in self.block_positions:
            if len(row) != width:
                raise ValueError("all block rows must have the same number of columns")
            normalized_row = []
            for positions in row:
                norm = tuple(sorted(int(p) % self.circulant_size for p in positions))
                if len(set(norm)) != len(norm):
                    raise ValueError("duplicate first-row position in a circulant block")
                normalized_row.append(norm)
            normalized_rows.append(tuple(normalized_row))
        object.__setattr__(self, "block_positions", tuple(normalized_rows))

    # ------------------------------------------------------------------ #
    @property
    def row_blocks(self) -> int:
        """Number of block rows."""
        return len(self.block_positions)

    @property
    def col_blocks(self) -> int:
        """Number of block columns."""
        return len(self.block_positions[0])

    @property
    def num_checks(self) -> int:
        """Total number of parity-check rows ``m = row_blocks * b``."""
        return self.row_blocks * self.circulant_size

    @property
    def block_length(self) -> int:
        """Total code length ``n = col_blocks * b``."""
        return self.col_blocks * self.circulant_size

    def circulant(self, block_row: int, block_col: int) -> Circulant:
        """The circulant object at block coordinates ``(block_row, block_col)``."""
        return Circulant(self.circulant_size, self.block_positions[block_row][block_col])

    def block_weights(self) -> np.ndarray:
        """Matrix of circulant weights, shape ``(row_blocks, col_blocks)``."""
        return np.array(
            [[len(pos) for pos in row] for row in self.block_positions], dtype=np.int64
        )

    def total_edges(self) -> int:
        """Total number of ones in the expanded parity-check matrix."""
        return int(self.block_weights().sum()) * self.circulant_size

    def row_weight(self) -> int:
        """Total row weight of the expanded H (assumes block-row regularity)."""
        weights = self.block_weights().sum(axis=1)
        return int(weights[0])

    def column_weight(self) -> int:
        """Total column weight of the expanded H (assumes block-column regularity)."""
        weights = self.block_weights().sum(axis=0)
        return int(weights[0])


class QCLDPCCode:
    """A Quasi-Cyclic LDPC code expanded from a :class:`CirculantSpec`.

    The expansion to a sparse parity-check matrix and the dense rank
    computation are performed lazily and cached, because the full CCSDS code
    is large (8176 columns, ~32k edges).
    """

    def __init__(self, spec: CirculantSpec):
        self._spec = spec
        self._pcm: ParityCheckMatrix | None = None
        self._dimension: int | None = None

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    @property
    def spec(self) -> CirculantSpec:
        """The circulant block-array specification."""
        return self._spec

    @property
    def circulant_size(self) -> int:
        """Size of each circulant block."""
        return self._spec.circulant_size

    @property
    def block_length(self) -> int:
        """Code length ``n``."""
        return self._spec.block_length

    @property
    def num_checks(self) -> int:
        """Number of parity-check equations ``m`` (rows of H, possibly redundant)."""
        return self._spec.num_checks

    @property
    def num_edges(self) -> int:
        """Number of edges in the Tanner graph."""
        return self._spec.total_edges()

    @property
    def dimension(self) -> int:
        """True code dimension ``k = n - rank(H)``.

        For the CCSDS construction every column has even weight, so the rows
        of H sum to zero and H is rank deficient; the dimension is therefore
        larger than ``n - m``.
        """
        if self._dimension is None:
            self._dimension = self.parity_check_matrix().dimension
        return self._dimension

    @property
    def rate(self) -> float:
        """True code rate ``k / n``."""
        return self.dimension / self.block_length

    # ------------------------------------------------------------------ #
    # Expansion
    # ------------------------------------------------------------------ #
    def parity_check_matrix(self) -> ParityCheckMatrix:
        """Expand (once) into a sparse :class:`ParityCheckMatrix`."""
        if self._pcm is None:
            self._pcm = ParityCheckMatrix(self._expand_sparse())
        return self._pcm

    def _expand_sparse(self) -> SparseBinaryMatrix:
        spec = self._spec
        b = spec.circulant_size
        all_rows: list[np.ndarray] = []
        all_cols: list[np.ndarray] = []
        for j in range(spec.row_blocks):
            for k in range(spec.col_blocks):
                circulant = spec.circulant(j, k)
                if circulant.is_zero:
                    continue
                rows, cols = circulant.nonzero_coordinates()
                all_rows.append(rows + j * b)
                all_cols.append(cols + k * b)
        if all_rows:
            rows = np.concatenate(all_rows)
            cols = np.concatenate(all_cols)
        else:
            rows = np.empty(0, dtype=np.int64)
            cols = np.empty(0, dtype=np.int64)
        return SparseBinaryMatrix((spec.num_checks, spec.block_length), rows, cols)

    # ------------------------------------------------------------------ #
    # Hardware-oriented views
    # ------------------------------------------------------------------ #
    def block_coordinates_of_bit(self, bit_index: int) -> tuple[int, int]:
        """``(block_column, offset)`` of a bit index — the memory address split
        the hardware uses (block column selects the memory bank, offset the word)."""
        if not 0 <= bit_index < self.block_length:
            raise ValueError("bit index out of range")
        return bit_index // self.circulant_size, bit_index % self.circulant_size

    def block_coordinates_of_check(self, check_index: int) -> tuple[int, int]:
        """``(block_row, offset)`` of a check index."""
        if not 0 <= check_index < self.num_checks:
            raise ValueError("check index out of range")
        return check_index // self.circulant_size, check_index % self.circulant_size

    def syndrome(self, codeword) -> np.ndarray:
        """Syndrome of a codeword (or batch) with respect to the expanded H."""
        return self.parity_check_matrix().syndrome(codeword)

    def is_codeword(self, word) -> bool | np.ndarray:
        """Whether a word (or each word in a batch) is a valid codeword."""
        return self.parity_check_matrix().is_codeword(word)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QCLDPCCode(b={self.circulant_size}, "
            f"blocks={self._spec.row_blocks}x{self._spec.col_blocks}, "
            f"n={self.block_length})"
        )
