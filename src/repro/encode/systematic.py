"""General systematic encoder derived from a parity-check matrix.

The encoder reads H's systematic form
(:meth:`~repro.codes.parity_check.ParityCheckMatrix.systematic_form`): the
parity positions (the pivot columns of the row-reduced matrix), the
information positions (the free columns) and the map from information bits
to parity bits, bit-packed by information column.  The form is derived at
most once per matrix and cached on disk, so a process with a warm cache
never densifies or row-reduces H (see :mod:`repro.codes.systematic_form`,
which also documents the ``REPRO_ENCODER_CACHE`` variable).

Encoding a batch of frames is one GF(2) product with the parity map, done
with the table method of "the Method of Four Russians" (M4RI: Albrecht, Bard
and Hart, "Algorithm 898: Efficient multiplication of dense matrices over
GF(2)", ACM TOMS 2010).  At construction the encoder builds, for every group
of four information bits, the XOR of the packed parity-map columns for each
of the group's 16 values, straight from the form's packed columns; per frame
it XORs the one table row its four bits select, group by group.  The product
is exact for any dimension.

The XOR runs in the native library of :mod:`repro.decode.native`
(``repro_encode_m4ri``), which writes each frame's bits and parity straight
into its codeword row.  :func:`m4ri_encode`, in numpy, is its reference and
the fallback where the library cannot be built.  Building an encoder loads
nothing native: the library is settled at a process's first encode or
decode.

This is the encoder the Monte-Carlo simulations use.
"""

from __future__ import annotations

import numpy as np

from repro.codes.parity_check import ParityCheckMatrix
from repro.utils.validation import check_binary_array

__all__ = ["SystematicEncoder", "as_parity_check_matrix"]

#: Information bits per table group: 2**4 = 16 entries per table.
_GROUP_BITS = 4
#: Budget of the per-chunk table gather; the frames of one batch are encoded
#: in chunks that keep it below this, whatever the batch size.
_CHUNK_BYTES = 1 << 22


def as_parity_check_matrix(code) -> ParityCheckMatrix:
    """Coerce a code-like object into a :class:`ParityCheckMatrix`.

    Accepts a ``ParityCheckMatrix``, any object exposing a
    ``parity_check_matrix()`` method (``QCLDPCCode``), an object with a
    ``base_code`` attribute (``ShortenedCode``), or a dense 0/1 array.
    """
    if isinstance(code, ParityCheckMatrix):
        return code
    if hasattr(code, "parity_check_matrix"):
        return code.parity_check_matrix()
    if hasattr(code, "base_code"):
        return as_parity_check_matrix(code.base_code)
    return ParityCheckMatrix(np.asarray(code))


def xor_tables(parity_columns: np.ndarray, parity_bits: int) -> np.ndarray:
    """One 16-entry XOR table per group of four information bits.

    ``parity_columns`` is the systematic form's packed map: one row of
    ``ceil(parity_bits / 8)`` bytes per information bit.  Row ``16 * g + v``
    of the result is the XOR of the columns of information bits ``4g + j``
    over the set bits ``j`` of ``v``, each padded to ``ceil(parity_bits /
    64)`` little-endian uint64 words.  Missing columns of the last group are
    zero.  Where no padding is needed, as for C2, the columns are read in
    place.
    """
    info_bits, column_bytes = parity_columns.shape
    groups = -(-info_bits // _GROUP_BITS)
    words = -(-parity_bits // 64)
    columns = parity_columns
    if columns.shape != (groups * _GROUP_BITS, words * 8):
        columns = np.zeros((groups * _GROUP_BITS, words * 8), dtype=np.uint8)
        columns[:info_bits, :column_bytes] = parity_columns
    packed = columns.view(np.uint64).reshape(groups, _GROUP_BITS, words)
    tables = np.zeros((groups, 1 << _GROUP_BITS, words), dtype=np.uint64)
    for value in range(1, 1 << _GROUP_BITS):
        lowest = (value & -value).bit_length() - 1
        np.bitwise_xor(
            tables[:, value & (value - 1)], packed[:, lowest], out=tables[:, value]
        )
    return tables.reshape(groups << _GROUP_BITS, words)


def m4ri_encode(
    info: np.ndarray,
    tables: np.ndarray,
    info_cols: np.ndarray,
    pivot_cols: np.ndarray,
    block_length: int,
) -> np.ndarray:
    """Codewords ``(batch, n)`` of a ``(batch, k)`` 0/1 information batch, in numpy.

    The reference of the native encode: the frames are encoded in chunks
    whose gather of ``(groups, chunk, words)`` table rows stays below
    :data:`_CHUNK_BYTES`, then unpacked into the parity positions.
    """
    frames = info.shape[0]
    groups, words = tables.shape[0] >> _GROUP_BITS, tables.shape[1]
    offsets = np.arange(groups, dtype=np.intp) << _GROUP_BITS
    chunk_frames = max(1, _CHUNK_BYTES // max(1, groups * words * 8))
    packed = np.empty((frames, words), dtype=np.uint64)
    for start in range(0, frames, chunk_frames):
        chunk = info[start : start + chunk_frames]
        # Two groups per byte: the low nibble holds bits 4g .. 4g + 3.
        octets = np.packbits(chunk, axis=1, bitorder="little")
        nibbles = np.empty((octets.shape[0], 2 * octets.shape[1]), dtype=np.intp)
        nibbles[:, 0::2] = octets & 0x0F
        nibbles[:, 1::2] = octets >> 4
        rows = nibbles[:, :groups].T + offsets[:, None]
        np.bitwise_xor.reduce(
            np.take(tables, rows, axis=0),
            axis=0,
            out=packed[start : start + chunk_frames],
        )
    bits = np.unpackbits(packed.view(np.uint8), axis=1, bitorder="little")
    codewords = np.empty((frames, block_length), dtype=np.uint8)
    codewords[:, info_cols] = info
    codewords[:, pivot_cols] = bits[:, : pivot_cols.size]
    return codewords


def _native_kernels():
    """The process's native kernels, or ``None``: imported on the first encode."""
    from repro.decode import native

    return native.kernels()


class SystematicEncoder:
    """Encoder mapping information bits to codewords of an LDPC code.

    Parameters
    ----------
    code:
        Either a :class:`~repro.codes.parity_check.ParityCheckMatrix`, an
        object with a ``parity_check_matrix()`` method (such as
        :class:`~repro.codes.qc.QCLDPCCode`), or a dense 0/1 H matrix.
    """

    def __init__(self, code):
        pcm = as_parity_check_matrix(code)
        form = pcm.systematic_form()
        self._pcm = pcm
        self._pivot_cols = form.pivot_cols
        self._info_cols = form.info_cols
        self._tables = xor_tables(form.parity_columns, form.rank)

    # ------------------------------------------------------------------ #
    @property
    def parity_check(self) -> ParityCheckMatrix:
        """The parity-check matrix this encoder was derived from."""
        return self._pcm

    @property
    def block_length(self) -> int:
        """Codeword length ``n``."""
        return self._pcm.block_length

    @property
    def dimension(self) -> int:
        """Number of information bits ``k``."""
        return int(self._info_cols.size)

    @property
    def information_positions(self) -> np.ndarray:
        """Codeword positions that carry the information bits (in order)."""
        return self._info_cols.copy()

    @property
    def parity_positions(self) -> np.ndarray:
        """Codeword positions that carry parity bits."""
        return self._pivot_cols.copy()

    # ------------------------------------------------------------------ #
    def encode(self, information_bits) -> np.ndarray:
        """Encode information bits into a codeword.

        Parameters
        ----------
        information_bits:
            Array of shape ``(k,)`` or ``(batch, k)``.

        Returns
        -------
        numpy.ndarray
            Codewords of shape ``(n,)`` or ``(batch, n)`` satisfying every
            parity check of H.
        """
        info = check_binary_array("information_bits", information_bits, copy=False)
        single = info.ndim == 1
        if single:
            info = info[None, :]
        if info.shape[1] != self.dimension:
            raise ValueError(
                f"expected {self.dimension} information bits per frame, "
                f"got {info.shape[1]}"
            )
        info = np.ascontiguousarray(info)
        kernels = _native_kernels()
        encode = m4ri_encode if kernels is None else kernels.encode_m4ri
        codewords = encode(
            info, self._tables, self._info_cols, self._pivot_cols, self.block_length
        )
        return codewords[0] if single else codewords

    def extract_information(self, codeword) -> np.ndarray:
        """Recover the information bits from a (decoded) codeword."""
        word = check_binary_array("codeword", codeword)
        if word.shape[-1] != self.block_length:
            raise ValueError(
                f"expected codewords of length {self.block_length}, got {word.shape[-1]}"
            )
        return word[..., self._info_cols]
