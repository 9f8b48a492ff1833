"""General systematic encoder derived from a parity-check matrix.

The encoder row-reduces H once, splits the columns into *parity positions*
(the pivot columns of the reduced matrix) and *information positions* (the
free columns), and precomputes the dense map from information bits to parity
bits.  Encoding a frame (or a batch of frames) is then a single GF(2)
matrix product.

This is the reference encoder used by the Monte-Carlo simulations; the
hardware-style circulant encoder lives in :mod:`repro.encode.qc_encoder`.

Because the row reduction is by far the most expensive part (minutes for the
full 8176-bit CCSDS code) and every Monte-Carlo *worker process* builds its
own encoder, the reduction result is memoized to an on-disk cache keyed by a
hash of the parity-check matrix.  The cache lives under
``~/.cache/repro/encoders`` by default; the ``REPRO_ENCODER_CACHE``
environment variable overrides the directory, and setting it to ``0`` /
``off`` / ``none`` disables caching entirely.  Cache reads and writes are
best-effort — any I/O problem or corrupt file silently falls back to the
direct computation.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path

import numpy as np

from repro.codes.parity_check import ParityCheckMatrix
from repro.gf2.dense import gf2_row_reduce
from repro.utils.validation import check_binary_array

__all__ = [
    "SystematicEncoder",
    "as_parity_check_matrix",
    "default_encoder_cache_dir",
    "parity_check_fingerprint",
]

#: Float32 represents every integer below 2**24 exactly, so the encoding
#: product (see :meth:`SystematicEncoder.encode`) is exact for k below it.
_FLOAT32_EXACT_INTEGERS = 2**24

_CACHE_ENV = "REPRO_ENCODER_CACHE"
_CACHE_DISABLED = {"", "0", "off", "none", "disabled", "false"}
_DEFAULT_CACHE = object()


def default_encoder_cache_dir() -> Path | None:
    """Directory of the encoder cache, or ``None`` when caching is disabled.

    Controlled by the ``REPRO_ENCODER_CACHE`` environment variable: unset
    means ``~/.cache/repro/encoders``, a path means that path, and ``0`` /
    ``off`` / ``none`` / ``false`` disables the cache.
    """
    value = os.environ.get(_CACHE_ENV)
    if value is None:
        return Path.home() / ".cache" / "repro" / "encoders"
    if value.strip().lower() in _CACHE_DISABLED:
        return None
    return Path(value)


def parity_check_fingerprint(pcm: ParityCheckMatrix) -> str:
    """Content hash of a parity-check matrix (shape + bit pattern)."""
    return _dense_fingerprint(pcm.to_dense())


def _dense_fingerprint(h_dense: np.ndarray) -> str:
    digest = hashlib.sha256()
    digest.update(np.asarray(h_dense.shape, dtype=np.int64).tobytes())
    digest.update(np.packbits(h_dense, axis=None).tobytes())
    return digest.hexdigest()


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


class SystematicEncoder:
    """Encoder mapping information bits to codewords of an LDPC code.

    Parameters
    ----------
    code:
        Either a :class:`~repro.codes.parity_check.ParityCheckMatrix`, an
        object with a ``parity_check_matrix()`` method (such as
        :class:`~repro.codes.qc.QCLDPCCode`), or a dense 0/1 H matrix.
    cache_dir:
        Directory of the on-disk row-reduction cache.  Defaults to
        :func:`default_encoder_cache_dir` (environment-controlled); pass
        ``None`` to disable caching for this encoder.
    """

    def __init__(self, code, *, cache_dir=_DEFAULT_CACHE):
        pcm = as_parity_check_matrix(code)
        self._pcm = pcm
        if cache_dir is _DEFAULT_CACHE:
            cache_dir = default_encoder_cache_dir()
        n = pcm.block_length
        # Materialize the dense H (and hash it) exactly once per build: both
        # the fingerprint and the row reduction need it, and for the full
        # 8176-bit code each dense build is ~8M entries.
        h_dense = None
        cache_path = None
        if cache_dir is not None:
            h_dense = pcm.to_dense()
            cache_path = Path(cache_dir) / f"{_dense_fingerprint(h_dense)}.npz"
        cached = self._load_cached(cache_path, n)
        if cached is not None:
            parity_map, pivot_cols, info_cols = cached
        else:
            if h_dense is None:
                h_dense = pcm.to_dense()
            rref, pivots = gf2_row_reduce(h_dense)
            pivot_cols = np.array(pivots, dtype=np.int64)
            info_cols = np.setdiff1d(np.arange(n, dtype=np.int64), pivot_cols)
            # Parity equations: for pivot row r with pivot column pivots[r],
            #   c[pivots[r]] = sum over info columns f of rref[r, f] * c[f].
            parity_map = rref[: pivot_cols.size][:, info_cols].astype(np.uint8)
            self._store_cached(cache_path, parity_map, pivot_cols, info_cols)
        if info_cols.size >= _FLOAT32_EXACT_INTEGERS:
            raise ValueError(
                f"the encoding product needs k < 2**24, got k = {info_cols.size}"
            )
        self._parity_map = parity_map
        self._pivot_cols = pivot_cols
        self._info_cols = info_cols

    # ------------------------------------------------------------------ #
    @staticmethod
    def _load_cached(path: Path | None, n: int):
        """Load (parity_map, pivot_cols, info_cols) or ``None``.

        Any corruption — missing arrays, wrong shapes, unreadable file —
        falls back to recomputation; the cache can never make an encoder
        wrong, only fast.
        """
        if path is None or not path.exists():
            return None
        try:
            with np.load(path) as data:
                parity_map = np.asarray(data["parity_map"], dtype=np.uint8)
                pivot_cols = np.asarray(data["pivot_cols"], dtype=np.int64)
                info_cols = np.asarray(data["info_cols"], dtype=np.int64)
        except Exception:
            return None
        if pivot_cols.size + info_cols.size != n:
            return None
        if parity_map.shape != (pivot_cols.size, info_cols.size):
            return None
        return parity_map, pivot_cols, info_cols

    @staticmethod
    def _store_cached(path: Path | None, parity_map, pivot_cols, info_cols) -> None:
        if path is None:
            return
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=path.stem, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    np.savez(
                        handle,
                        parity_map=parity_map,
                        pivot_cols=pivot_cols,
                        info_cols=info_cols,
                    )
                os.replace(tmp_name, path)
            except BaseException:
                os.unlink(tmp_name)
                raise
        except Exception:  # pragma: no cover - cache writes are best-effort
            return

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
        info = check_binary_array("information_bits", information_bits)
        single = info.ndim == 1
        if single:
            info = info[None, :]
        if info.shape[1] != self.dimension:
            raise ValueError(
                f"expected {self.dimension} information bits per frame, "
                f"got {info.shape[1]}"
            )
        # The GF(2) product runs through float32 BLAS, and it is exact: every
        # partial sum is an integer of at most k < 2**24 (checked in
        # __init__), which float32 represents exactly, so no addition in
        # any order rounds.  The map is cast per call and never cached: a
        # float32 copy of the C2 map would stay resident at 29 MB.
        parity = (info.astype(np.float32) @ self._parity_map.T.astype(np.float32)) % 2
        codewords = np.zeros((info.shape[0], self.block_length), dtype=np.uint8)
        codewords[:, self._info_cols] = info
        codewords[:, self._pivot_cols] = parity.astype(np.uint8)
        return codewords[0] if single else codewords

    def extract_information(self, codeword) -> np.ndarray:
        """Recover the information bits from a (decoded) codeword."""
        word = check_binary_array("codeword", codeword)
        if word.shape[-1] != self.block_length:
            raise ValueError(
                f"expected codewords of length {self.block_length}, got {word.shape[-1]}"
            )
        return word[..., self._info_cols]
