"""Systematic form of a parity-check matrix, and its on-disk cache.

Row-reducing H over GF(2) splits its columns into *parity positions* (the
pivot columns of the reduced matrix) and *information positions* (the free
columns), and gives the *parity map*: row ``r`` of the reduced matrix,
restricted to the information columns, says which information bits sum to
the parity bit at ``pivot_cols[r]``.  The rank of H is the number of pivots,
so one reduction answers both the code dimension and the encoder.

The form holds the parity map bit-packed by information column
(:attr:`SystematicForm.parity_columns`): column ``j``'s ``rank`` parity
bits, little-endian, in ``ceil(rank / 8)`` bytes.  That is the layout the
encoder's XOR tables are built from, and for the (8176, 7156) C2 code it
takes 0.9 MB where one byte per bit took 7.3 MB.

:meth:`ParityCheckMatrix.systematic_form
<repro.codes.parity_check.ParityCheckMatrix.systematic_form>` is the one
place that asks for it, and keeps the answer for the life of the matrix.
Since every Monte-Carlo *worker process* builds its own codes, the reduction
is also memoized to an on-disk cache keyed by a hash of H, which is formed
from H's sorted coordinates: with a warm cache no process densifies or
row-reduces H at all.  The cache lives under ``~/.cache/repro/encoders`` by
default; the ``REPRO_ENCODER_CACHE`` environment variable overrides the
directory, and setting it to ``0`` / ``off`` / ``none`` disables caching
entirely.  Cache reads and writes are best-effort — any I/O problem or
corrupt file silently falls back to the direct computation.

A cache file is an uncompressed ``.npz`` of ``pivot_cols``, ``info_cols``
and the packed ``parity_columns`` (about 1 MB for C2).  Files written before
the map was packed hold a one-byte-per-bit ``parity_map`` instead; they are
still read, and rewritten packed.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.gf2.dense import gf2_row_reduce
from repro.gf2.sparse import SparseBinaryMatrix

if TYPE_CHECKING:
    from repro.codes.parity_check import ParityCheckMatrix

__all__ = [
    "SystematicForm",
    "default_encoder_cache_dir",
    "derive_systematic_form",
    "parity_check_fingerprint",
]

_CACHE_ENV = "REPRO_ENCODER_CACHE"
_CACHE_DISABLED = {"", "0", "off", "none", "disabled", "false"}


@dataclass(frozen=True)
class SystematicForm:
    """Pivot columns, information columns and packed parity map of one H.

    ``parity_columns`` has one row per information column: the column's
    parity bits (one per pivot, in pivot order) packed little-endian into
    ``ceil(rank / 8)`` bytes.  The arrays are read-only: every consumer of a
    matrix shares one form.
    """

    pivot_cols: np.ndarray
    info_cols: np.ndarray
    parity_columns: np.ndarray

    def __post_init__(self) -> None:
        for array in (self.pivot_cols, self.info_cols, self.parity_columns):
            array.flags.writeable = False

    @property
    def rank(self) -> int:
        """GF(2) rank of H: its number of pivot columns."""
        return int(self.pivot_cols.size)


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
    return _fingerprint(pcm.sparse)


def _fingerprint(h: SparseBinaryMatrix) -> str:
    """The SHA-256 of H's shape as two int64 values, then of ``np.packbits(H)``.

    The packed bits, row-major, are set from H's coordinates without
    densifying H: 1 MB for C2, against 8.4 MB dense.
    """
    rows, cols = h.shape
    flat = h.row_indices * cols + h.col_indices
    packed = np.zeros(-(-rows * cols // 8), dtype=np.uint8)
    np.bitwise_or.at(packed, flat >> 3, (0x80 >> (flat & 7)).astype(np.uint8))
    digest = hashlib.sha256()
    digest.update(np.asarray(h.shape, dtype=np.int64).tobytes())
    digest.update(packed.tobytes())
    return digest.hexdigest()


def derive_systematic_form(h: SparseBinaryMatrix) -> SystematicForm:
    """The systematic form of ``h``, from the cache or one row reduction.

    The cache is the directory :func:`default_encoder_cache_dir` names; a
    reduction stores its result there for the next process.  H is densified
    only to be reduced, in place, so a reduction of C2 holds one dense copy
    of H (8.4 MB).  With the cache disabled every call reduces H and writes
    nothing.
    """
    cache_dir = default_encoder_cache_dir()
    n = h.shape[1]
    cache_path = None
    if cache_dir is not None:
        cache_path = cache_dir / f"{_fingerprint(h)}.npz"
        cached = _load_cached(cache_path, n)
        if cached is not None:
            return cached
    rref, pivots = gf2_row_reduce(h.to_dense(), overwrite=True)
    pivot_cols = np.array(pivots, dtype=np.int64)
    # A mask, not np.setdiff1d: that goes through np.unique, whose first call
    # imports numpy.ma (about 1.7 MB resident and 14 ms) into the process.
    is_info = np.ones(n, dtype=np.bool_)
    is_info[pivot_cols] = False
    info_cols = np.flatnonzero(is_info).astype(np.int64, copy=False)
    # Pack each column of the pivot rows, then keep the information columns:
    # gathering those first would hold another 7.3 MB for C2.
    packed = np.packbits(rref[: pivot_cols.size], axis=0, bitorder="little")
    del rref
    form = SystematicForm(pivot_cols, info_cols, np.ascontiguousarray(packed[:, info_cols].T))
    if cache_path is not None:
        _store_cached(cache_path, form)
    return form


def _load_cached(path: Path, n: int) -> SystematicForm | None:
    """The cached form, or ``None``.

    Reads the packed ``parity_columns`` of current files, and packs the
    ``parity_map`` of files written before, which it then rewrites packed.
    Any corruption — missing arrays, wrong shapes, unreadable file — falls
    back to recomputation; the cache can never make a form wrong, only fast.
    """
    if not path.exists():
        return None
    try:
        with np.load(path) as data:
            pivot_cols = np.asarray(data["pivot_cols"], dtype=np.int64)
            info_cols = np.asarray(data["info_cols"], dtype=np.int64)
            legacy = "parity_columns" not in data.files
            if legacy:
                parity_map = np.asarray(data["parity_map"], dtype=np.uint8)
                if parity_map.shape != (pivot_cols.size, info_cols.size):
                    return None
                parity_columns = np.packbits(parity_map.T, axis=1, bitorder="little")
                del parity_map
            else:
                parity_columns = np.asarray(data["parity_columns"], dtype=np.uint8)
    except Exception:
        return None
    if pivot_cols.size + info_cols.size != n:
        return None
    if parity_columns.shape != (info_cols.size, -(-pivot_cols.size // 8)):
        return None
    form = SystematicForm(pivot_cols, info_cols, parity_columns)
    if legacy:
        _store_cached(path, form)
    return form


def _store_cached(path: Path, form: SystematicForm) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(
                    handle,
                    parity_columns=form.parity_columns,
                    pivot_cols=form.pivot_cols,
                    info_cols=form.info_cols,
                )
            os.replace(tmp_name, path)
        except BaseException:
            os.unlink(tmp_name)
            raise
    except Exception:  # pragma: no cover - cache writes are best-effort
        return
