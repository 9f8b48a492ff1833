"""Systematic form of a parity-check matrix, and its on-disk cache.

Row-reducing H over GF(2) splits its columns into *parity positions* (the
pivot columns of the reduced matrix) and *information positions* (the free
columns), and gives the *parity map*: row ``r`` of the reduced matrix,
restricted to the information columns, says which information bits sum to
the parity bit at ``pivot_cols[r]``.  The rank of H is the number of pivots,
so one reduction answers both the code dimension and the encoder.

:meth:`ParityCheckMatrix.systematic_form
<repro.codes.parity_check.ParityCheckMatrix.systematic_form>` is the one
place that asks for it, and keeps the answer for the life of the matrix.
Since every Monte-Carlo *worker process* builds its own codes, the reduction
is also memoized to an on-disk cache keyed by a hash of H: with a warm cache
no process row-reduces H at all.  The cache lives under
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
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.gf2.dense import gf2_row_reduce

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
    """Pivot columns, information columns and parity map of one H.

    The arrays are read-only: every consumer of a matrix shares one form.
    """

    pivot_cols: np.ndarray
    info_cols: np.ndarray
    parity_map: np.ndarray

    def __post_init__(self) -> None:
        for array in (self.pivot_cols, self.info_cols, self.parity_map):
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
    return _dense_fingerprint(pcm.to_dense())


def _dense_fingerprint(h_dense: np.ndarray) -> str:
    digest = hashlib.sha256()
    digest.update(np.asarray(h_dense.shape, dtype=np.int64).tobytes())
    digest.update(np.packbits(h_dense, axis=None).tobytes())
    return digest.hexdigest()


def derive_systematic_form(h_dense: np.ndarray) -> SystematicForm:
    """The systematic form of ``h_dense``, from the cache or one row reduction.

    The cache is the directory :func:`default_encoder_cache_dir` names; a
    reduction stores its result there for the next process.  With the cache
    disabled every call reduces ``h_dense`` and writes nothing.
    """
    cache_dir = default_encoder_cache_dir()
    n = h_dense.shape[1]
    cache_path = None
    if cache_dir is not None:
        cache_path = cache_dir / f"{_dense_fingerprint(h_dense)}.npz"
        cached = _load_cached(cache_path, n)
        if cached is not None:
            return cached
    rref, pivots = gf2_row_reduce(h_dense)
    pivot_cols = np.array(pivots, dtype=np.int64)
    info_cols = np.setdiff1d(np.arange(n, dtype=np.int64), pivot_cols)
    parity_map = rref[: pivot_cols.size][:, info_cols].astype(np.uint8)
    form = SystematicForm(pivot_cols, info_cols, parity_map)
    if cache_path is not None:
        _store_cached(cache_path, form)
    return form


def _load_cached(path: Path, n: int) -> SystematicForm | None:
    """The cached form, or ``None``.

    Any corruption — missing arrays, wrong shapes, unreadable file — falls
    back to recomputation; the cache can never make a form wrong, only fast.
    """
    if not path.exists():
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
    return SystematicForm(pivot_cols, info_cols, parity_map)


def _store_cached(path: Path, form: SystematicForm) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(
                    handle,
                    parity_map=form.parity_map,
                    pivot_cols=form.pivot_cols,
                    info_cols=form.info_cols,
                )
            os.replace(tmp_name, path)
        except BaseException:
            os.unlink(tmp_name)
            raise
    except Exception:  # pragma: no cover - cache writes are best-effort
        return
