"""The native min-sum decode and M4RI encode, built with the system compiler, loaded with ctypes.

The decoding loop of :class:`~repro.decode.base.MessagePassingDecoder`
hands a whole batch of every decoder that states streaming parameters
(``min-sum``, ``nms``, ``offset``, ``quantized`` and ``layered``) to one C
function (:meth:`NativeKernels.decode_min_sum`) whenever :func:`kernels`
returns it.  The loop, over the numpy methods of
:class:`~repro.decode.graph.TannerGraph`, is the reference: the C code
implements the orders ``graph.py`` documents, operation for operation.  The
simulator counts errors from the hard decisions, flags and iteration counts
alone, so it asks for no posterior (``posterior=False``, passed down from
:func:`~repro.decode.base.decode_frames`): the kernel then writes none, and
the batch's LLRs are its only ``(batch, n)`` float64 array.
:meth:`~repro.encode.systematic.SystematicEncoder.encode` likewise hands
each batch to :meth:`NativeKernels.encode_m4ri`, whose reference is the
numpy :func:`~repro.encode.systematic.m4ri_encode`.

Build.  On the first encode or decode of a process, never at import or when
an encoder or decoder is built, one ``cc -O3 -ffp-contract=off -fPIC
-shared`` command compiles the three sources into one library:
``native.c``, exporting ``repro_decode_min_sum``; ``native_avx2.c``, which
compiles ``native.c`` again for AVX2 as ``repro_decode_min_sum_avx2`` and
exports the CPU query ``repro_cpu_supports_avx2`` (both absent where the
compiler cannot target AVX2); and ``native_encode.c``, exporting
``repro_encode_m4ri``.  There is no ``-march`` and no fast-math, so no
operation is fused or reordered and each rounds as numpy's does, at either
vector width.  The library is cached under a name hashed from the sources
and the flags, in the package's own ``__pycache__`` when that directory
belongs to this user and no one else may write to it, else in a private
temporary directory that is removed once the library is loaded.  A
library is only ever loaded from such a directory.  The compiler writes a
temporary file that is then renamed into place, so processes that build at
once (pool and fabric workers) never load a partial file.  After a build
into ``__pycache__``, the libraries built there from older sources are
deleted.

Entry.  The loader binds the AVX2 decode entry exactly when the library's
own CPU query says this CPU runs it, and the baseline entry otherwise, so
one cached library serves every x86-64 host that shares it.  The encode has
one entry, :data:`ENCODE_ENTRY`.

Acceptance.  The bound entries are used only after a one-time probe.  On a
tiny graph (ties, signed zeros, empty and degree-1 checks, bits of degree 0
to 4), the decode must reproduce the loop bit for bit for each streamed
kind: both stopping rules, a quantizer whose channel grid is finer than its
message grid, and two layers.  Decoded again without a posterior, as the
simulator calls it, each kind must give the same hard decisions, flags and
iteration counts.  On a random parity map of 70 parity bits and 11
information bits in scattered positions, the encode must reproduce
:func:`~repro.encode.systematic.m4ri_encode`.  When the compiler is missing,
the build fails, the cache cannot be written or the probe disagrees, the
process warns once and encodes and decodes in numpy.  Nothing else (no
option, parameter or environment variable) picks the backend or the entry.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import re
import shutil
import stat
import subprocess
import tempfile
import threading
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.channel.quantize import FixedPointFormat
from repro.utils.rng import ensure_rng

if TYPE_CHECKING:
    from repro.decode.base import StreamingParameters
    from repro.decode.graph import TannerGraph

__all__ = ["NativeKernels", "kernels"]

#: The kernels' C sources, shipped beside this module and compiled together:
#: the decode, the unit that builds it again for AVX2, and the encode.
SOURCES = tuple(
    Path(__file__).with_name(name) for name in ("native.c", "native_avx2.c", "native_encode.c")
)
#: The decode entry that every library exports.
BASELINE_ENTRY = "repro_decode_min_sum"
#: The same decode built for AVX2, bound where :data:`CPU_QUERY` allows it.
WIDE_ENTRY = "repro_decode_min_sum_avx2"
#: The encode entry that every library exports.
ENCODE_ENTRY = "repro_encode_m4ri"
#: The library's own test of whether the CPU (and its OS) runs AVX2.
CPU_QUERY = "repro_cpu_supports_avx2"
#: The compiler, looked up on ``PATH``.
COMPILER = "cc"
#: Optimize, but fuse and reorder nothing: every operation rounds as numpy's.
FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
#: Seconds a build may take before it counts as failed.
BUILD_TIMEOUT_S = 120
#: Names of cached libraries, as :func:`_library_name` forms them.
LIBRARY_NAME = re.compile(r"native-[0-9a-f]{16}\.so")

_DOUBLES = np.ctypeslib.ndpointer(np.float64, ndim=2, flags=("C_CONTIGUOUS", "ALIGNED"))
_INDEX = np.ctypeslib.ndpointer(np.int64, flags=("C_CONTIGUOUS", "ALIGNED"))
_BYTES = np.ctypeslib.ndpointer(np.uint8, ndim=2, flags="C_CONTIGUOUS")
_WORDS = np.ctypeslib.ndpointer(np.uint64, ndim=2, flags=("C_CONTIGUOUS", "ALIGNED"))
_BOOLS = np.ctypeslib.ndpointer(np.bool_, ndim=1, flags="C_CONTIGUOUS")
_SIZE = ctypes.c_int64


class _DoublesOrNull:
    """A :data:`_DOUBLES` argument that may be ``None``, passed as a NULL pointer."""

    @classmethod
    def from_param(cls, value: np.ndarray | None) -> object:
        return None if value is None else _DOUBLES.from_param(value)


class _Unavailable(Exception):
    """Why this process cannot use the native kernels."""


class NativeKernels:
    """The typed entry points of a loaded library: :meth:`decode_min_sum` and :meth:`encode_m4ri`.

    ``entry`` names the library's decode function that it calls, and
    ``encode_entry`` its encode function.
    """

    def __init__(self, library: ctypes.CDLL, entry: str) -> None:
        self._library = library
        self.entry = entry
        self.encode_entry = ENCODE_ENTRY
        self._encode_m4ri = getattr(library, ENCODE_ENTRY)
        self._encode_m4ri.argtypes = [
            _BYTES, _SIZE, _SIZE, _WORDS, _SIZE, _INDEX, _INDEX, _SIZE, _SIZE, _BYTES,
        ]
        self._encode_m4ri.restype = ctypes.c_int
        self._decode_min_sum = getattr(library, entry)
        self._decode_min_sum.argtypes = [
            _DOUBLES, _SIZE, _SIZE, _INDEX, _INDEX, _SIZE, _SIZE, _INDEX, _INDEX,
            ctypes.c_double, ctypes.c_double, ctypes.c_double, ctypes.c_double, _INDEX, _SIZE,
            _SIZE, _SIZE, _DoublesOrNull, _BYTES, _INDEX, _BOOLS,
        ]
        self._decode_min_sum.restype = ctypes.c_int

    def decode_min_sum(
        self,
        graph: TannerGraph,
        channel_llrs: np.ndarray,
        parameters: StreamingParameters,
        max_iterations: int,
        early_stop: int,
        posterior: bool = True,
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, np.ndarray]:
        """Min-sum over ``(batch, n)`` conditioned LLRs as ``parameters`` describe it, in one call.

        Returns the hard decisions, posteriors, syndrome flags and iteration
        counts that the decoding loop would, one row per frame.  With
        ``posterior=False`` the kernel writes no posterior and ``None``
        stands in its place; the other three are the same bytes.  A frame
        stops once its syndrome is clear at an iteration of at least
        ``early_stop``, or after ``max_iterations``.  The graph's index
        arrays are trusted: the graph builds them; the layer starts are
        checked.
        """
        llrs = np.ascontiguousarray(channel_llrs, dtype=np.float64)
        if llrs.ndim != 2 or llrs.shape[1] != graph.num_bits:
            raise ValueError(
                f"expected a (batch, {graph.num_bits}) array, got shape {llrs.shape}"
            )
        step = limit = 0.0
        if parameters.message_format is not None:
            step = parameters.message_format.step
            limit = parameters.message_format.max_value
        layer_starts = np.array(parameters.layer_starts or (), dtype=np.int64)
        bounds = np.concatenate([[0], layer_starts, [graph.check_starts.size]])
        if (np.diff(bounds) < 0).any():
            raise ValueError(
                f"layer starts {parameters.layer_starts} are not ordered non-empty checks"
            )
        frames = llrs.shape[0]
        posteriors = np.empty_like(llrs) if posterior else None
        bits = np.empty(llrs.shape, dtype=np.uint8)
        converged = np.empty(frames, dtype=np.bool_)
        iterations = np.empty(frames, dtype=np.int64)
        status = self._decode_min_sum(
            llrs, frames, graph.num_bits, graph.edge_bit, graph.check_starts,
            graph.check_starts.size, graph.num_edges, graph.bit_slot_edges, graph.bit_degrees,
            parameters.scale, parameters.offset, step, limit, layer_starts, layer_starts.size,
            max_iterations, early_stop, posteriors, bits, iterations, converged,
        )
        if status != 0:
            raise MemoryError("cannot allocate the decoding lanes")
        return bits, posteriors, converged, iterations

    def encode_m4ri(
        self,
        info: np.ndarray,
        tables: np.ndarray,
        info_cols: np.ndarray,
        pivot_cols: np.ndarray,
        block_length: int,
    ) -> np.ndarray:
        """Codewords ``(batch, n)`` of a ``(batch, k)`` 0/1 information batch, in one call.

        ``tables`` are :func:`~repro.encode.systematic.xor_tables` of the
        systematic form, whose positions are ``info_cols`` and
        ``pivot_cols``; the codewords are
        :func:`~repro.encode.systematic.m4ri_encode`'s, bit for bit.  Like
        it, the encode reads any nonzero information byte as a 1 when it
        selects table rows, so no input reads outside ``tables``.
        """
        info = np.ascontiguousarray(info, dtype=np.uint8)
        if info.ndim != 2 or info.shape[1] != info_cols.size:
            raise ValueError(
                f"expected a (batch, {info_cols.size}) array, got shape {info.shape}"
            )
        if tables.shape[0] != -(-info_cols.size // 4) << 4 or tables.shape[1] * 64 < pivot_cols.size:
            raise ValueError(f"tables of shape {tables.shape} do not fit the positions")
        for positions in (info_cols, pivot_cols):
            if positions.size and not 0 <= positions.min() <= positions.max() < block_length:
                raise ValueError(f"positions outside a codeword of {block_length} bits")
        codewords = np.empty((info.shape[0], block_length), dtype=np.uint8)
        status = self._encode_m4ri(
            info, info.shape[0], info.shape[1], tables, tables.shape[1], info_cols, pivot_cols,
            pivot_cols.size, block_length, codewords,
        )
        if status != 0:
            raise MemoryError("cannot allocate the parity words")
        return codewords


# ---------------------------------------------------------------------- #
# Build and cache
# ---------------------------------------------------------------------- #
def _library_name() -> str:
    """Cache file name, keyed by the sources, the compiler and its flags."""
    digest = hashlib.sha256()
    for source in SOURCES:
        digest.update(hashlib.sha256(source.read_bytes()).digest())
    digest.update("\0".join((COMPILER, *FLAGS)).encode())
    return f"native-{digest.hexdigest()[:16]}.so"


def _private(directory: Path) -> bool:
    """Whether ``directory`` belongs to this user and no one else may write it."""
    getuid = getattr(os, "getuid", None)
    if getuid is None:
        return False
    status = directory.stat()
    return status.st_uid == getuid() and not status.st_mode & (stat.S_IWGRP | stat.S_IWOTH)


def _cache_directory() -> tuple[Path, bool]:
    """Where the library is cached, and whether that directory is temporary.

    The package's ``__pycache__`` when it is private to this user, else a
    new private temporary directory.
    """
    pycache = Path(__file__).with_name("__pycache__")
    try:
        pycache.mkdir(exist_ok=True)
        if _private(pycache):
            return pycache, False
    except OSError:
        pass
    return Path(tempfile.mkdtemp(prefix="repro-native-")), True


def _build(target: Path) -> None:
    """Compile :data:`SOURCES` into ``target`` through a renamed temporary file."""
    handle, partial = tempfile.mkstemp(prefix=target.stem, suffix=".tmp", dir=target.parent)
    os.close(handle)
    try:
        compiler = shutil.which(COMPILER)
        if compiler is None:
            raise _Unavailable(f"no C compiler {COMPILER!r} on PATH")
        try:
            build = subprocess.run(
                [compiler, *FLAGS, "-o", partial, *map(str, SOURCES)],
                capture_output=True, text=True, timeout=BUILD_TIMEOUT_S, check=False,
            )
        except subprocess.TimeoutExpired as error:
            raise _Unavailable(f"{COMPILER} took over {BUILD_TIMEOUT_S} s") from error
        if build.returncode != 0:
            detail = (build.stderr.strip().splitlines() or ["no message"])[0]
            raise _Unavailable(f"{COMPILER} exited with code {build.returncode}: {detail}")
        os.replace(partial, target)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)


def _remove_stale(target: Path) -> None:
    """Delete the other cached libraries beside ``target``, built from older sources.

    Errors are ignored: a process building at the same time may delete a
    file first, and a library that a process has loaded stays mapped.
    """
    with contextlib.suppress(OSError):
        for path in target.parent.iterdir():
            if path.name != target.name and LIBRARY_NAME.fullmatch(path.name):
                with contextlib.suppress(OSError):
                    path.unlink()


def _runs_avx2(library: ctypes.CDLL) -> bool:
    """Whether the library's :data:`CPU_QUERY` says this CPU runs its AVX2 entry.

    A library built where the compiler cannot target AVX2 has no query.
    """
    try:
        query = getattr(library, CPU_QUERY)
    except AttributeError:
        return False
    query.argtypes = []
    query.restype = ctypes.c_int
    return bool(query())


def _load() -> NativeKernels:
    """Build or reuse the cached library, bind the entry this CPU runs and probe it."""
    try:
        directory, temporary = _cache_directory()
        try:
            target = directory / _library_name()
            if not target.exists():
                _build(target)
                if not temporary:
                    _remove_stale(target)
            library = ctypes.CDLL(str(target))
        finally:
            if temporary:
                shutil.rmtree(directory, ignore_errors=True)
    except OSError as error:
        raise _Unavailable(f"cannot build or load the library: {error}") from error
    entry = WIDE_ENTRY if _runs_avx2(library) else BASELINE_ENTRY
    try:
        native = NativeKernels(library, entry)
    except AttributeError as error:
        raise _Unavailable(f"the library lacks a kernel: {error}") from error
    try:
        mismatch = _probe(native)
    except (ctypes.ArgumentError, MemoryError, TypeError, ValueError) as error:
        raise _Unavailable(f"the probe raised {error!r}") from error
    if mismatch:
        raise _Unavailable(f"{entry} disagrees with numpy on {mismatch}")
    return native


# ---------------------------------------------------------------------- #
# Probe
# ---------------------------------------------------------------------- #
#: Checks of degree 4, 2, 1, 0, 6 and 2 on 8 bits of degree 2, 2, 4, 3, 2,
#: 1, 1 and 0.
PROBE_CHECKS = ((0, 1, 2, 3), (1, 4), (2,), (), (0, 2, 3, 4, 5, 6), (2, 3))
#: LLR values, cycled: ties, signed zeros and both signs.
PROBE_VALUES = (0.0, -0.0, 0.25, -0.25, 1.0, -1.0, 0.75, -2.5, 0.25, 3.0, -0.0)
#: Channel LLRs of the probe, more frames than ``native.c`` has lanes.  Row 1
#: is a codeword holding ``-0.0`` on three of its ones.  Row 2 can never
#: satisfy the degree-1 check on bit 2, as every other check confirms that
#: bit.  Row 3 lies on a grid finer than the quantized decoder's messages,
#: with ties of its rounding.
PROBE_LLRS = np.concatenate(
    [
        [[0.5, -0.25, 1.0, 0.75, 0.25, -1.0, 2.0, -0.25]],
        [[-1.0, -0.25, 1.0, 0.75, -0.0, -2.5, -0.0, -0.0]],
        [[2.0, 2.0, -3.0, -3.0, 2.0, 1.0, 1.0, 1.0]],
        [[0.3125, -0.0625, 0.125, -0.125, 0.375, -1.1875, 2.5625, -0.4375]],
        np.resize(PROBE_VALUES, (8, 8)) + np.resize((0.5, 0.0, 1.5), (8, 1)),
    ]
)
#: Kinds with their parameters, stopping rules and iteration caps of the
#: probe.  The quantized decoder's channel format is finer than its message
#: format, and the layered decoder's two layers put the degree-1 check in the
#: first and the empty check in the second.
PROBE_DECODERS: tuple[tuple[str, dict[str, object], str, int, int], ...] = (
    ("min-sum", {}, "SyndromeStopping", 0, 5),
    ("nms", {}, "SyndromeStopping", 2, 6),
    ("offset", {}, "FixedIterations", 0, 4),
    (
        "quantized",
        {"message_format": FixedPointFormat(5, 2), "channel_format": FixedPointFormat(7, 4)},
        "SyndromeStopping", 0, 6,
    ),
    ("layered", {"num_layers": 2}, "SyndromeStopping", 1, 5),
)


#: The encode probe's parity bits (two words, the second one partial),
#: information bits (a partial last group) and frames.  Its map, positions
#: and frames are drawn from a fixed seed.
PROBE_PARITY_BITS = 70
PROBE_INFO_BITS = 11
PROBE_FRAMES = 6
PROBE_SEED = 20261020


def _probe_encode(native: NativeKernels) -> bool:
    """Whether the native encode gives :func:`~repro.encode.systematic.m4ri_encode`'s bits.

    The codewords need not satisfy any H: both sides map the same tables and
    positions to bits.  The frames include all zeros and all ones.
    """
    from repro.encode.systematic import m4ri_encode, xor_tables

    rng = ensure_rng(PROBE_SEED)
    n = PROBE_PARITY_BITS + PROBE_INFO_BITS
    positions = rng.permutation(n).astype(np.int64)
    info_cols, pivot_cols = positions[:PROBE_INFO_BITS], positions[PROBE_INFO_BITS:]
    parity_map = rng.integers(0, 2, size=(PROBE_INFO_BITS, PROBE_PARITY_BITS), dtype=np.uint8)
    tables = xor_tables(np.packbits(parity_map, axis=1, bitorder="little"), PROBE_PARITY_BITS)
    info = rng.integers(0, 2, size=(PROBE_FRAMES, PROBE_INFO_BITS), dtype=np.uint8)
    info[0], info[1] = 0, 1
    want = m4ri_encode(info, tables, info_cols, pivot_cols, n)
    return np.array_equal(native.encode_m4ri(info, tables, info_cols, pivot_cols, n), want)


def _probe(native: NativeKernels) -> str:
    """The first decoder whose native decode differs from the loop's bits, or ``""``.

    Each kind's decode without a posterior must give the full call's hard
    decisions, flags and iteration counts.  Then the encode:
    ``"encode_m4ri"`` when it differs from numpy's.  The reference decodes
    run the loop: :func:`kernels` returns ``None`` to the thread that is
    settling the backend.
    """
    from repro.decode.stopping import FixedIterations, SyndromeStopping
    from repro.registry import get_component

    h = np.zeros((len(PROBE_CHECKS), 8), dtype=np.uint8)
    for check, bits in enumerate(PROBE_CHECKS):
        h[check, list(bits)] = 1

    def same(got: np.ndarray | None, want: np.ndarray | None) -> bool:
        if got is None or want is None:
            return got is want
        return got.shape == want.shape and np.array_equal(
            np.ascontiguousarray(got).view(np.uint8), np.ascontiguousarray(want).view(np.uint8)
        )

    for kind, params, rule, min_iterations, max_iterations in PROBE_DECODERS:
        stopping = (
            SyndromeStopping(min_iterations) if rule == "SyndromeStopping" else FixedIterations()
        )
        decoder = get_component("decoder", kind).build(
            h, max_iterations=max_iterations, stopping=stopping, **params
        )
        arguments = decoder._streaming_arguments()
        conditioned = decoder._condition_channel(PROBE_LLRS)
        want_result = decoder.decode_batch(PROBE_LLRS)
        full = native.decode_min_sum(decoder.edge_structure, conditioned, *arguments)
        want_fields = (
            want_result.bits, want_result.posterior_llrs, want_result.converged,
            want_result.iterations,
        )
        call = f"decode_min_sum({kind}, {rule}({min_iterations or ''})"
        if not all(same(g, w) for g, w in zip(full, want_fields)):
            return f"{call})"
        lean = native.decode_min_sum(
            decoder.edge_structure, conditioned, *arguments, False  # posterior=False
        )
        if not all(same(g, w) for g, w in zip(lean, (full[0], None, full[2], full[3]))):
            return f"{call}, posterior=False)"
    return "" if _probe_encode(native) else "encode_m4ri"


# ---------------------------------------------------------------------- #
# The process's backend
# ---------------------------------------------------------------------- #
class _Backend:
    """Settles once per process, on the first call, which kernels run.

    Other threads wait for the settling thread.  The settling thread itself
    gets ``None`` when the probe's reference decodes call back in, so they
    run the loop.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._settled = False
        self._settling = False
        self._kernels: NativeKernels | None = None

    def kernels(self) -> NativeKernels | None:
        if not self._settled:
            with self._lock:
                if not self._settled and not self._settling:
                    self._settling = True
                    try:
                        self._kernels = _load()
                    except _Unavailable as reason:
                        # Attributed to the decoding loop or the encoder,
                        # through base.native_kernels or the encoder's own
                        # helper, whose first call settled the backend.
                        warnings.warn(
                            f"native min-sum kernels unavailable ({reason}); "
                            "encoding and decoding with the numpy kernels",
                            RuntimeWarning,
                            stacklevel=4,
                        )
                    finally:
                        self._settling = False
                    self._settled = True
        return self._kernels


_BACKEND = _Backend()


def kernels() -> NativeKernels | None:
    """The native kernels, or ``None`` while this process decodes on the loop alone.

    The first call builds, loads and probes the library (see the module
    docstring); every later call returns the same answer.
    """
    return _BACKEND.kernels()
