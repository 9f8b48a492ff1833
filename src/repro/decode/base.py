"""Common machinery of the message-passing decoders: the decoding loop.

``MessagePassingDecoder`` implements the four-step iteration described in
Section 2.1 of the paper (bit nodes send, check nodes process, check nodes
send back, bit nodes process) over a batch of frames, with early stopping.
Its :meth:`~MessagePassingDecoder._run_message_passing` owns the decoding
loop: the iteration-0 syndrome check, the stopping rule, the compaction of
the frames still decoding and the write-back of finished ones.  A schedule
supplies just its initial working state and one iteration step.  The
defaults are the flooding schedule, so flooding decoders only provide the
check-node kernel and, optionally, message conditioning hooks (used by the
fixed-point decoder to quantize); the layered schedule
(:mod:`repro.decode.layered`) overrides both steps.

A decoder whose exact class states :class:`StreamingParameters`
(``min-sum``, ``nms``, ``offset``, ``quantized`` and ``layered``) under
:class:`~repro.decode.stopping.SyndromeStopping` or
:class:`~repro.decode.stopping.FixedIterations` decodes a whole batch in
one call of the native kernel
(:meth:`repro.decode.native.NativeKernels.decode_min_sum`), which computes
what the loop computes, bit for bit.  The loop is the reference that kernel
is probed and tested against, the fallback of a process without native
kernels, and the path of ``sum-product``, of any subclass that does not
restate the parameters and of every other stopping rule.

Every decoder here has two entry points: ``decode()`` takes one frame or
a batch, and ``decode_batch()`` strictly a ``(batch, n)`` array.
:func:`decode_frames` is the dispatch the Monte-Carlo engine uses: it calls
``decode_batch`` when the decoder provides one and otherwise falls back to
a per-frame loop, stacking the single-frame results into the same batch
shape.  The engine counts errors from the hard decisions, flags and
iteration counts alone, so it asks for no posterior (``posterior=False``),
which these decoders pass down to the native kernel.

Iteration accounting convention: ``iterations`` counts the message-passing
iterations actually *executed*.  The syndrome of the channel hard decisions
is checked before the first iteration ("iteration 0"), so a received word
that is already a codeword records **zero** iterations under syndrome
stopping — its posterior is the (conditioned) channel LLRs.
:class:`~repro.decode.stopping.FixedIterations` never stops at iteration 0,
preserving the hardware's fixed decoding period.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np
import numpy.typing as npt

from repro.channel.quantize import FixedPointFormat
from repro.codes.parity_check import ParityCheckMatrix
from repro.decode.graph import TannerGraph, take_frames, tanner_graph
from repro.decode.result import DecodeResult
from repro.decode.stopping import FixedIterations, StoppingCriterion, SyndromeStopping
from repro.encode.systematic import as_parity_check_matrix
from repro.utils.bits import hard_decision

if TYPE_CHECKING:
    from repro.decode.native import NativeKernels

__all__ = [
    "MessagePassingDecoder",
    "StreamingParameters",
    "decode_frames",
]


def native_kernels() -> NativeKernels | None:
    """The native kernels, or ``None`` while the process decodes on the loop alone.

    Imported on the first decode, not with this module, so building a
    decoder loads nothing of the native backend.
    """
    from repro.decode import native

    return native.kernels()


@dataclass(frozen=True)
class StreamingParameters:
    """The min-sum decode that the native kernel runs in place of a decoder's loop.

    Attributes
    ----------
    scale, offset:
        The correction of each check's two smallest magnitudes, as
        :meth:`~repro.decode.graph.TannerGraph.min_sum_extrinsic` applies
        it: minus ``offset``, clamped at 0, then times ``scale``.
    message_format:
        ``None`` for exact messages; otherwise every message is quantized
        after each update, bit-to-check and check-to-bit alike, by the
        symmetric :class:`~repro.channel.quantize.UniformQuantizer` of this
        format.
    layer_starts:
        ``None`` for the flooding schedule; for the layered one, the first
        non-empty check of each layer, as an index into
        :attr:`~repro.decode.graph.TannerGraph.check_starts`.  The layered
        schedule keeps its messages exact.
    """

    scale: float = 1.0
    offset: float = 0.0
    message_format: FixedPointFormat | None = None
    layer_starts: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.message_format is not None and self.layer_starts is not None:
            raise ValueError("the layered schedule keeps its messages exact")


def decode_frames(
    decoder: Any, channel_llrs: npt.ArrayLike, *, posterior: bool = True
) -> DecodeResult:
    """Decode a ``(batch, n)`` array through ``decoder``, batched if possible.

    The Monte-Carlo engine's dispatch point: decoders exposing a
    ``decode_batch`` method (every built-in decoder) receive the whole batch
    in one call; anything else — e.g. a third-party decoder registered with
    only a ``decode(llrs)`` method — falls back to a per-frame loop whose
    single-frame results are stacked into the same batch shape.  For
    frame-independent decoders the two paths produce identical counts.

    ``posterior=False``, which the engine passes, says that the caller reads
    no posterior LLRs.  A decoder whose ``decode_batch`` is
    :meth:`MessagePassingDecoder.decode_batch` then computes none and
    leaves ``posterior_llrs`` ``None``; any other decoder is called as
    without it, and its result is returned as it is.
    """
    llrs = np.asarray(channel_llrs, dtype=np.float64)
    if llrs.ndim != 2:
        raise ValueError(f"expected (batch, n) LLRs, got shape {llrs.shape}")
    batch_decode = getattr(decoder, "decode_batch", None)
    if batch_decode is None:
        return DecodeResult.stack(
            [decoder.decode(llrs[index]) for index in range(llrs.shape[0])]
        )
    takes_request = getattr(batch_decode, "__func__", None) is MessagePassingDecoder.decode_batch
    if not posterior and takes_request:
        return batch_decode(llrs, posterior=False)
    return batch_decode(llrs)


class MessagePassingDecoder:
    """Base class of the message-passing decoders (flooding schedule by default).

    Parameters
    ----------
    code:
        A code-like object (``QCLDPCCode``, ``ParityCheckMatrix``,
        ``ShortenedCode`` or a dense H matrix).
    max_iterations:
        Maximum number of decoding iterations (the paper evaluates 10, 18
        and 50).
    stopping:
        A :class:`~repro.decode.stopping.StoppingCriterion`; the default
        stops a frame as soon as its syndrome clears.  Pass
        :class:`~repro.decode.stopping.FixedIterations` to emulate the
        hardware's fixed decoding period.
    """

    def __init__(
        self,
        code: Any,
        max_iterations: int = 18,
        *,
        stopping: StoppingCriterion | None = None,
    ) -> None:
        if max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        self._pcm: ParityCheckMatrix = as_parity_check_matrix(code)
        self._graph = tanner_graph(self._pcm)
        self.max_iterations = int(max_iterations)
        self.stopping = stopping if stopping is not None else SyndromeStopping()

    # ------------------------------------------------------------------ #
    @property
    def parity_check(self) -> ParityCheckMatrix:
        """The parity-check matrix being decoded against."""
        return self._pcm

    @property
    def edge_structure(self) -> TannerGraph:
        """The matrix's shared :class:`~repro.decode.graph.TannerGraph`."""
        return self._graph

    @property
    def block_length(self) -> int:
        """Codeword length ``n``."""
        return self._pcm.block_length

    @property
    def num_edges(self) -> int:
        """Messages exchanged per direction per iteration."""
        return self._graph.num_edges

    # ------------------------------------------------------------------ #
    # Hooks for subclasses
    # ------------------------------------------------------------------ #
    def _check_node_update(self, bit_to_check: np.ndarray) -> np.ndarray:
        """Compute check-to-bit messages from bit-to-check messages.

        Every flooding decoder implements this; a schedule that overrides
        :meth:`_iterate` need not.
        """
        raise NotImplementedError

    def _streaming_parameters(self) -> StreamingParameters | None:
        """The min-sum decode this decoder's loop computes, for the native kernel, or ``None``.

        A class that defines this method promises that its loop, every hook
        included, computes min-sum with exactly these parameters, so the
        native kernel may decode it.  Only the class that defines it is
        trusted: a subclass may override any hook, so it takes the loop
        unless it restates the parameters itself.
        """
        return None

    def _streaming_arguments(self) -> tuple[StreamingParameters, int, int] | None:
        """``(parameters, max_iterations, early_stop)`` of the native kernel, or ``None``.

        A decoder streams when its exact class states its
        :meth:`_streaming_parameters` and its stopping rule is exactly
        :class:`SyndromeStopping` or
        :class:`~repro.decode.stopping.FixedIterations`; a subclass of
        either rule may stop otherwise, so it takes the loop.
        ``early_stop`` is the first iteration at which a clear syndrome
        stops a frame.
        """
        if "_streaming_parameters" not in vars(type(self)):
            return None
        parameters = self._streaming_parameters()
        stopping = self.stopping
        if parameters is None:
            return None
        if type(stopping) is SyndromeStopping:
            early_stop = min(stopping.min_iterations, self.max_iterations)
        elif type(stopping) is FixedIterations:
            early_stop = self.max_iterations
        else:
            return None
        return parameters, self.max_iterations, early_stop

    def _condition_channel(self, channel_llrs: np.ndarray) -> np.ndarray:
        """Hook: transform the channel LLRs before decoding (identity here)."""
        return channel_llrs

    def _condition_messages(self, messages: np.ndarray) -> np.ndarray:
        """Hook: transform messages after each update (identity here)."""
        return messages

    def _initial_state(self, llrs: np.ndarray) -> list[np.ndarray]:
        """Working arrays of the frames about to decode, one row per frame.

        Flooding: the bit-to-check messages, which start as the channel LLRs
        on every edge.
        """
        return [self._condition_messages(self._graph.gather_bits(llrs))]

    def _iterate(
        self, llrs: np.ndarray, state: list[np.ndarray]
    ) -> tuple[list[np.ndarray], np.ndarray]:
        """One iteration on the working arrays: the new state and posterior LLRs.

        Flooding: every check node updates, then every bit node.
        """
        (bit_to_check,) = state
        check_to_bit = self._condition_messages(self._check_node_update(bit_to_check))
        bit_to_check, posterior = self._graph.bit_node_update(llrs, check_to_bit)
        return [self._condition_messages(bit_to_check)], posterior

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #
    def decode(self, channel_llrs: npt.ArrayLike) -> DecodeResult:
        """Decode a frame or a batch of frames of channel LLRs.

        Parameters
        ----------
        channel_llrs:
            Array of shape ``(n,)`` or ``(batch, n)``; positive values mean
            bit 0 is more likely.

        Returns
        -------
        DecodeResult
            Hard decisions, posterior LLRs, convergence flags and iteration
            counts (squeezed back to 1-D when a single frame was passed).
        """
        llrs = np.asarray(channel_llrs, dtype=np.float64)
        if llrs.ndim != 1:
            return self.decode_batch(llrs)
        result = self.decode_batch(llrs[None, :])
        posterior = result.posterior_llrs
        assert posterior is not None  # decode_batch computes it unless told not to
        return DecodeResult(
            bits=result.bits[0],
            posterior_llrs=posterior[0],
            converged=result.converged[0],
            iterations=result.iterations[0],
        )

    def decode_batch(
        self, channel_llrs: npt.ArrayLike, *, posterior: bool = True
    ) -> DecodeResult:
        """Decode a strict ``(batch, n)`` array of channel LLRs.

        The batched entry point of the simulator hot path: always returns
        batch-shaped arrays, even for ``batch == 1``.  Bit-identical to
        calling :meth:`decode` on each row separately.  With
        ``posterior=False``, as :func:`decode_frames` passes it for the
        simulator, ``posterior_llrs`` is ``None`` and the native kernel
        writes no posterior; the other fields are the same.
        """
        llrs = np.asarray(channel_llrs, dtype=np.float64)
        if llrs.ndim != 2 or llrs.shape[1] != self.block_length:
            raise ValueError(
                f"expected LLRs with trailing dimension {self.block_length}, "
                f"got shape {llrs.shape}"
            )
        bits, posteriors, converged, iterations = self._run_message_passing(
            self._condition_channel(llrs), posterior=posterior
        )
        return DecodeResult(
            bits=bits,
            posterior_llrs=posteriors,
            converged=converged,
            iterations=iterations,
        )

    # ------------------------------------------------------------------ #
    # Decoding loop
    # ------------------------------------------------------------------ #

    def _run_message_passing(
        self, llrs: np.ndarray, *, posterior: bool = True
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, np.ndarray]:
        """Decode conditioned ``(batch, n)`` LLRs on a compacting working set.

        Finished frames are written to the output arrays and dropped from
        the working arrays, so an iteration costs in proportion to the
        frames still decoding.  Every kernel reduces each row on its own, so
        a frame's bits, posterior, iteration count and flag do not depend on
        the other rows of the batch: decoding it alone gives the same.

        The working arrays keep the frames innermost, the layout the
        kernels of :mod:`repro.decode.graph` work in: the channel LLRs are
        laid out once, and compaction takes the kept frames along the frame
        axis, both through :func:`~repro.decode.graph.take_frames`.

        A decoder with :meth:`_streaming_arguments` hands the whole batch to
        the native kernel instead, when the process has one; its results are
        this loop's.  This is the one place that asks for the backend.  The
        loop is the reference for that kernel, the fallback without it, and
        the path of every other decoder.

        With ``posterior=False`` the second result is ``None``: the kernel
        writes no posterior, and the loop, which forms its hard decisions
        from its posteriors, drops them on return.
        """
        arguments = self._streaming_arguments()
        kernels = native_kernels() if arguments is not None else None
        if kernels is not None and arguments is not None:
            return kernels.decode_min_sum(self._graph, llrs, *arguments, posterior)

        graph = self._graph
        total = llrs.shape[0]
        posterior_out = llrs.copy()
        converged = np.zeros(total, dtype=bool)
        iterations = np.zeros(total, dtype=np.int64)

        # Iteration 0: the syndrome of the channel hard decisions, before any
        # message passing.  Frames stopped here keep the channel LLRs as
        # their posterior.
        syndrome_ok = graph.syndrome_ok(hard_decision(llrs))
        converged[:] = syndrome_ok
        stop = np.asarray(self.stopping.should_stop(0, syndrome_ok), dtype=bool)
        frame_ids = np.flatnonzero(~stop)
        work_llrs = take_frames(llrs, frame_ids)
        state = self._initial_state(work_llrs)

        for iteration in range(1, self.max_iterations + 1):
            if frame_ids.size == 0:
                break
            state, updated = self._iterate(work_llrs, state)
            iterations[frame_ids] = iteration

            syndrome_ok = graph.syndrome_ok(hard_decision(updated))
            converged[frame_ids] = syndrome_ok
            stop = np.asarray(
                self.stopping.should_stop(iteration, syndrome_ok), dtype=bool
            )
            # Compact: write finished frames out, keep only the rest.  The
            # final iteration finishes every remaining frame, so the output
            # arrays are always fully written when the loop ends.
            finished = stop if iteration < self.max_iterations else np.ones_like(stop)
            if finished.any():
                posterior_out[frame_ids[finished]] = updated[finished]
                keep = np.flatnonzero(~finished)
                frame_ids = frame_ids[keep]
                work_llrs = take_frames(work_llrs, keep)
                state = [take_frames(array, keep) for array in state]

        return (
            hard_decision(posterior_out),
            posterior_out if posterior else None,
            converged,
            iterations,
        )
