"""Common machinery of the message-passing decoders: one decoding loop.

``MessagePassingDecoder`` implements the four-step iteration described in
Section 2.1 of the paper (bit nodes send, check nodes process, check nodes
send back, bit nodes process) over a batch of frames, with early stopping.
Its :meth:`~MessagePassingDecoder._run_message_passing` is the package's
only decoding loop: it owns the iteration-0 syndrome check, the stopping
rule, the compaction of the frames still decoding and the write-back of
finished ones.  A schedule supplies just its initial working state and one
iteration step.  The defaults are the flooding schedule, so flooding
decoders only provide the check-node kernel and, optionally, message
conditioning hooks (used by the fixed-point decoder to quantize); the
layered schedule (:mod:`repro.decode.layered`) overrides both steps.

Two protocols are defined here for the simulator's hot path:

* :class:`FrameBatchDecoder` — the shared ``decode()`` / ``decode_batch()``
  plumbing over a 2-D decoding core, giving every built-in decoder a native
  batched entry point;
* :func:`decode_frames` — the dispatch the Monte-Carlo engine uses: it
  calls ``decode_batch`` when the decoder provides one and otherwise falls
  back to a per-frame loop, stacking the single-frame results into the
  same batch shape.

Iteration accounting convention: ``iterations`` counts the message-passing
iterations actually *executed*.  The syndrome of the channel hard decisions
is checked before the first iteration ("iteration 0"), so a received word
that is already a codeword records **zero** iterations under syndrome
stopping — its posterior is the (conditioned) channel LLRs.
:class:`~repro.decode.stopping.FixedIterations` never stops at iteration 0,
preserving the hardware's fixed decoding period.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import numpy.typing as npt

from repro.codes.parity_check import ParityCheckMatrix
from repro.decode.graph import TannerGraph, tanner_graph
from repro.decode.result import DecodeResult
from repro.decode.stopping import StoppingCriterion, SyndromeStopping
from repro.encode.systematic import as_parity_check_matrix
from repro.utils.bits import hard_decision

__all__ = ["FrameBatchDecoder", "MessagePassingDecoder", "decode_frames"]


class FrameBatchDecoder:
    """Shared single-frame / batched entry points over a 2-D decoding core.

    Subclasses implement ``block_length`` and ``_decode_array(llrs)`` on a
    ``(batch, n)`` float64 array and get consistent ``decode`` (1-D or 2-D
    input, squeezed output for a single frame) and ``decode_batch``
    (strictly ``(batch, n)`` in, batch result out) for free.
    ``decode_batch`` is the protocol the simulator's :func:`decode_frames`
    dispatch looks for.
    """

    @property
    def block_length(self) -> int:
        """Codeword length ``n`` (implemented by subclasses)."""
        raise NotImplementedError

    def _coerce_llrs(self, channel_llrs: npt.ArrayLike) -> np.ndarray:
        llrs = np.asarray(channel_llrs, dtype=np.float64)
        if llrs.ndim != 2 or llrs.shape[1] != self.block_length:
            raise ValueError(
                f"expected LLRs with trailing dimension {self.block_length}, "
                f"got shape {llrs.shape}"
            )
        return llrs

    def _decode_array(self, llrs: np.ndarray) -> DecodeResult:
        """Decode a validated ``(batch, n)`` array (implemented by subclasses)."""
        raise NotImplementedError

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
        single = llrs.ndim == 1
        if single:
            llrs = llrs[None, :]
        result = self._decode_array(self._coerce_llrs(llrs))
        if single:
            return DecodeResult(
                bits=result.bits[0],
                posterior_llrs=result.posterior_llrs[0],
                converged=result.converged[0],
                iterations=result.iterations[0],
            )
        return result

    def decode_batch(self, channel_llrs: npt.ArrayLike) -> DecodeResult:
        """Decode a strict ``(batch, n)`` array of channel LLRs.

        The batched entry point of the simulator hot path: always returns
        batch-shaped arrays, even for ``batch == 1``.  Bit-identical to
        calling :meth:`decode` on each row separately.
        """
        return self._decode_array(self._coerce_llrs(channel_llrs))


def decode_frames(decoder: Any, channel_llrs: npt.ArrayLike) -> DecodeResult:
    """Decode a ``(batch, n)`` array through ``decoder``, batched if possible.

    The Monte-Carlo engine's dispatch point: decoders exposing a
    ``decode_batch`` method (every built-in decoder, and anything deriving
    from :class:`FrameBatchDecoder`) receive the whole batch in one call;
    anything else — e.g. a third-party decoder registered with only a
    ``decode(llrs)`` method — falls back to a per-frame loop whose
    single-frame results are stacked into the same batch shape.  For
    frame-independent decoders the two paths produce identical counts.
    """
    llrs = np.asarray(channel_llrs, dtype=np.float64)
    if llrs.ndim != 2:
        raise ValueError(f"expected (batch, n) LLRs, got shape {llrs.shape}")
    batch_decode = getattr(decoder, "decode_batch", None)
    if batch_decode is not None:
        return batch_decode(llrs)
    return DecodeResult.stack(
        [decoder.decode(llrs[index]) for index in range(llrs.shape[0])]
    )


class MessagePassingDecoder(FrameBatchDecoder):
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
    # Decoding loop
    # ------------------------------------------------------------------ #
    def _decode_array(self, llrs: np.ndarray) -> DecodeResult:
        llrs = self._condition_channel(llrs)
        bits, posterior, converged, iterations = self._run_message_passing(llrs)
        return DecodeResult(
            bits=bits,
            posterior_llrs=posterior,
            converged=converged,
            iterations=iterations,
        )

    def _run_message_passing(
        self, llrs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Decode conditioned ``(batch, n)`` LLRs on a compacting working set.

        Finished frames are written to the output arrays and dropped from
        the working arrays, so an iteration costs in proportion to the
        frames still decoding.  Every kernel reduces each row on its own, so
        a frame's bits, posterior, iteration count and flag do not depend on
        the other rows of the batch: decoding it alone gives the same.
        """
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
        frame_ids = np.nonzero(~stop)[0]
        work_llrs = llrs[frame_ids]
        state = self._initial_state(work_llrs)

        for iteration in range(1, self.max_iterations + 1):
            if frame_ids.size == 0:
                break
            state, posterior = self._iterate(work_llrs, state)
            iterations[frame_ids] = iteration

            syndrome_ok = graph.syndrome_ok(hard_decision(posterior))
            converged[frame_ids] = syndrome_ok
            stop = np.asarray(
                self.stopping.should_stop(iteration, syndrome_ok), dtype=bool
            )
            # Compact: write finished frames out, keep only the rest.  The
            # final iteration finishes every remaining frame, so the output
            # arrays are always fully written when the loop ends.
            finished = stop if iteration < self.max_iterations else np.ones_like(stop)
            if finished.any():
                posterior_out[frame_ids[finished]] = posterior[finished]
                keep = ~finished
                frame_ids = frame_ids[keep]
                work_llrs = work_llrs[keep]
                state = [array[keep] for array in state]

        return hard_decision(posterior_out), posterior_out, converged, iterations
