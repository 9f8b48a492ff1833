"""Registered channel models: symbols in, decoder LLRs out.

A *channel model* is the pluggable middle of the simulation pipeline
(:class:`~repro.channel.pipeline.ChannelPipeline`): it receives the
modulated symbols of one frame batch, applies its impairment using the
shard's RNG stream, and returns the channel LLRs the decoder consumes.
Every model is parameterized by the AWGN-equivalent noise standard
deviation ``sigma`` derived from the operating Eb/N0 and code rate
(:func:`repro.channel.awgn.ebn0_to_sigma`), so all channels share one
Eb/N0 axis and their waterfalls are directly comparable.

The interface contract matters for determinism: a model must consume the
generator ``rng`` in a fixed draw order that depends only on the batch
shape, so that the sharded engines (:mod:`repro.sim.parallel`) reproduce
identical counts for any worker count.  :class:`AWGNChannelModel` draws
exactly the noise array the pre-registry simulator drew, which keeps AWGN
campaigns byte-identical to historical seeds.

The built-ins register themselves under ``"awgn"`` and ``"bsc"``;
third-party models use the same
:func:`repro.registry.register_channel` decorator (see
``docs/components.md``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np
import numpy.typing as npt

from repro.channel.llr import channel_llrs, llr_scale_factor
from repro.registry import Param, register_channel
from repro.utils.validation import check_binary_array

__all__ = [
    "ChannelModel",
    "AWGNChannelModel",
    "BSCChannelModel",
]

#: Bytes of the BPSK symbols that :meth:`AWGNChannelModel.bpsk_llrs`
#: forms at once: a few C2 frames, which stay in L2 while they are added.
_SYMBOL_BLOCK_BYTES = 1 << 18

#: Crossover probabilities are clipped to this floor before the LLR
#: magnitude ``log((1-p)/p)`` is formed, capping it near 27.6 — far above
#: any decoder's useful dynamic range but finite, so arithmetic stays clean.
_MIN_CROSSOVER = 1e-12


class ChannelModel:
    """Interface of a channel model (duck-typed; subclassing is optional).

    Implementations must be cheap to construct, picklable (they ship to
    worker processes inside pool entries) and stateless across calls —
    all randomness comes from the ``rng`` argument.
    """

    def llrs(
        self,
        symbols: npt.ArrayLike,
        sigma: float,
        rng: np.random.Generator,
        *,
        amplitude: float = 1.0,
    ) -> npt.NDArray[np.float64]:
        """Channel LLRs for one batch of modulated ``symbols``.

        ``sigma`` is the AWGN-equivalent noise standard deviation of the
        operating point; ``amplitude`` the modulator's symbol amplitude.
        """
        raise NotImplementedError


@register_channel(
    "awgn",
    params=[],
    summary="Real AWGN, soft LLRs (the paper's Figure 4 channel)",
)
@dataclass(frozen=True)
class AWGNChannelModel(ChannelModel):
    """``y = x + n`` with ``n ~ N(0, sigma^2)`` and exact soft LLRs.

    This is the classical coded-BPSK link every result in the paper uses.
    The implementation mirrors the pre-registry simulator operation for
    operation (one ``rng.normal`` draw of the batch shape, then the linear
    LLR map), so existing seeds reproduce byte-identical curves.
    """

    def llrs(
        self,
        symbols: npt.ArrayLike,
        sigma: float,
        rng: np.random.Generator,
        *,
        amplitude: float = 1.0,
    ) -> npt.NDArray[np.float64]:
        arr = np.asarray(symbols, dtype=np.float64)
        received = arr + rng.normal(0.0, sigma, size=arr.shape)
        return channel_llrs(received, sigma, amplitude=amplitude)

    def bpsk_llrs(
        self,
        bits: npt.ArrayLike,
        sigma: float,
        rng: np.random.Generator,
        *,
        amplitude: float = 1.0,
        out: npt.NDArray[np.float64] | None = None,
    ) -> npt.NDArray[np.float64]:
        """LLRs of BPSK-modulated ``bits``, formed in place in ``out``.

        ``out`` is a C-contiguous float64 array of the shape of ``bits``;
        ``None`` allocates one.  Bit for bit
        ``self.llrs(BPSKModulator(amplitude).modulate(bits), sigma, rng,
        amplitude=amplitude)``, from the same draws, with no float64 array
        of the batch's size besides ``out``:

        * ``rng.standard_normal(out=llrs)`` draws the stream that
          ``rng.normal(0.0, sigma)`` draws, and ``llrs *= sigma`` gives its
          ``0.0 + sigma * z`` except where that is ``-0.0``, which adding a
          symbol ``±A != 0`` absorbs;
        * the symbols ``A * (1.0 - 2.0 * bits)``, as the modulator forms
          them, are added a block of rows at a time;
        * ``llrs`` is scaled by :func:`~repro.channel.llr.llr_scale_factor`.
        """
        arr = check_binary_array("bits", bits, copy=False)
        llrs = check_llr_buffer(out, arr.shape)
        factor = llr_scale_factor(sigma, amplitude=amplitude)
        rng.standard_normal(out=llrs)
        llrs *= sigma
        width = arr.shape[-1] if arr.ndim else 1
        bit_rows = arr.reshape(-1, width)
        llr_rows = llrs.reshape(-1, width)
        rows = max(1, _SYMBOL_BLOCK_BYTES // max(1, 8 * width))
        symbols = np.empty((min(rows, bit_rows.shape[0]), width))
        for start in range(0, bit_rows.shape[0], rows):
            bits_block = bit_rows[start : start + rows]
            llr_block = llr_rows[start : start + rows]
            block = symbols[: bits_block.shape[0]]
            np.multiply(bits_block, 2.0, out=block)
            np.subtract(1.0, block, out=block)
            np.multiply(amplitude, block, out=block)
            np.add(block, llr_block, out=llr_block)
        llrs *= factor
        return llrs


def check_llr_buffer(
    out: npt.NDArray[np.float64] | None, shape: tuple[int, ...]
) -> npt.NDArray[np.float64]:
    """``out`` if it is a C-contiguous float64 array of ``shape``; a new one for ``None``."""
    if out is None:
        return np.empty(shape, dtype=np.float64)
    if out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {shape}")
    return out


@register_channel(
    "bsc",
    params=[
        Param(
            "crossover",
            "float",
            doc="fixed crossover probability in (0, 0.5); omitted derives "
            "p = Q(A/sigma) from the operating Eb/N0 (hard-decision BPSK)",
        ),
    ],
    summary="Binary symmetric channel: hard decisions, two-level LLRs",
)
@dataclass(frozen=True)
class BSCChannelModel(ChannelModel):
    """Hard-decision channel — what a 1-bit front-end gives the decoder.

    Each transmitted bit is flipped with the crossover probability ``p``
    and the decoder receives only the two-level LLR ``±log((1-p)/p)``.
    By default ``p = Q(A/sigma)`` — the bit error probability of
    hard-sliced BPSK over AWGN at the operating point — which quantifies
    the ~2 dB soft-decision gain the paper's LLR datapath exists to keep.
    A fixed ``crossover`` turns the Eb/N0 axis into a label and models a
    channel that is genuinely binary-symmetric.
    """

    crossover: float | None = None

    def __post_init__(self) -> None:
        if self.crossover is not None:
            crossover = float(self.crossover)
            if not 0.0 < crossover < 0.5:
                raise ValueError("crossover must be in (0, 0.5)")
            object.__setattr__(self, "crossover", crossover)

    def crossover_probability(self, sigma: float, *, amplitude: float = 1.0) -> float:
        """The flip probability at this operating point."""
        if self.crossover is not None:
            return self.crossover
        # Q(x) = 0.5 * erfc(x / sqrt(2)); x = A / sigma for sliced BPSK.
        p = 0.5 * math.erfc(amplitude / (sigma * math.sqrt(2.0)))
        return min(max(p, _MIN_CROSSOVER), 0.5)

    def llrs(
        self,
        symbols: npt.ArrayLike,
        sigma: float,
        rng: np.random.Generator,
        *,
        amplitude: float = 1.0,
    ) -> npt.NDArray[np.float64]:
        arr = np.asarray(symbols, dtype=np.float64)
        p = self.crossover_probability(sigma, amplitude=amplitude)
        # The noiseless hard decision is the transmitted bit.
        return _bsc_llrs(arr <= 0.0, p, rng, np.empty(arr.shape, dtype=np.float64))

    def bpsk_llrs(
        self,
        bits: npt.ArrayLike,
        sigma: float,
        rng: np.random.Generator,
        *,
        amplitude: float = 1.0,
        out: npt.NDArray[np.float64] | None = None,
    ) -> npt.NDArray[np.float64]:
        """LLRs of BPSK-modulated ``bits``, formed in place in ``out``.

        ``out`` is a C-contiguous float64 array of the shape of ``bits``;
        ``None`` allocates one.  Bit for bit
        ``self.llrs(BPSKModulator(amplitude).modulate(bits), sigma, rng,
        amplitude=amplitude)``, from the same draws, with no float64 array
        of the batch's size besides ``out``: a positive amplitude sends bit
        1, and only it, to a symbol ``<= 0``, so both hand the transmitted
        bits to the same two-level map.
        """
        arr = check_binary_array("bits", bits, copy=False)
        llrs = check_llr_buffer(out, arr.shape)
        p = self.crossover_probability(sigma, amplitude=amplitude)
        return _bsc_llrs(arr, p, rng, llrs)


def _bsc_llrs(
    bits: npt.NDArray[np.bool_] | npt.NDArray[np.uint8],
    p: float,
    rng: np.random.Generator,
    out: npt.NDArray[np.float64],
) -> npt.NDArray[np.float64]:
    """Two-level LLRs of the transmitted 0/1 ``bits`` over a BSC, in ``out``.

    * ``rng.random(out=out)`` draws the stream that
      ``rng.random(size=out.shape)`` draws;
    * a bit is flipped where its draw is below ``p``, so the received hard
      decisions are ``(draw < p) != bit``;
    * ``out`` takes ``-log((1-p)/p)`` where they are set and
      ``+log((1-p)/p)`` elsewhere.
    """
    magnitude = math.log1p(-p) - math.log(p)  # log((1-p)/p), stable for tiny p
    rng.random(out=out)
    flipped = np.empty(out.shape, dtype=np.bool_)
    np.less(out, p, out=flipped)
    np.not_equal(flipped, bits, out=flipped)
    out.fill(magnitude)
    np.copyto(out, -magnitude, where=flipped)
    return out

