"""The modulator + channel pipeline injected into the Monte-Carlo engine.

Historically the simulator hardcoded BPSK modulation and float AWGN in its
hot path; :class:`ChannelPipeline` lifts that into an injectable object so
the channel becomes a first-class campaign axis
(:class:`~repro.sim.campaign.spec.ChannelSpec`): a pipeline owns one
modulator (bits → symbols) and one channel model (symbols → decoder LLRs,
see :mod:`repro.channel.models`) and is small, immutable and picklable —
it rides inside :class:`~repro.sim.parallel.PoolEntry` payloads to worker
processes.

:func:`default_pipeline` reproduces the historical behaviour exactly
(unit-amplitude BPSK over AWGN with exact soft LLRs), which is what keeps
pre-redesign seeds byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
import numpy.typing as npt

__all__ = ["ChannelPipeline", "default_pipeline"]


@dataclass(frozen=True)
class ChannelPipeline:
    """One modulator + one channel model, applied in sequence.

    Parameters
    ----------
    modulator:
        Object with ``modulate(bits) -> symbols`` (and an ``amplitude``
        property; absent means unit amplitude).
    channel:
        Object with ``llrs(symbols, sigma, rng, *, amplitude) -> ndarray``
        (see :class:`repro.channel.models.ChannelModel`).
    """

    modulator: Any
    channel: Any

    @property
    def amplitude(self) -> float:
        """The modulator's symbol amplitude (1.0 when it does not say)."""
        return float(getattr(self.modulator, "amplitude", 1.0))

    def llrs(
        self,
        bits: npt.ArrayLike,
        sigma: float,
        rng: np.random.Generator,
        *,
        out: npt.NDArray[np.float64] | None = None,
    ) -> npt.NDArray[np.float64]:
        """Modulate one batch of frame bits and push it through the channel.

        ``sigma`` is the AWGN-equivalent noise standard deviation of the
        operating point; all randomness comes from ``rng`` in the channel
        model's documented draw order, so counts stay deterministic per
        shard.  The LLRs are written into ``out``, a C-contiguous float64
        array of the shape of ``bits``, or into a new array for ``None``.
        BPSK over AWGN or BSC exactly (no subclass of either side) forms them
        there in place with the channel's ``bpsk_llrs``
        (:meth:`~repro.channel.models.AWGNChannelModel.bpsk_llrs`,
        :meth:`~repro.channel.models.BSCChannelModel.bpsk_llrs`), the same
        bits as modulating and then calling the channel model.
        """
        from repro.channel.models import AWGNChannelModel, BSCChannelModel, check_llr_buffer
        from repro.channel.modulation import BPSKModulator

        if type(self.modulator) is BPSKModulator and type(self.channel) in (
            AWGNChannelModel,
            BSCChannelModel,
        ):
            return self.channel.bpsk_llrs(bits, sigma, rng, amplitude=self.amplitude, out=out)
        symbols = self.modulator.modulate(bits)
        llrs = np.asarray(
            self.channel.llrs(symbols, sigma, rng, amplitude=self.amplitude),
            dtype=np.float64,
        )
        if out is None:
            return llrs
        check_llr_buffer(out, llrs.shape)[...] = llrs
        return out


def default_pipeline() -> "ChannelPipeline":
    """Unit-amplitude BPSK over soft-output AWGN — the historical hot path."""
    from repro.channel.models import AWGNChannelModel
    from repro.channel.modulation import BPSKModulator

    return ChannelPipeline(BPSKModulator(), AWGNChannelModel())
