"""Channel substrate: modulation, channel models, LLRs and quantization.

The Monte-Carlo BER/PER simulations (paper Figure 4) model the classical
coded BPSK link: codeword bits are mapped to antipodal symbols, corrupted by
the channel, and converted back to log-likelihood ratios that feed the
message-passing decoders.  The channel itself is pluggable: a
:class:`~repro.channel.pipeline.ChannelPipeline` pairs a registered
modulator with a registered channel model (:mod:`repro.channel.models` —
soft AWGN, hard-decision BSC, or any third-party model registered via
:func:`repro.registry.register_channel`).  The
quantizer models the fixed-point representation the hardware decoder uses
for its messages.
"""

from repro.channel.awgn import AWGNChannel, ebn0_to_sigma, ebn0_to_esn0, esn0_to_sigma
from repro.channel.llr import channel_llrs, llr_scale_factor
from repro.channel.models import (
    AWGNChannelModel,
    BSCChannelModel,
    ChannelModel,
)
from repro.channel.modulation import BPSKModulator
from repro.channel.pipeline import ChannelPipeline, default_pipeline
from repro.channel.quantize import FixedPointFormat, UniformQuantizer

__all__ = [
    "BPSKModulator",
    "AWGNChannel",
    "ChannelModel",
    "AWGNChannelModel",
    "BSCChannelModel",
    "ChannelPipeline",
    "default_pipeline",
    "ebn0_to_sigma",
    "ebn0_to_esn0",
    "esn0_to_sigma",
    "channel_llrs",
    "llr_scale_factor",
    "FixedPointFormat",
    "UniformQuantizer",
]
