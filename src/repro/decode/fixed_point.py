"""Fixed-point (quantized) normalized min-sum decoder.

Models the FPGA datapath: channel LLRs and all exchanged messages are
represented in a signed fixed-point format (6 bits total by default, the
width assumed by the architecture's memory sizing), with saturation on
overflow.  Apart from the quantization hooks the algorithm is identical to
:class:`~repro.decode.min_sum.NormalizedMinSumDecoder`, so comparing the two
isolates the implementation loss of the finite word length.

Under syndrome or fixed stopping the native kernel decodes it, bit for bit
(:meth:`QuantizedMinSumDecoder._streaming_parameters`).  It quantizes each
bit-to-check message once per iteration, and each check's two corrected
magnitudes once, before they take their signs.  That is exact because the
message quantizer is symmetric, so it commutes with the sign, and its step
is a power of two, so ``x * (1 / step)`` rounds as ``x / step``.  The
channel LLRs are quantized in Python, as the loop quantizes them, before
either decodes.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.channel.quantize import FixedPointFormat, UniformQuantizer
from repro.decode.base import MessagePassingDecoder, StreamingParameters
from repro.decode.min_sum import DEFAULT_ALPHA
from repro.registry import Param, register_decoder

__all__ = ["QuantizedMinSumDecoder", "DEFAULT_MESSAGE_FORMAT"]

#: Default message format: 6 bits total, 2 fractional — the word width used
#: by the architecture model's message memories.
DEFAULT_MESSAGE_FORMAT = FixedPointFormat(total_bits=6, fractional_bits=2)


@register_decoder(
    "quantized",
    params=[
        Param("alpha", "float", default=DEFAULT_ALPHA,
              doc="normalization factor of the scaled min-sum rule"),
        Param("message_format", "format",
              doc="[total_bits, fractional_bits] of stored messages "
              "(default Q4.2, 6 bits)"),
        Param("channel_format", "format",
              doc="[total_bits, fractional_bits] of quantized channel LLRs; "
              "defaults to the message format"),
    ],
    summary="Fixed-point normalized min-sum modelling the FPGA datapath",
)
class QuantizedMinSumDecoder(MessagePassingDecoder):
    """Normalized min-sum with quantized channel values and messages.

    Parameters
    ----------
    code:
        Code-like object.
    max_iterations:
        Decoding iterations.
    alpha:
        Normalization factor of the scaled min-sum rule.
    message_format:
        :class:`~repro.channel.quantize.FixedPointFormat` of the stored
        messages (default Q4.2, 6 bits).
    channel_format:
        Format of the quantized channel LLRs; defaults to the message format.
    """

    def __init__(
        self,
        code: Any,
        max_iterations: int = 18,
        *,
        alpha: float = DEFAULT_ALPHA,
        message_format: FixedPointFormat = DEFAULT_MESSAGE_FORMAT,
        channel_format: FixedPointFormat | None = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(code, max_iterations, **kwargs)
        if alpha < 1.0:
            raise ValueError("alpha must be >= 1")
        self.alpha = float(alpha)
        self.message_format = message_format
        self.channel_format = channel_format or message_format
        self._message_quantizer = UniformQuantizer(self.message_format)
        self._channel_quantizer = UniformQuantizer(self.channel_format)

    @property
    def scale(self) -> float:
        """Multiplicative correction ``1 / alpha``."""
        return 1.0 / self.alpha

    def _condition_channel(self, channel_llrs: np.ndarray) -> np.ndarray:
        return self._channel_quantizer.quantize(channel_llrs)

    def _condition_messages(self, messages: np.ndarray) -> np.ndarray:
        return self._message_quantizer.quantize(messages)

    def _check_node_update(self, bit_to_check: np.ndarray) -> np.ndarray:
        return self.edge_structure.min_sum_extrinsic(bit_to_check, scale=self.scale)

    def _streaming_parameters(self) -> StreamingParameters:
        return StreamingParameters(scale=self.scale, message_format=self.message_format)
