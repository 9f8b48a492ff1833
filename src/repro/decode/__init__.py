"""Message-passing LDPC decoders.

All decoders operate on channel LLRs (positive = bit 0 more likely), accept
either a single frame or a batch of frames (the batch dimension mirrors the
high-speed architecture's concurrent frames), and return a
:class:`~repro.decode.result.DecodeResult`.

* :class:`~repro.decode.sum_product.SumProductDecoder` — full belief
  propagation (tanh rule), the reference algorithm.
* :class:`~repro.decode.min_sum.MinSumDecoder` — the sign-min simplification.
* :class:`~repro.decode.min_sum.NormalizedMinSumDecoder` — min-sum with the
  paper's scaled correction factor ``1/alpha`` (equation 2).
* :class:`~repro.decode.min_sum.OffsetMinSumDecoder` — offset-corrected
  min-sum.
* :class:`~repro.decode.layered.LayeredMinSumDecoder` — row-layered schedule.
* :class:`~repro.decode.fixed_point.QuantizedMinSumDecoder` — normalized
  min-sum with fixed-point messages, modelling the FPGA datapath.
* :class:`~repro.decode.hard_decision.GallagerBDecoder` and
  :class:`~repro.decode.hard_decision.WeightedBitFlippingDecoder` —
  hard-decision baselines.

Every soft decoder above runs the one decoding loop of
:class:`~repro.decode.base.MessagePassingDecoder`, which drops frames from
its working set as they finish, and shares the cached
:class:`~repro.decode.graph.TannerGraph` of its matrix.  The kinds
``min-sum-batched``, ``nms-batched``, ``offset-batched``,
``sum-product-batched`` and ``layered-batched`` are aliases of their base
kinds, kept so that existing campaign specs and stores still load.

The simulator's hot path dispatches through
:func:`~repro.decode.base.decode_frames`: decoders exposing
``decode_batch`` get the whole ``(batch, n)`` array in one call, anything
else falls back to a per-frame loop.
"""

from repro.decode.base import FrameBatchDecoder, MessagePassingDecoder, decode_frames
from repro.decode.fixed_point import QuantizedMinSumDecoder
from repro.decode.graph import TannerGraph, tanner_graph
from repro.decode.hard_decision import GallagerBDecoder, WeightedBitFlippingDecoder
from repro.decode.layered import LayeredMinSumDecoder
from repro.decode.min_sum import (
    MinSumDecoder,
    NormalizedMinSumDecoder,
    OffsetMinSumDecoder,
)
from repro.decode.result import DecodeResult
from repro.decode.stopping import StoppingCriterion, SyndromeStopping, FixedIterations
from repro.decode.sum_product import SumProductDecoder
from repro.registry import REGISTRY, register_decoder

__all__ = [
    "TannerGraph",
    "tanner_graph",
    "DecodeResult",
    "FrameBatchDecoder",
    "MessagePassingDecoder",
    "decode_frames",
    "SumProductDecoder",
    "MinSumDecoder",
    "NormalizedMinSumDecoder",
    "OffsetMinSumDecoder",
    "LayeredMinSumDecoder",
    "QuantizedMinSumDecoder",
    "GallagerBDecoder",
    "WeightedBitFlippingDecoder",
    "StoppingCriterion",
    "SyndromeStopping",
    "FixedIterations",
]

# Specs, stored campaigns and their resume fingerprints name the
# ``<kind>-batched`` kinds, so each stays registered as an alias that builds
# ``<kind>`` with its parameter schema.
for _kind in ("min-sum", "nms", "offset", "sum-product", "layered"):
    _base = REGISTRY.get("decoder", _kind)
    register_decoder(
        f"{_kind}-batched", params=_base.params, summary=f"Alias of {_kind!r}"
    )(_base.builder)
del _kind, _base
