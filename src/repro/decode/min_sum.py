"""Min-sum decoders (plain, normalized, offset).

The paper's decoder uses the "sign min" simplification of belief propagation
with a *fine scaled correction factor* (Section 5, citing Chen & Fossorier):
the check-node output magnitude is the minimum of the other incoming
magnitudes divided by a normalization factor ``alpha > 1`` (equation 2),
which compensates the systematic over-estimation of the min-sum
approximation.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.decode.base import MessagePassingDecoder, StreamingParameters
from repro.registry import Param, register_decoder

__all__ = ["MinSumDecoder", "NormalizedMinSumDecoder", "OffsetMinSumDecoder"]

#: Correction factor used by default for the CCSDS C2 degree profile; the
#: value sits on the frame-error-rate optimum plateau measured by the alpha
#: ablation benchmark (``benchmarks/bench_ablation_alpha.py``) and is
#: consistent with the mean-matching analysis in
#: :mod:`repro.analysis.correction_factor` (scale 1/alpha = 0.8).
DEFAULT_ALPHA = 1.25


class _FloodingMinSumDecoder(MessagePassingDecoder):
    """The check node of the three kinds: ``min_sum_extrinsic`` with their correction.

    Each kind states its ``scale`` and ``offset`` once, in its own
    :meth:`_streaming_parameters`, which the decoding loop also reads to
    hand the batch to the native kernel.
    """

    def _streaming_parameters(self) -> StreamingParameters:
        raise NotImplementedError

    def _check_node_update(self, bit_to_check: np.ndarray) -> np.ndarray:
        parameters = self._streaming_parameters()
        return self.edge_structure.min_sum_extrinsic(
            bit_to_check, scale=parameters.scale, offset=parameters.offset
        )


@register_decoder(
    "min-sum",
    params=[],
    summary="Plain min-sum (uncorrected sign-min baseline)",
)
class MinSumDecoder(_FloodingMinSumDecoder):
    """Plain min-sum decoding (no correction).

    This is the baseline the paper compares against: the CCSDS reference
    results use a plain decoder with more iterations (50), which the scaled
    decoder matches with 18.
    """

    def __init__(self, code: Any, max_iterations: int = 18, **kwargs: Any) -> None:
        super().__init__(code, max_iterations, **kwargs)

    def _streaming_parameters(self) -> StreamingParameters:
        return StreamingParameters()


@register_decoder(
    "nms",
    params=[
        Param("alpha", "float", default=DEFAULT_ALPHA,
              doc="normalization factor alpha > 1 of equation (2)"),
    ],
    summary="Normalized (scaled) min-sum — the paper's decoder",
)
class NormalizedMinSumDecoder(_FloodingMinSumDecoder):
    """Normalized (scaled) min-sum — the algorithm of the paper's decoder.

    Parameters
    ----------
    code:
        Code-like object.
    max_iterations:
        Decoding iterations (18 is the paper's recommended trade-off).
    alpha:
        Normalization factor ``alpha > 1`` from equation (2); the outgoing
        magnitude is ``min(...) / alpha``.
    """

    def __init__(
        self,
        code: Any,
        max_iterations: int = 18,
        *,
        alpha: float = DEFAULT_ALPHA,
        **kwargs: Any,
    ) -> None:
        super().__init__(code, max_iterations, **kwargs)
        if alpha < 1.0:
            raise ValueError("alpha must be >= 1 (the paper requires alpha > 1)")
        self.alpha = float(alpha)

    @property
    def scale(self) -> float:
        """The multiplicative correction ``1 / alpha`` applied to magnitudes."""
        return 1.0 / self.alpha

    def _streaming_parameters(self) -> StreamingParameters:
        return StreamingParameters(scale=self.scale)


@register_decoder(
    "offset",
    params=[
        Param("beta", "float", default=0.15,
              doc="constant offset subtracted from the min magnitude"),
    ],
    summary="Offset min-sum (the other Chen & Fossorier correction)",
)
class OffsetMinSumDecoder(_FloodingMinSumDecoder):
    """Offset min-sum: subtract a constant ``beta`` from the min magnitude.

    Included as the other standard correction from Chen & Fossorier; the
    hardware in the paper uses the normalized variant, but the offset variant
    is a common ablation point.
    """

    def __init__(
        self,
        code: Any,
        max_iterations: int = 18,
        *,
        beta: float = 0.15,
        **kwargs: Any,
    ) -> None:
        super().__init__(code, max_iterations, **kwargs)
        if beta < 0.0:
            raise ValueError("beta must be non-negative")
        self.beta = float(beta)

    def _streaming_parameters(self) -> StreamingParameters:
        return StreamingParameters(offset=self.beta)
