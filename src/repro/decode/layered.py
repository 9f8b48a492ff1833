"""Row-layered normalized min-sum decoder.

In a *layered* (turbo-decoding message passing) schedule the check nodes are
processed in groups ("layers"); after each layer the a-posteriori LLRs are
updated immediately, so later layers in the same iteration already see the
refreshed information.  For the same number of iterations this converges
roughly twice as fast as the flooding schedule — one of the classic design
knobs of LDPC decoder architectures and an ablation point for the paper's
flooding-style base architecture.

For Quasi-Cyclic codes the natural layers are the block rows of the circulant
array (the CCSDS code has two), but any partition of the checks works.  The
schedule runs on the shared decoding loop of
:class:`~repro.decode.base.MessagePassingDecoder`; it only supplies its
working state and its iteration step.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.codes.parity_check import ParityCheckMatrix
from repro.decode.base import MessagePassingDecoder
from repro.decode.graph import TannerGraph
from repro.decode.min_sum import DEFAULT_ALPHA
from repro.decode.stopping import StoppingCriterion
from repro.gf2.sparse import SparseBinaryMatrix
from repro.registry import Param, register_decoder

__all__ = ["LayeredMinSumDecoder"]


@register_decoder(
    "layered",
    params=[
        Param("alpha", "float", default=DEFAULT_ALPHA,
              doc="normalization factor of the scaled min-sum rule"),
        Param("num_layers", "int",
              doc="contiguous check groups; omitted uses the QC block rows"),
    ],
    summary="Row-layered normalized min-sum (faster convergence schedule)",
)
class LayeredMinSumDecoder(MessagePassingDecoder):
    """Layered-schedule normalized min-sum decoder.

    Parameters
    ----------
    code:
        Code-like object.
    max_iterations:
        Number of full sweeps over all layers.
    alpha:
        Normalization factor of the scaled min-sum rule.
    num_layers:
        Number of contiguous check groups.  ``None`` uses the code's block
        rows when the code is Quasi-Cyclic, otherwise 2.
    stopping:
        Early-stopping policy (syndrome-based by default).
    """

    def __init__(
        self,
        code: Any,
        max_iterations: int = 18,
        *,
        alpha: float = DEFAULT_ALPHA,
        num_layers: int | None = None,
        stopping: StoppingCriterion | None = None,
    ) -> None:
        super().__init__(code, max_iterations, stopping=stopping)
        if alpha < 1.0:
            raise ValueError("alpha must be >= 1")
        self.alpha = float(alpha)

        graph = self._graph
        if num_layers is None:
            num_layers = getattr(getattr(code, "spec", None), "row_blocks", None) or 2
        self.num_layers = max(1, min(int(num_layers), graph.num_checks))
        # A layer is a contiguous range of checks, so its edges are a
        # contiguous range of the (check, bit)-sorted edge arrays.  Each
        # layer gets the Tanner graph of its own rows, whose edges keep that
        # order, so the shared check-node kernel runs on it unchanged.
        rows = np.linspace(0, graph.num_checks, self.num_layers + 1, dtype=np.int64)
        bounds = np.searchsorted(graph.edge_check, rows)
        self._layers: list[tuple[slice, TannerGraph]] = []
        for first, last, start, stop in zip(rows, rows[1:], bounds, bounds[1:]):
            edges = slice(int(start), int(stop))
            layer = SparseBinaryMatrix(
                (int(last - first), graph.num_bits),
                graph.edge_check[edges] - first,
                graph.edge_bit[edges],
            )
            self._layers.append((edges, TannerGraph(ParityCheckMatrix(layer))))

    # ------------------------------------------------------------------ #
    @property
    def scale(self) -> float:
        """Multiplicative correction ``1 / alpha``."""
        return 1.0 / self.alpha

    # ------------------------------------------------------------------ #
    def _initial_state(self, llrs: np.ndarray) -> list[np.ndarray]:
        """The posterior LLRs (the channel LLRs) and zero check-to-bit messages."""
        return [llrs.copy(), np.zeros((llrs.shape[0], self._graph.num_edges))]

    def _iterate(
        self, llrs: np.ndarray, state: list[np.ndarray]
    ) -> tuple[list[np.ndarray], np.ndarray]:
        """One sweep over the layers, updating the posterior after each."""
        posterior, check_to_bit = state
        for edges, layer in self._layers:
            old = check_to_bit[:, edges]
            new = layer.min_sum_extrinsic(
                layer.gather_bits(posterior) - old, scale=self.scale
            )
            # Immediate posterior update: subtract the old contribution, add
            # the new one (scatter-add because a bit may appear on several
            # edges of the same layer).
            np.add.at(posterior, (slice(None), layer.edge_bit), new - old)
            check_to_bit[:, edges] = new
        return state, posterior
