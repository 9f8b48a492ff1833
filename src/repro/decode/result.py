"""Decoder output container."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DecodeResult"]


@dataclass
class DecodeResult:
    """Result of decoding a batch of frames.

    Attributes
    ----------
    bits:
        Hard-decision codeword estimates, shape ``(batch, n)`` (or ``(n,)``
        when a single frame was decoded).
    posterior_llrs:
        A-posteriori LLRs after the final iteration, same shape as ``bits``;
        ``None`` when the caller asked for none (``posterior=False``, as the
        simulator decodes).
    converged:
        Boolean per frame: ``True`` when the hard decisions satisfied every
        parity check (the decoder found *a* codeword — not necessarily the
        transmitted one).
    iterations:
        Number of iterations actually executed per frame (early stopping may
        finish some frames before ``max_iterations``).
    """

    bits: np.ndarray
    posterior_llrs: np.ndarray | None
    converged: np.ndarray
    iterations: np.ndarray

    @classmethod
    def stack(cls, results: "list[DecodeResult]") -> "DecodeResult":
        """Concatenate per-frame (or per-shard) results into one batch result.

        Single-frame results are promoted to one-frame batches first, so a
        list built by a per-frame fallback loop stacks into exactly the
        arrays a native ``decode_batch`` call would have produced.  The
        stacked posterior is ``None`` when any result has none.
        """
        if not results:
            raise ValueError("cannot stack an empty list of results")
        posteriors = [r.posterior_llrs for r in results]
        return cls(
            bits=np.concatenate([np.atleast_2d(r.bits) for r in results], axis=0),
            posterior_llrs=None
            if any(p is None for p in posteriors)
            else np.concatenate([np.atleast_2d(p) for p in posteriors], axis=0),
            converged=np.concatenate(
                [np.atleast_1d(r.converged) for r in results], axis=0
            ).astype(bool),
            iterations=np.concatenate(
                [np.atleast_1d(r.iterations) for r in results], axis=0
            ).astype(np.int64),
        )

    @property
    def batch_size(self) -> int:
        """Number of frames in the result."""
        if self.bits.ndim == 1:
            return 1
        return int(self.bits.shape[0])

    @property
    def all_converged(self) -> bool:
        """Whether every frame converged to a valid codeword."""
        return bool(np.all(self.converged))

    @property
    def average_iterations(self) -> float:
        """Mean number of iterations over the batch."""
        return float(np.mean(self.iterations))

    def squeeze(self) -> "DecodeResult":
        """Collapse a batch of one frame to unbatched arrays."""
        if self.bits.ndim == 1 or self.bits.shape[0] != 1:
            return self
        return DecodeResult(
            bits=self.bits[0],
            posterior_llrs=None if self.posterior_llrs is None else self.posterior_llrs[0],
            converged=np.asarray(self.converged).reshape(-1)[0:1].reshape(()),
            iterations=np.asarray(self.iterations).reshape(-1)[0:1].reshape(()),
        )
