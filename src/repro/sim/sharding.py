"""Deterministic shard planning shared by the reference loop and the shard driver.

A Monte-Carlo point is simulated as a sequence of *shards* — independent
batches of frames, each driven by its own child RNG stream spawned (in shard
order) from the point's :class:`numpy.random.SeedSequence`.  The shard sizes
are a pure function of the :class:`~repro.sim.montecarlo.SimulationConfig`:

* non-adaptive: constant ``batch_frames`` until ``max_frames`` is exhausted;
* adaptive: sizes grow geometrically (factor ``batch_growth``) up to
  ``max_batch_frames``, so high-SNR points where frame errors are rare spend
  most of their budget in large vectorized batches.

Because the sizes do not depend on observed errors, the schedule can be
dispatched speculatively to a worker pool; the *stopping rule* is then applied
to the shard results in shard order (:func:`consume_shard`), counting exactly
the prefix of shards ``MonteCarloSimulator.run_point`` would have executed.
This is what makes every executor of the shard driver bit-identical to that
reference loop for any worker count: same shard sizes, same per-shard
streams, same counted prefix.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.montecarlo import BatchResult, SimulationConfig
    from repro.sim.statistics import ErrorCounter

__all__ = ["iter_shard_sizes", "consume_shard"]


def iter_shard_sizes(config: "SimulationConfig") -> Iterator[int]:
    """Yield the shard (batch) sizes of one simulation point, in shard order.

    The sizes always sum to exactly ``config.max_frames``.  With
    ``adaptive_batch`` enabled each size is the previous one multiplied by
    ``batch_growth`` (rounded down, but growing by at least one frame),
    capped at ``config.effective_max_batch_frames()``.
    """
    remaining = int(config.max_frames)
    size = int(config.batch_frames)
    cap = config.effective_max_batch_frames()
    while remaining > 0:
        take = min(size, remaining)
        yield take
        remaining -= take
        if config.adaptive_batch:
            size = min(cap, max(size + 1, int(size * config.batch_growth)))


def consume_shard(
    counter: "ErrorCounter", result: "BatchResult", config: "SimulationConfig"
) -> bool:
    """Fold one shard result into ``counter``; return ``True`` to keep going.

    Must be called in shard order.  Returns ``False`` once the global
    stopping rule triggers (target frame errors reached or the frame budget
    is exhausted); shards after that point must be discarded, not counted —
    the reference loop and the shard driver rely on this prefix semantics
    for determinism.
    """
    counter.update(
        bit_errors=result.bit_errors,
        frame_errors=result.frame_errors,
        bits=result.bits,
        frames=result.frames,
        undetected_frame_errors=result.undetected_frame_errors,
        iterations=result.iterations,
        info_bit_errors=result.info_bit_errors,
        info_bits=result.info_bits,
    )
    return (
        counter.frames < config.max_frames
        and counter.frame_errors < config.target_frame_errors
    )
