"""Stage-profiling probes for the simulator hot path.

:class:`~repro.sim.montecarlo.MonteCarloSimulator.run_batch` is the inner
loop of everything — every frame of every campaign passes through its four
stages (:data:`STAGES`: encode, modulate+channel, decode, count).  The
simulator exposes one optional ``probe`` attribute satisfying the
:class:`Probe` protocol; when it is ``None`` (the default) the only cost
telemetry adds to the hot path is a single attribute check per batch.
When set, the simulator times each stage and reports the split through
:meth:`Probe.record_batch`.

:class:`StageAccumulator` is the standard implementation: a plain adder
that also keeps the split of the latest batch, which is the stage split a
shard reports (one shard is one batch).  Third party decoders (or any
caller embedding the simulator) can pass their own ``Probe`` to integrate
with external metrics systems — the protocol is one method and receives
only plain floats.
"""

from __future__ import annotations

from typing import Mapping, Protocol

__all__ = ["STAGES", "Probe", "StageAccumulator"]

#: Hot-path stages, in execution order: codeword generation (encode),
#: modulation + channel + LLR computation, decoding, error counting.
STAGES: tuple[str, ...] = ("encode", "channel", "decode", "count")


class Probe(Protocol):
    """What the simulator hot path calls when profiling is enabled."""

    def record_batch(
        self, frames: int, stage_seconds: Mapping[str, float]
    ) -> None:
        """One batch finished: ``frames`` simulated, seconds per stage."""


class StageAccumulator:
    """Accumulating :class:`Probe`: totals per stage plus batch/frame counts.

    ``last_stage_seconds`` is the split of the latest batch alone (empty
    before the first one).
    """

    __slots__ = ("batches", "frames", "stage_seconds", "last_stage_seconds")

    def __init__(self) -> None:
        self.batches = 0
        self.frames = 0
        self.stage_seconds: dict[str, float] = {stage: 0.0 for stage in STAGES}
        self.last_stage_seconds: dict[str, float] = {}

    def record_batch(
        self, frames: int, stage_seconds: Mapping[str, float]
    ) -> None:
        self.batches += 1
        self.frames += int(frames)
        self.last_stage_seconds = {
            stage: float(seconds) for stage, seconds in stage_seconds.items()
        }
        for stage, seconds in self.last_stage_seconds.items():
            self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds
