"""The campaign-facing telemetry facade.

One :class:`Telemetry` object owns a campaign's event log and exposes
the handful of recording entry points the scheduler, worker pool and
result store call.  The log is the only record: counters, gauges and the
stage split are folded from it afterwards
(:func:`repro.obs.trace.run_summary`).  Telemetry is strictly
**write-only** with respect to simulation state: nothing it returns feeds
back into RNG streams, shard schedules or stored results, and the
telemetry-on/off byte-identity test pins that.

Enablement is environment-driven (``REPRO_TELEMETRY=1``; see
:func:`telemetry_enabled`) so that forked pool workers inherit the switch,
with explicit overrides available on the CLI (``campaign run
--telemetry/--no-telemetry``) and the
:class:`~repro.sim.campaign.scheduler.CampaignScheduler` constructor.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from repro.obs import clock
from repro.obs.events import EventLog

if TYPE_CHECKING:  # no runtime repro.sim import: obs must stay cycle-free
    from repro.sim.results import SimulationPoint

__all__ = ["ENV_VAR", "telemetry_enabled", "Telemetry"]

#: Environment variable that switches telemetry on for campaigns and
#: (inherited at fork time through :class:`PoolEntry.profiled`) workers.
ENV_VAR = "REPRO_TELEMETRY"

_TRUE_VALUES = frozenset({"1", "true", "yes", "on"})


def telemetry_enabled(value: str | None = None) -> bool:
    """Whether telemetry is switched on.

    ``value`` overrides the environment lookup (handy in tests); otherwise
    ``REPRO_TELEMETRY`` is read, with ``1/true/yes/on`` (case-insensitive)
    meaning enabled and anything else — including unset — disabled.
    """
    if value is None:
        value = os.environ.get(ENV_VAR, "")
    return str(value).strip().lower() in _TRUE_VALUES


class Telemetry:
    """The event log of one campaign directory.

    Parameters
    ----------
    directory:
        The telemetry directory (conventionally ``<campaign>/telemetry``);
        created lazily when the first event is written.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.events = EventLog(self.directory / "events.jsonl")
        self._started_at: float | None = None

    @classmethod
    def if_enabled(
        cls, directory: str | Path, enabled: bool | None = None
    ) -> "Telemetry | None":
        """A :class:`Telemetry` when switched on, else ``None``.

        ``enabled=None`` defers to :func:`telemetry_enabled` (the
        environment); an explicit ``True``/``False`` overrides it.
        """
        if enabled is None:
            enabled = telemetry_enabled()
        return cls(directory) if enabled else None

    # ------------------------------------------------------------------ #
    def emit(self, event: str, **fields: Any) -> dict[str, Any]:
        """Append one validated event to the log (see :class:`EventLog`)."""
        return self.events.emit(event, **fields)

    # ------------------------------------------------------------------ #
    def campaign_started(
        self, *, campaign: str, total_points: int, pending_points: int, workers: int
    ) -> None:
        """Emit ``campaign_start`` and open the wall-time measurement."""
        self._started_at = clock.monotonic()
        self.emit(
            "campaign_start",
            campaign=campaign,
            total_points=int(total_points),
            pending_points=int(pending_points),
            workers=int(workers),
        )

    def campaign_ended(self, *, campaign: str, points_recorded: int) -> float:
        """Emit ``campaign_end``.

        Returns the measured wall seconds of the run.  Only called on a
        clean finish — an interrupted run leaves the event log without a
        ``campaign_end`` record, which is itself the signal ``campaign
        trace`` uses to mark a run as interrupted.
        """
        started = self._started_at if self._started_at is not None else clock.monotonic()
        seconds = max(clock.monotonic() - started, 0.0)
        self.emit(
            "campaign_end",
            campaign=campaign,
            points_recorded=int(points_recorded),
            seconds=seconds,
        )
        return seconds

    # ------------------------------------------------------------------ #
    def record_shard(
        self,
        *,
        experiment: str,
        ebn0_db: float,
        shard_index: int,
        frames: int,
        frame_errors: int,
        seconds: float,
        queue_seconds: float,
        worker: int,
        stage_seconds: Mapping[str, float] | None = None,
    ) -> None:
        """One shard finished: emit ``shard_completed``.

        A profiled shard's hot-path split rides along as the extra
        ``stage_seconds`` field (seconds per :data:`repro.obs.probe.STAGES`
        entry).
        """
        extra = {"stage_seconds": dict(stage_seconds)} if stage_seconds else {}
        self.emit(
            "shard_completed",
            experiment=experiment,
            ebn0_db=float(ebn0_db),
            shard_index=int(shard_index),
            frames=int(frames),
            frame_errors=int(frame_errors),
            seconds=float(seconds),
            queue_seconds=float(queue_seconds),
            worker=int(worker),
            **extra,
        )

    def record_point(self, *, experiment: str, point: "SimulationPoint") -> None:
        """One point persisted: emit ``point_recorded``.

        Emitted once per *recorded* point, so the frame totals folded from
        these events agree between serial and pooled runs, with or without
        shard events.
        """
        self.emit(
            "point_recorded",
            experiment=experiment,
            ebn0_db=float(point.ebn0_db),
            frames=int(point.frames),
            frame_errors=int(point.frame_errors),
            ber=float(point.ber),
            fer=float(point.fer),
        )

    def record_early_stop(
        self, *, experiment: str, ebn0_db: float, frames: int, max_frames: int
    ) -> None:
        """A point stopped before its frame budget: emit ``early_stop``."""
        saved = max(int(max_frames) - int(frames), 0)
        self.emit(
            "early_stop",
            experiment=experiment,
            ebn0_db=float(ebn0_db),
            frames=int(frames),
            max_frames=int(max_frames),
            frames_saved=saved,
        )

    def record_resume_skip(
        self, *, experiment: str, point_index: int, ebn0_db: float
    ) -> None:
        """A planned point was already in the store: emit ``resume_skip``."""
        self.emit(
            "resume_skip",
            experiment=experiment,
            point_index=int(point_index),
            ebn0_db=float(ebn0_db),
        )

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Close the event log (idempotent; a later emit reopens it)."""
        self.events.close()
