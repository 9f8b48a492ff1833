"""Campaign scheduling: one shard stream, one executor.

The scheduler flattens every (experiment, Eb/N0) combination of a
:class:`~repro.sim.campaign.spec.CampaignSpec` into a deterministic list of
:class:`PointJob`\\ s and drives them all through one call of the shard
driver (:meth:`~repro.sim.parallel.ShardExecutor.run_states`) on one
executor: in process, a *single*
:class:`~repro.sim.parallel.SharedWorkerPool` — experiments do not pay a
pool each, and early-stopping points of one configuration release workers
to the others — or the fabric's :class:`~repro.fabric.pool.FabricPool`.
Jobs are interleaved round-robin across experiments so every curve grows
from its most informative (lowest-index) points first.

Seeds are a pure function of the spec: experiment ``i`` owns child ``i`` of
``SeedSequence(spec.seed)`` and point ``j`` of that experiment owns child
``j`` of the experiment's sequence.  Combined with the per-point shard
determinism of :mod:`repro.sim.parallel`, a campaign therefore produces
bit-identical counts for any worker count — and a *resumed* campaign (jobs
already in the :class:`~repro.sim.campaign.store.ResultStore` are skipped,
but every seed is re-derived from scratch) completes to exactly the counts
of an uninterrupted run.

This determinism is what makes the paper's measured figures reproducible
artifacts rather than one-off runs: the Figure 4 waterfalls and Section 5
ablation tables regenerate bit-for-bit from (spec, seed) alone, however
many workers the machine has and however often the run was interrupted.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.obs import clock
from repro.obs.events import EventLog
from repro.sim.campaign.spec import CampaignSpec, config_to_dict
from repro.sim.campaign.store import ResultStore
from repro.sim.montecarlo import BatchResult, SimulationConfig
from repro.sim.parallel import (
    InlineExecutor,
    PointState,
    PoolEntry,
    ShardExecutor,
    ShardObserver,
    ShardTelemetry,
    SharedWorkerPool,
)
from repro.sim.results import SimulationCurve, SimulationPoint
from repro.utils.rng import as_seed_sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fabric import FabricConfig

__all__ = ["PointJob", "CampaignScheduler"]


@dataclass(frozen=True)
class PointJob:
    """One schedulable (experiment, Eb/N0) unit of a campaign."""

    experiment_index: int
    label: str
    point_index: int
    ebn0_db: float
    seed: np.random.SeedSequence


class CampaignScheduler:
    """Run a campaign's point jobs through the shard driver on one executor.

    Parameters
    ----------
    spec:
        The campaign description.
    store:
        Result store; every completed point is persisted immediately and
        already-persisted points are skipped.
    workers:
        ``None``/``0`` runs serially in-process (bit-identical to any pooled
        run); a positive count dispatches over a
        :class:`~repro.sim.parallel.SharedWorkerPool` of that size.
    mp_context:
        Optional ``multiprocessing`` context or start-method name.
    telemetry:
        Campaign observability (:mod:`repro.obs`), off by default.  When
        on, the scheduler is the only writer of the run's event log,
        ``<store>/telemetry/events.jsonl``
        (:class:`~repro.obs.events.EventLog`), and every worker profiles
        its shards.  Telemetry is strictly write-only: counts and stored
        curves are byte-identical with it on or off.
    fabric:
        A :class:`~repro.fabric.FabricConfig` routes the shard stream
        through the campaign fabric (work-lease broker + embedded and/or
        external workers) instead of a process pool; ``None`` — the default
        — keeps the pooled or in-process executor.  ``workers`` is ignored
        under the fabric; ``fabric.local_workers`` sizes the embedded
        fleet and ``fabric.broker_dir`` lets ``repro fabric worker``
        processes join.  Determinism is unchanged: the fabric folds the
        same shard schedule in the same order, so stored curves are
        byte-identical to any pooled or serial run.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        store: ResultStore,
        *,
        workers: int | None = None,
        mp_context: Any = None,
        telemetry: bool = False,
        fabric: "FabricConfig | None" = None,
    ) -> None:
        self.spec = spec
        self.store = store
        self.workers = workers
        self.fabric = fabric
        self._mp_context = mp_context
        self._log = (
            EventLog(Path(store.directory) / "telemetry" / "events.jsonl")
            if telemetry
            else None
        )
        self._points_recorded = 0
        self._resolved_configs: dict[str, SimulationConfig] = {}

    # ------------------------------------------------------------------ #
    def plan(self) -> list[PointJob]:
        """Every point job of the campaign, in deterministic dispatch order.

        The order interleaves experiments round-robin by point index; it
        affects only scheduling (which points complete first), never counts.
        """
        root = as_seed_sequence(int(self.spec.seed))
        experiment_seeds = root.spawn(len(self.spec.experiments))
        jobs: list[PointJob] = []
        for index, experiment in enumerate(self.spec.experiments):
            grid = experiment.resolve_ebn0(self.spec.ebn0)
            seeds = experiment_seeds[index].spawn(len(grid))
            for point_index, (ebn0, seed) in enumerate(zip(grid, seeds)):
                jobs.append(
                    PointJob(index, experiment.label, point_index, float(ebn0), seed)
                )
        jobs.sort(key=lambda job: (job.point_index, job.experiment_index))
        return jobs

    def pending(self) -> list[PointJob]:
        """The planned jobs whose points are not yet in the store."""
        completed = {
            experiment.label: self.store.completed_ebn0(experiment.label)
            for experiment in self.spec.experiments
        }
        return [job for job in self.plan() if job.ebn0_db not in completed[job.label]]

    # ------------------------------------------------------------------ #
    def run(
        self,
        *,
        progress: Callable[[str, SimulationPoint], None] | None = None,
    ) -> dict[str, SimulationCurve]:
        """Execute every pending job; return the completed curves by label.

        ``progress`` is called with ``(label, point)`` as each point lands in
        the store — completion order under a pool, plan order serially.  An
        interrupted run (``KeyboardInterrupt``, ``SIGKILL``, …) leaves the
        store with every point completed so far; rerunning finishes the rest.

        With telemetry enabled the run is book-ended by ``campaign_start``
        and — only on a clean finish — ``campaign_end`` events; an
        interrupted run's log simply lacks the latter, which is how
        ``campaign trace`` recognizes it.  Already-persisted points emit
        ``resume_skip`` so a resumed run's log names exactly what it reused.
        """
        jobs = self.pending()
        log = self._log
        if log is None:
            if jobs:
                self._dispatch(jobs, progress)
            return self.store.curves()

        plan = self.plan()
        pending_keys = {(job.label, job.point_index) for job in jobs}
        self._points_recorded = 0
        started = clock.monotonic()
        try:
            log.emit(
                "campaign_start",
                campaign=self.spec.name,
                total_points=len(plan),
                pending_points=len(jobs),
                workers=int(self.workers or 0),
            )
            for job in plan:
                if (job.label, job.point_index) not in pending_keys:
                    log.emit(
                        "resume_skip",
                        experiment=job.label,
                        point_index=job.point_index,
                        ebn0_db=job.ebn0_db,
                    )
            if jobs:
                self._dispatch(jobs, progress)
            log.emit(
                "campaign_end",
                campaign=self.spec.name,
                points_recorded=self._points_recorded,
                seconds=max(clock.monotonic() - started, 0.0),
            )
        finally:
            log.close()
        return self.store.curves()

    # ------------------------------------------------------------------ #
    def _dispatch(
        self,
        jobs: list[PointJob],
        progress: Callable[[str, SimulationPoint], None] | None,
    ) -> None:
        """Run the pending jobs through the shard driver on the chosen executor.

        Every executor folds the same shard schedule in the same order, so
        stored curves are byte-identical whichever one runs; points land in
        the store as they complete.
        """
        log = self._log
        entries = self._entries({job.label for job in jobs})
        states = [
            PointState(
                job.label,
                job.ebn0_db,
                job.seed,
                entries[job.label].config,
                tag=job,
            )
            for job in jobs
        ]
        on_shard: ShardObserver | None = None
        workers: dict[int | str, int] = {}
        if log is not None:
            for job in jobs:
                log.emit(
                    "job_dispatched",
                    experiment=job.label,
                    point_index=job.point_index,
                    ebn0_db=job.ebn0_db,
                )
            on_shard = _shard_observer(log, workers)
        try:
            with self._executor(entries) as executor:
                executor.run_states(
                    states,
                    on_point=lambda state, point: self._record(
                        state.key, point, progress
                    ),
                    on_shard=on_shard,
                )
        finally:
            if log is not None:
                for worker in workers.values():
                    log.emit("worker_down", worker=worker)

    def _executor(self, entries: dict[str, PoolEntry]) -> ShardExecutor:
        """The fabric, a worker pool, or in-process shards."""
        if self.fabric is None:
            if self.workers:
                return SharedWorkerPool(
                    entries, workers=self.workers, mp_context=self._mp_context
                )
            return InlineExecutor(entries)
        from repro.fabric import FabricPool, FilesystemBroker, InProcessBroker

        fabric = self.fabric
        broker: Any
        if fabric.broker_dir:
            broker = FilesystemBroker.create(
                fabric.broker_dir,
                self._fabric_manifest(),
                policy=fabric.policy,
                fresh=fabric.fresh,
            )
        else:
            broker = InProcessBroker(fabric.policy)
        return FabricPool(
            entries,
            broker=broker,
            workers=fabric.local_workers,
            fault_plan=fabric.fault_plan,
            wall_clock=fabric.resolved_wall_clock(),
            on_event=self._log.emit if self._log is not None else None,
        )

    def _entries(self, labels: set[str]) -> dict[str, PoolEntry]:
        """One pool entry per experiment in ``labels``; each code built once."""
        by_spec: dict[Any, Any] = {}
        entries: dict[str, PoolEntry] = {}
        for experiment in self.spec.experiments:
            if experiment.label not in labels:
                continue
            if experiment.code not in by_spec:
                by_spec[experiment.code] = experiment.code.build()
            code = by_spec[experiment.code]
            entries[experiment.label] = PoolEntry(
                code,
                experiment.decoder.factory(code),
                self._resolved_config(experiment.label),
                experiment.channel.build(),
                profiled=self._log is not None,
            )
        return entries

    def _resolved_config(self, label: str) -> SimulationConfig:
        config = self._resolved_configs.get(label)
        if config is None:
            for experiment in self.spec.experiments:
                if experiment.label == label:
                    config = experiment.resolve_config(self.spec.config)
                    break
            else:  # pragma: no cover - labels come from the spec
                raise KeyError(f"no experiment {label!r}")
            self._resolved_configs[label] = config
        return config

    def _record(
        self,
        label: str,
        point: SimulationPoint,
        progress: Callable[[str, SimulationPoint], None] | None,
    ) -> None:
        log = self._log
        if self.store.record_point(label, point) and log is not None:
            # Emitted once per newly stored point, after the curve is saved,
            # so frame totals folded from the log agree serial and pooled.
            self._points_recorded += 1
            log.emit(
                "point_recorded",
                experiment=label,
                ebn0_db=point.ebn0_db,
                frames=point.frames,
                frame_errors=point.frame_errors,
                ber=point.ber,
                fer=point.fer,
            )
            max_frames = self._resolved_config(label).max_frames
            if point.frames < max_frames:
                log.emit(
                    "early_stop",
                    experiment=label,
                    ebn0_db=point.ebn0_db,
                    frames=point.frames,
                    max_frames=max_frames,
                    frames_saved=max_frames - point.frames,
                )
        if progress is not None:
            progress(label, point)

    def _fabric_manifest(self) -> dict[str, Any]:
        """Self-contained entry specs external workers rebuild from.

        Covers *every* experiment in the spec, not just the pending ones, so
        the manifest fingerprint is stable across resumes — a rerun after a
        crash reuses the broker directory even when some experiments already
        finished and dispatch no jobs.
        """
        entries: dict[str, Any] = {}
        for experiment in self.spec.experiments:
            entries[experiment.label] = {
                "code": experiment.code.as_dict(),
                "decoder": experiment.decoder.as_dict(),
                "channel": experiment.channel.as_dict(),
                "config": config_to_dict(
                    experiment.resolve_config(self.spec.config)
                ),
            }
        return {"campaign": self.spec.name, "entries": entries}


def _shard_observer(log: EventLog, workers: dict[int | str, int]) -> ShardObserver:
    """Book each folded shard as a ``shard_completed`` event.

    Workers — pool or serial processes by pid, fabric workers by name — are
    numbered by first appearance in ``workers``, and ``worker_up`` marks
    each one.  Queue wait runs from dispatch to the worker's start stamp,
    both read from the host's monotonic clock, so it excludes the
    simulator build and any wait for an earlier shard's fold.  A profiled
    shard's stage split (the hot-path stages plus ``setup``) rides along as
    the extra ``stage_seconds`` field.
    """

    def observe(
        state: PointState,
        shard_index: int,
        result: BatchResult,
        shard: ShardTelemetry,
        dispatched_at: float,
    ) -> None:
        worker = workers.get(shard.worker)
        if worker is None:
            worker = workers[shard.worker] = len(workers)
            log.emit("worker_up", worker=worker)
        queue_seconds = 0.0
        if shard.started is not None:
            queue_seconds = max(shard.started - dispatched_at, 0.0)
        extra = {"stage_seconds": shard.stage_seconds} if shard.stage_seconds else {}
        log.emit(
            "shard_completed",
            experiment=state.key,
            ebn0_db=state.ebn0_db,
            shard_index=shard_index,
            frames=result.frames,
            frame_errors=result.frame_errors,
            seconds=shard.seconds,
            queue_seconds=queue_seconds,
            worker=worker,
            **extra,
        )

    return observe
