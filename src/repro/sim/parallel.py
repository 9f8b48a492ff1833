"""One shard driver and its three executors.

Every Eb/N0 point a sweep or campaign simulates is a run of *shards*: the
deterministic batch schedule of the point's config
(:func:`repro.sim.sharding.iter_shard_sizes`), shard ``i`` drawing from
child ``i`` of the point's :class:`numpy.random.SeedSequence`.
:meth:`ShardExecutor.run_states` is the one loop that drives points to
completion: it dispatches shards round-robin across the active points under
an in-flight cap, folds results into each point's
:class:`~repro.sim.statistics.ErrorCounter` strictly in shard order, applies
the stopping rule to that ordered prefix — speculative shards dispatched
beyond the stop are dropped or cancelled, never counted — and reports each
point as it completes.

An executor only says *where a shard runs*:

* :class:`InlineExecutor` — in this process, one shard in flight, so points
  complete one at a time in input order (the serial path of the campaign
  scheduler and of :class:`~repro.sim.sweep.EbN0Sweep`);
* :class:`SharedWorkerPool` — a ``multiprocessing`` pool whose workers
  serve shards of any number of experiments;
* :class:`~repro.fabric.pool.FabricPool` — a work-lease broker served by
  embedded and external fabric workers.

Each executor resolves a shard through the same :class:`PoolEntry` (code,
decoder factory, config, channel pipeline) and the same shard body,
:class:`ShardRunner`.  Since the shard schedule, the per-shard streams and
the counted prefix never depend on the executor, a point yields
bit-identical counts for any executor, any worker count and any co-scheduled
workload — equal to :meth:`MonteCarloSimulator.run_point
<repro.sim.montecarlo.MonteCarloSimulator.run_point>`, the independent
reference loop.

Pool workers are long-lived and build one simulator per entry the first
time a shard for that entry arrives.  On platforms whose default start
method is ``fork`` (Linux) codes and decoder factories are inherited without
pickling, so lambdas work; with ``spawn`` start methods they must be
picklable.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.obs import clock
from repro.obs.probe import StageAccumulator
from repro.sim.montecarlo import (
    BatchResult,
    MonteCarloSimulator,
    SimulationConfig,
    point_from_counter,
)
from repro.sim.results import SimulationPoint
from repro.sim.sharding import consume_shard, iter_shard_sizes
from repro.sim.statistics import ErrorCounter

__all__ = [
    "PoolEntry",
    "PointState",
    "ShardTelemetry",
    "ShardRunner",
    "ShardExecutor",
    "InlineExecutor",
    "SharedWorkerPool",
]


@dataclass(frozen=True)
class PoolEntry:
    """One simulatable configuration an executor can serve.

    ``decoder_factory`` is a zero-argument callable returning a fresh
    decoder; it runs once per worker process (per entry).  ``pipeline`` is
    the modulator + channel pair
    (:class:`~repro.channel.pipeline.ChannelPipeline`) this entry simulates
    over; ``None`` means the default BPSK/AWGN pipeline.

    ``profiled`` adds a per-stage breakdown (from a
    :class:`~repro.obs.probe.StageAccumulator` probe) to each shard's
    telemetry.  The flag travels inside the entry, so forked and spawned
    workers agree with the parent without consulting environment variables.
    Profiling never changes counts — the byte-identity telemetry test pins
    that.
    """

    code: Any
    decoder_factory: Callable[[], Any]
    config: SimulationConfig = field(default_factory=SimulationConfig)
    pipeline: Any = None
    profiled: bool = False

    def build(self) -> MonteCarloSimulator:
        """The simulator every executor runs this entry's shards on."""
        return MonteCarloSimulator(
            self.code,
            self.decoder_factory(),
            config=self.config,
            rng=0,
            pipeline=self.pipeline,
            probe=StageAccumulator() if self.profiled else None,
        )


@dataclass(frozen=True)
class ShardTelemetry:
    """Where and when one shard ran (picklable, observation-only).

    ``worker`` identifies the executing process (a pid) or fabric worker (a
    name).  ``started`` is the worker's start stamp on the host's monotonic
    clock, taken before any lazy simulator build; ``None`` when unknown (a
    fabric completion record carries only the worker's name).  ``seconds``
    runs from that stamp to the shard's end; ``stage_seconds`` is the
    per-stage split of profiled entries.
    """

    worker: int | str
    started: float | None
    seconds: float
    stage_seconds: dict[str, float] | None


#: A shard's counts plus where and when it ran.
ShardOutcome = tuple[BatchResult, ShardTelemetry]


class ShardRunner:
    """The one shard body: simulators built lazily, one per entry key.

    ``entry_for`` resolves a key to its :class:`PoolEntry`; it is called
    once per key, on the first shard of that key.
    """

    def __init__(self, entry_for: Callable[[Any], PoolEntry]) -> None:
        self._entry_for = entry_for
        self._simulators: dict[Any, MonteCarloSimulator] = {}

    def run(
        self, key: Any, ebn0_db: float, size: int, seed: np.random.SeedSequence
    ) -> ShardOutcome:
        """Simulate one shard of ``size`` frames from its child ``seed``.

        The telemetry's time includes the simulator build on a key's first
        shard; its stage split is filled in for profiled entries only.
        """
        started = clock.monotonic()
        simulator = self._simulators.get(key)
        if simulator is None:
            simulator = self._simulators[key] = self._entry_for(key).build()
        sigma = simulator.sigma_for(ebn0_db)
        rng = np.random.default_rng(seed)
        probe = simulator.probe
        stage_seconds: dict[str, float] | None = None
        if isinstance(probe, StageAccumulator):
            mark = probe.checkpoint()
            result = simulator.run_batch(size, sigma, rng=rng)
            _, _, stage_seconds = probe.since(mark)
        else:
            result = simulator.run_batch(size, sigma, rng=rng)
        seconds = clock.monotonic() - started
        return result, ShardTelemetry(os.getpid(), started, seconds, stage_seconds)


class PointState:
    """Book-keeping of one Eb/N0 point while the driver runs it.

    ``key`` selects the :class:`PoolEntry`, ``tag`` is opaque caller
    metadata handed back with the completed point.
    """

    def __init__(
        self,
        key: Any,
        ebn0_db: float,
        seed_seq: np.random.SeedSequence,
        config: SimulationConfig,
        tag: Any = None,
    ) -> None:
        self.key = key
        self.ebn0_db = float(ebn0_db)
        self.seed_seq = seed_seq
        self.config = config
        self.tag = tag
        self.sizes = iter_shard_sizes(config)
        # (executor handle, shard_index, dispatched_at) tuples, in shard order.
        self.pending: deque[tuple[Any, int, float]] = deque()
        self.shards_dispatched = 0
        self.counter = ErrorCounter()
        self.stopped = False  # stopping rule triggered; discard further shards
        self.exhausted = False  # shard schedule fully dispatched

    @property
    def done(self) -> bool:
        return self.stopped or (self.exhausted and not self.pending)

    def next_shard(self) -> tuple[int, np.random.SeedSequence] | None:
        """Next ``(size, child_seed)`` to dispatch, or ``None``."""
        if self.stopped or self.exhausted:
            return None
        try:
            size = next(self.sizes)
        except StopIteration:
            self.exhausted = True
            return None
        (child,) = self.seed_seq.spawn(1)
        return size, child

    def to_point(self) -> SimulationPoint:
        return point_from_counter(self.ebn0_db, self.counter)


#: ``on_point(state, point)``, called as each point completes.
PointObserver = Callable[[PointState, SimulationPoint], None]
#: ``on_shard(state, shard_index, result, telemetry, dispatched_at)``.
ShardObserver = Callable[[PointState, int, BatchResult, ShardTelemetry, float], None]


class ShardExecutor:
    """The shard driver; subclasses say where a shard runs.

    A subclass supplies :meth:`submit`, :meth:`result` and
    :attr:`max_inflight`, and may override the :meth:`cancel`,
    :meth:`advance` and :meth:`idle` hooks.  Executors are context managers
    whose exit calls :meth:`close`.
    """

    #: Cap on submitted-but-unfolded shards across all points.
    max_inflight: int

    def __init__(self, entries: Mapping[Any, PoolEntry]) -> None:
        if not entries:
            raise ValueError(f"a {type(self).__name__} needs at least one entry")
        self.entries = dict(entries)

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, exc_type: Any, exc_value: Any, traceback: Any) -> None:
        self.close(force=exc_type is not None)

    def close(self, *, force: bool = False) -> None:
        """Release the executor (idempotent); ``force`` when unwinding an error."""

    # -- executor hooks ------------------------------------------------- #
    def submit(
        self,
        state: PointState,
        shard_index: int,
        size: int,
        seed: np.random.SeedSequence,
    ) -> Any:
        """Start one shard; return the handle :meth:`result` polls."""
        raise NotImplementedError

    def result(self, handle: Any) -> ShardOutcome | None:
        """The shard's outcome, or ``None`` while it is still running."""
        raise NotImplementedError

    def cancel(self, handle: Any) -> None:
        """A speculative shard beyond a stop will never be folded."""

    def advance(self) -> bool:
        """Work between dispatch and fold; ``True`` when anything happened."""
        return False

    def idle(self, active: list[PointState], progressed: bool) -> None:
        """End of one loop iteration with points still active."""

    # -- the driver ----------------------------------------------------- #
    def run_states(
        self,
        states: Sequence[PointState],
        *,
        on_point: PointObserver | None = None,
        on_shard: ShardObserver | None = None,
    ) -> list[SimulationPoint]:
        """Drive every :class:`PointState` to completion; points in input order.

        Dispatch is round-robin across the active states, so every point
        keeps the executor fed and early-stopping points release capacity
        quickly.  ``on_point`` fires as each point completes (completion
        order).  ``on_shard`` observes each folded shard — with dispatch
        timestamps taken only when it is set — strictly after the result
        exists and before the stopping rule.  Both callbacks are
        write-only: dispatch order, RNG spawning and stopping decisions are
        identical with or without them.
        """
        for state in states:
            if state.key not in self.entries:
                raise KeyError(f"state references unknown pool entry {state.key!r}")
        active = list(states)
        while active:
            self._dispatch(active, timed=on_shard is not None)
            progressed = self.advance()
            for state in active:
                if self._fold(state, on_shard):
                    progressed = True
            finished = [state for state in active if state.done]
            for state in finished:
                active.remove(state)
                if on_point is not None:
                    on_point(state, state.to_point())
            if active:
                self.idle(active, progressed or bool(finished))
        return [state.to_point() for state in states]

    def _dispatch(self, active: list[PointState], *, timed: bool) -> None:
        """Submit shards round-robin across ``active`` up to the cap."""
        inflight = sum(len(state.pending) for state in active)
        submitted = True
        while inflight < self.max_inflight and submitted:
            submitted = False
            for state in active:
                if inflight >= self.max_inflight:
                    break
                shard = state.next_shard()
                if shard is None:
                    continue
                size, child = shard
                index = state.shards_dispatched
                dispatched_at = clock.monotonic() if timed else 0.0
                handle = self.submit(state, index, size, child)
                state.pending.append((handle, index, dispatched_at))
                state.shards_dispatched += 1
                inflight += 1
                submitted = True

    def _fold(self, state: PointState, on_shard: ShardObserver | None) -> bool:
        """Fold finished shards of ``state`` in shard order; ``True`` if any."""
        progressed = False
        while state.pending:
            handle, shard_index, dispatched_at = state.pending[0]
            outcome = self.result(handle)
            if outcome is None:
                break
            state.pending.popleft()
            progressed = True
            result, telemetry = outcome
            if on_shard is not None:
                on_shard(state, shard_index, result, telemetry, dispatched_at)
            if not consume_shard(state.counter, result, state.config):
                # Stopping rule hit: everything already dispatched beyond
                # this shard is speculative and must not be counted.
                state.stopped = True
                for speculative, _, _ in state.pending:
                    self.cancel(speculative)
                state.pending.clear()
        return progressed


class InlineExecutor(ShardExecutor):
    """Run each shard in this process as it is submitted.

    With one shard in flight every shard is folded right after it ran, so
    points complete one at a time in input order and nothing is ever
    speculative.  Simulators build lazily, once per entry.
    """

    max_inflight = 1

    def __init__(self, entries: Mapping[Any, PoolEntry]) -> None:
        super().__init__(entries)
        self._runner = ShardRunner(self.entries.__getitem__)

    def submit(
        self,
        state: PointState,
        shard_index: int,
        size: int,
        seed: np.random.SeedSequence,
    ) -> ShardOutcome:
        return self._runner.run(state.key, state.ebn0_db, size, seed)

    def result(self, handle: ShardOutcome) -> ShardOutcome:
        return handle


# Worker-process state: the shard body over the entry registry shipped by
# the pool initializer.
_WORKER_RUNNER: ShardRunner | None = None


def _init_worker(entries: dict[Any, PoolEntry]) -> None:
    """Pool initializer: receive the entry registry."""
    global _WORKER_RUNNER
    _WORKER_RUNNER = ShardRunner(entries.__getitem__)


def _run_shard(
    key: Any, ebn0_db: float, size: int, seed: np.random.SeedSequence
) -> ShardOutcome:
    """Pool task: one shard on this worker's simulator for ``key``."""
    if _WORKER_RUNNER is None:  # pragma: no cover - the initializer always ran
        raise RuntimeError("worker pool was not initialized")
    return _WORKER_RUNNER.run(key, ebn0_db, size, seed)


class SharedWorkerPool(ShardExecutor):
    """One worker pool serving shard tasks for any number of experiments.

    Parameters
    ----------
    entries:
        Mapping from an arbitrary hashable key to the :class:`PoolEntry`
        (code, decoder factory, config) that key simulates.  Every worker
        can serve every entry; simulators are built lazily on first use.
    workers:
        Pool size; defaults to ``os.cpu_count()``.
    mp_context:
        ``multiprocessing`` context (or start-method name); defaults to
        ``fork`` when available so non-picklable factories work.

    Processes start lazily on the first shard and are torn down by
    :meth:`close` / ``with``-exit.
    """

    #: Dispatch at most this many shards per worker ahead of aggregation.
    _INFLIGHT_PER_WORKER = 2

    def __init__(
        self,
        entries: Mapping[Any, PoolEntry],
        *,
        workers: int | None = None,
        mp_context: Any = None,
    ) -> None:
        super().__init__(entries)
        self.workers = max(1, int(workers or os.cpu_count() or 1))
        self.max_inflight = self.workers * self._INFLIGHT_PER_WORKER
        if mp_context is None or isinstance(mp_context, str):
            methods = multiprocessing.get_all_start_methods()
            method = mp_context if isinstance(mp_context, str) else (
                "fork" if "fork" in methods else None
            )
            mp_context = multiprocessing.get_context(method)
        self._ctx = mp_context
        self._pool: Any = None

    def close(self, *, force: bool = False) -> None:
        """Shut the worker pool down (idempotent).

        The default path closes the pool and *joins* it: workers drain the
        few speculative shards still queued (each is one small batch), the
        task-handler thread sees the drained queue and exits, and teardown
        is deterministic.  ``Pool.terminate`` — kept for ``force`` — kills
        workers while the handler thread may be blocked writing to the task
        queue, a known CPython race that intermittently deadlocks the join;
        paying for at most ``workers x inflight`` tiny shards is cheaper
        than a hung interpreter.
        """
        if self._pool is not None:
            if force:
                self._pool.terminate()
            else:
                self._pool.close()
            self._pool.join()
            self._pool = None

    def _ensure_pool(self) -> Any:
        if self._pool is None:
            if self._ctx.get_start_method() != "fork":
                # Spawn/forkserver pickle the initargs; fail with an
                # actionable message instead of an opaque PicklingError deep
                # inside Pool (every in-repo factory is a lambda or closure,
                # which only works under fork).
                import pickle

                try:
                    pickle.dumps(self.entries)
                except Exception as exc:
                    raise TypeError(
                        "every code/decoder_factory must be picklable with "
                        f"the '{self._ctx.get_start_method()}' start method; "
                        "use module-level factory functions (lambdas and "
                        "closures only work where 'fork' is available)"
                    ) from exc
            self._pool = self._ctx.Pool(
                processes=self.workers,
                initializer=_init_worker,
                initargs=(self.entries,),
            )
        return self._pool

    def submit(
        self,
        state: PointState,
        shard_index: int,
        size: int,
        seed: np.random.SeedSequence,
    ) -> Any:
        return self._ensure_pool().apply_async(
            _run_shard, (state.key, state.ebn0_db, size, seed)
        )

    def result(self, handle: Any) -> ShardOutcome | None:
        # get() re-raises a worker's exception in the parent.
        return handle.get() if handle.ready() else None

    def idle(self, active: list[PointState], progressed: bool) -> None:
        if progressed:
            return
        # Nothing ready yet: block briefly on the oldest outstanding shard
        # instead of spinning.
        oldest = next((state.pending[0][0] for state in active if state.pending), None)
        if oldest is not None:
            oldest.wait(0.01)
