"""Post-hoc analysis of a recorded telemetry event log.

A telemetry-enabled run leaves one artifact, the event log
``telemetry/events.jsonl``; every summary of the run is a fold of it.
``campaign trace <dir>`` renders a human-readable execution summary,
:func:`run_summary` derives the counters and gauges behind the report's
"Execution telemetry" section and the trace's stage breakdown, and
:func:`live_rates` serves ``campaign status --watch``.  Everything here
reads recorded events only; no live clocks are consulted, so the same
log always renders the same trace.

A log may span several runs (an interrupted campaign that was resumed
appends to the same file); runs are delimited by ``campaign_start``
records.  Most trace sections describe the *last* run, whose ``t_mono``
values share one process epoch; :func:`run_summary` describes the last
run that finished cleanly.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.obs.events import read_events, validate_event_log
from repro.utils.formatting import format_table

__all__ = ["split_runs", "live_rates", "run_summary", "trace_summary"]

_Record = Mapping[str, Any]

#: Character cells of the utilization timeline bar.
_TIMELINE_BINS = 20
_BAR_WIDTH = 10


def split_runs(records: Sequence[_Record]) -> list[list[_Record]]:
    """Split an event stream into runs at ``campaign_start`` boundaries.

    Records before the first ``campaign_start`` (there should be none, but
    a truncated log may lose its head) stay attached to the first run.
    """
    runs: list[list[_Record]] = []
    current: list[_Record] = []
    for record in records:
        if record.get("event") == "campaign_start" and current:
            runs.append(current)
            current = []
        current.append(record)
    if current:
        runs.append(current)
    return runs


def _of_type(records: Sequence[_Record], event: str) -> list[_Record]:
    return [r for r in records if r.get("event") == event]


def _span_seconds(records: Sequence[_Record]) -> float:
    if len(records) < 2:
        return 0.0
    return max(float(records[-1]["t_mono"]) - float(records[0]["t_mono"]), 0.0)


def live_rates(records: Sequence[_Record]) -> dict[str, Any]:
    """Progress rates of the latest run, from recorded timestamps only.

    Returns ``frames``, ``points``, ``elapsed_seconds``,
    ``frames_per_second``, ``points_per_second`` and ``completed`` (whether
    the run has its ``campaign_end``).  Rates are ``None`` until the run
    spans a measurable interval.
    """
    runs = split_runs(records)
    run = runs[-1] if runs else []
    points = _of_type(run, "point_recorded")
    frames = sum(int(r["frames"]) for r in points)
    elapsed = _span_seconds(run)
    frames_per_second = frames / elapsed if elapsed > 0 else None
    points_per_second = len(points) / elapsed if elapsed > 0 else None
    return {
        "frames": frames,
        "points": len(points),
        "elapsed_seconds": elapsed,
        "frames_per_second": frames_per_second,
        "points_per_second": points_per_second,
        "completed": bool(_of_type(run, "campaign_end")),
    }


def run_summary(records: Sequence[_Record]) -> dict[str, dict[str, float]] | None:
    """Counters and gauges of the last run that ended with ``campaign_end``.

    Returns ``{"counters": {...}, "gauges": {...}}``, each keyed by dotted
    metric name in sorted order, or ``None`` when no run finished cleanly.
    A counter exists only once its event has occurred, and sums in event
    order.  Counters:

    * ``shards_total``, ``shard_compute_seconds_total``,
      ``shard_queue_seconds_total`` and ``stage_seconds.<stage>`` (the
      hot-path split of profiled shards) from ``shard_completed``;
    * ``points_recorded_total`` and ``frames_total`` from
      ``point_recorded``;
    * ``points_early_stopped_total`` and
      ``frames_saved_by_early_stop_total`` from ``early_stop``;
    * ``points_resume_skipped_total`` from ``resume_skip``.

    Gauges: ``run_seconds`` and ``run_ended_wall`` from ``campaign_end``,
    ``workers`` and ``run_started_wall`` from ``campaign_start``, and,
    when the run took measurable time, ``frames_per_second`` and (pooled
    runs) ``pool_utilization``.
    """
    completed = [run for run in split_runs(records) if _of_type(run, "campaign_end")]
    if not completed:
        return None
    run = completed[-1]
    counters: dict[str, float] = {}

    def add(name: str, value: float) -> None:
        counters[name] = counters.get(name, 0.0) + float(value)

    for record in run:
        event = record.get("event")
        if event == "shard_completed":
            add("shards_total", 1)
            add("shard_compute_seconds_total", record["seconds"])
            add("shard_queue_seconds_total", record["queue_seconds"])
            for stage, seconds in (record.get("stage_seconds") or {}).items():
                add(f"stage_seconds.{stage}", seconds)
        elif event == "point_recorded":
            add("points_recorded_total", 1)
            add("frames_total", record["frames"])
        elif event == "early_stop":
            add("points_early_stopped_total", 1)
            add("frames_saved_by_early_stop_total", record["frames_saved"])
        elif event == "resume_skip":
            add("points_resume_skipped_total", 1)

    end = _of_type(run, "campaign_end")[-1]
    seconds = float(end["seconds"])
    gauges = {"run_seconds": seconds, "run_ended_wall": float(end["t_wall"])}
    workers = 0.0
    starts = _of_type(run, "campaign_start")
    if starts:
        workers = float(starts[0]["workers"])
        gauges["workers"] = workers
        gauges["run_started_wall"] = float(starts[0]["t_wall"])
    if seconds > 0:
        if "frames_total" in counters:
            gauges["frames_per_second"] = counters["frames_total"] / seconds
        if workers > 0:
            compute = counters.get("shard_compute_seconds_total", 0.0)
            gauges["pool_utilization"] = min(compute / (workers * seconds), 1.0)
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
    }


# --------------------------------------------------------------------------- #
# Trace sections
# --------------------------------------------------------------------------- #
def _overview_lines(
    records: Sequence[_Record], run: Sequence[_Record], valid_events: int
) -> list[str]:
    starts = _of_type(run, "campaign_start")
    ends = _of_type(run, "campaign_end")
    start = starts[0] if starts else None
    campaign = str(start["campaign"]) if start else "?"
    workers = int(start["workers"]) if start else 0
    lines = [
        f"Execution trace: campaign '{campaign}'",
        f"{valid_events} schema-valid events, "
        f"{len(split_runs(records))} run(s); last run: "
        + (
            f"completed in {float(ends[-1]['seconds']):.2f} s"
            if ends
            else "interrupted (no campaign_end)"
        ),
    ]
    if start is not None:
        lines.append(
            f"last run planned {int(start['total_points'])} point(s), "
            f"{int(start['pending_points'])} pending, "
            + (f"{workers} worker(s)" if workers else "serial")
        )
    return lines


def _stage_breakdown(summary: Mapping[str, Any] | None) -> str | None:
    if summary is None:
        return None
    counters = summary["counters"]
    stages = {
        name[len("stage_seconds."):]: float(value)
        for name, value in sorted(counters.items())
        if name.startswith("stage_seconds.")
    }
    total = sum(stages.values())
    if total <= 0:
        return None
    rows = [
        [stage, f"{seconds:.3f}", f"{100.0 * seconds / total:5.1f}%"]
        for stage, seconds in sorted(
            stages.items(), key=lambda item: (-item[1], item[0])
        )
    ]
    rows.append(["total", f"{total:.3f}", "100.0%"])
    return format_table(
        ["Stage", "Seconds", "Share"], rows, title="Hot-path stage breakdown"
    )


def _slowest_shards(run: Sequence[_Record], top: int) -> str | None:
    shards = _of_type(run, "shard_completed")
    if not shards:
        return None
    ranked = sorted(
        shards,
        key=lambda r: (-float(r["seconds"]), int(r["seq"])),
    )[:top]
    rows = [
        [
            str(r["experiment"]),
            f"{float(r['ebn0_db']):+.2f}",
            str(int(r["shard_index"])),
            str(int(r["frames"])),
            f"{float(r['seconds']):.3f}",
            f"{float(r['queue_seconds']):.3f}",
            str(int(r["worker"])),
        ]
        for r in ranked
    ]
    return format_table(
        ["Experiment", "Eb/N0 (dB)", "Shard", "Frames", "Compute (s)",
         "Queue wait (s)", "Worker"],
        rows,
        title=f"Slowest shards (top {len(rows)} of {len(shards)})",
    )


def _utilization_timeline(run: Sequence[_Record]) -> str | None:
    """ASCII busy-fraction timeline of the last run's worker pool.

    Each bin shows the fraction of worker capacity spent computing shards
    (from recorded ``shard_completed`` intervals: completion ``t_mono``
    minus compute ``seconds``).
    """
    shards = _of_type(run, "shard_completed")
    starts = _of_type(run, "campaign_start")
    if not shards or not starts:
        return None
    workers = max(int(starts[0]["workers"]), 1)
    t0 = float(run[0]["t_mono"])
    t1 = float(run[-1]["t_mono"])
    span = t1 - t0
    if span <= 0:
        return None
    width = span / _TIMELINE_BINS
    busy = [0.0] * _TIMELINE_BINS
    for shard in shards:
        end = float(shard["t_mono"])
        begin = end - float(shard["seconds"])
        for index in range(_TIMELINE_BINS):
            lo = t0 + index * width
            hi = lo + width
            overlap = min(end, hi) - max(begin, lo)
            if overlap > 0:
                busy[index] += overlap
    rows = []
    for index, seconds in enumerate(busy):
        fraction = min(seconds / (width * workers), 1.0)
        bar = "#" * round(fraction * _BAR_WIDTH)
        rows.append(
            [
                f"{index * width:7.2f}-{(index + 1) * width:7.2f}",
                f"{100.0 * fraction:5.1f}%",
                bar,
            ]
        )
    return format_table(
        ["Run window (s)", "Busy", ""],
        rows,
        title=f"Pool utilization timeline ({workers} worker(s), "
              f"{_TIMELINE_BINS} bins)",
    )


def _fabric_section(run: Sequence[_Record]) -> str | None:
    """Lease/retry/straggler summary of a fabric (broker-leased) run.

    Renders only when the run contains fabric events.  Everything is
    derived from recorded counts and sorted by worker name, so the same
    log always renders the same table — the chaos-telemetry test pins it.
    """
    grants = _of_type(run, "lease_granted")
    joins = _of_type(run, "worker_join")
    if not grants and not joins:
        return None
    expired = _of_type(run, "lease_expired")
    retries = _of_type(run, "job_retry")
    dead = _of_type(run, "job_dead")
    stragglers = _of_type(run, "straggler_redispatch")
    dup_deliveries = _of_type(run, "duplicate_delivery")
    dup_completions = _of_type(run, "duplicate_completion")
    workers = sorted(
        {str(r["worker"]) for r in joins}
        | {str(r["worker"]) for r in grants}
    )
    left = {str(r["worker"]) for r in _of_type(run, "worker_leave")}
    rows = []
    for worker in workers:
        leases = sum(1 for r in grants if str(r["worker"]) == worker)
        lost = sum(1 for r in expired if str(r["worker"]) == worker)
        rows.append(
            [
                worker,
                str(leases),
                str(lost),
                "left" if worker in left else "active",
            ]
        )
    table = format_table(
        ["Worker", "Leases", "Expired", "Status"],
        rows,
        title=f"Fabric fleet ({len(workers)} worker(s))",
    )
    summary = (
        f"leases granted: {len(grants)}  |  expired: {len(expired)}  |  "
        f"retries: {len(retries)}  |  dead-lettered: {len(dead)}\n"
        f"straggler re-dispatches: {len(stragglers)}  |  duplicate "
        f"deliveries: {len(dup_deliveries)}  |  duplicate completions: "
        f"{len(dup_completions)}"
    )
    return table + "\n" + summary


def _savings_lines(run: Sequence[_Record]) -> list[str]:
    early = _of_type(run, "early_stop")
    skipped = _of_type(run, "resume_skip")
    points = _of_type(run, "point_recorded")
    frames = sum(int(r["frames"]) for r in points)
    saved = sum(int(r["frames_saved"]) for r in early)
    lines = [
        f"points recorded: {len(points)}  |  frames simulated: {frames:,}",
        f"early-stopped points: {len(early)}  |  frames saved by early "
        f"stopping: {saved:,}",
    ]
    if skipped:
        lines.append(
            f"resume: {len(skipped)} already-completed point(s) skipped"
        )
    rate = live_rates(run)
    if rate["frames_per_second"] is not None:
        lines.append(
            f"throughput: {rate['frames_per_second']:,.1f} frames/s over "
            f"{rate['elapsed_seconds']:.2f} s of events"
        )
    return lines


def trace_summary(directory: str | Path, *, top: int = 8) -> str:
    """The full ``campaign trace`` report for a telemetry directory.

    ``directory`` may be the campaign directory (containing ``telemetry/``)
    or the telemetry directory itself.  Raises ``FileNotFoundError`` when
    no event log exists and :class:`~repro.obs.events.EventSchemaError`
    when the log fails validation — a trace of invalid telemetry would be
    fiction.
    """
    root = Path(directory)
    telemetry_dir = root / "telemetry" if (root / "telemetry").is_dir() else root
    log_path = telemetry_dir / "events.jsonl"
    if not log_path.exists():
        raise FileNotFoundError(
            f"{root} has no telemetry event log ({log_path}); run the "
            "campaign with REPRO_TELEMETRY=1 or --telemetry"
        )
    valid_events = validate_event_log(log_path)
    records = read_events(log_path)
    runs = split_runs(records)
    run = runs[-1] if runs else []
    blocks: list[str] = ["\n".join(_overview_lines(records, run, valid_events))]
    stage = _stage_breakdown(run_summary(records))
    if stage is not None:
        blocks.append(stage)
    shards = _slowest_shards(run, top)
    if shards is not None:
        blocks.append(shards)
    timeline = _utilization_timeline(run)
    if timeline is not None:
        blocks.append(timeline)
    fabric = _fabric_section(run)
    if fabric is not None:
        blocks.append(fabric)
    blocks.append("\n".join(_savings_lines(run)))
    return "\n\n".join(blocks) + "\n"
