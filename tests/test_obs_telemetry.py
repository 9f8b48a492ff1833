"""Tests for campaign telemetry (repro.obs).

The headline contract tested here: telemetry is **write-only**.  A
campaign run with the event log and stage profiling on must persist
byte-identical curve files to a run with telemetry off — serial or
pooled.  Everything else (schema validation, seq continuation across
interrupted runs, the counters folded from the log, trace rendering, the
status surfaces) protects the observability layer itself.
"""

import itertools
import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cli import main
from repro.obs import clock
from repro.obs.events import (
    ENVELOPE_FIELDS,
    EVENT_FIELDS,
    EventLog,
    EventSchemaError,
    events_of_type,
    read_events,
    validate_event,
    validate_event_log,
)
from repro.obs.probe import STAGES, StageAccumulator
from repro.obs.trace import live_rates, run_summary, split_runs, trace_summary
from repro.sim import MonteCarloSimulator, SimulationConfig
from repro.sim.campaign import (
    CampaignScheduler,
    CampaignSpec,
    CodeSpec,
    DecoderSpec,
    ExperimentSpec,
    ResultStore,
)

TINY_CONFIG = SimulationConfig(
    max_frames=40, target_frame_errors=6, batch_frames=10, all_zero_codeword=True
)


def tiny_spec(name="telemetry-campaign", seed=7, ebn0=(2.0, 4.0)) -> CampaignSpec:
    """Two decoder configurations on the scaled code — fast but non-trivial."""
    code = CodeSpec(family="scaled", circulant=31)
    return CampaignSpec(
        name=name,
        seed=seed,
        ebn0=tuple(ebn0),
        config=TINY_CONFIG,
        experiments=[
            ExperimentSpec(label="nms", code=code, decoder=DecoderSpec("nms", 8)),
            ExperimentSpec(
                label="min-sum", code=code, decoder=DecoderSpec("min-sum", 8)
            ),
        ],
    )


def run_campaign(directory, *, workers=None, telemetry=False, spec=None):
    spec = spec or tiny_spec()
    store = ResultStore.create(directory, spec)
    curves = CampaignScheduler(
        spec, store, workers=workers, telemetry=telemetry
    ).run()
    return store, curves


def curve_bytes(store):
    return {
        e.label: store.curve_path(e.label).read_bytes()
        for e in store.spec.experiments
    }


# --------------------------------------------------------------------- #
# Headline: telemetry is write-only
# --------------------------------------------------------------------- #
class TestByteIdentity:
    def test_serial_curves_identical_with_telemetry_on_and_off(self, tmp_path):
        off, _ = run_campaign(tmp_path / "off", telemetry=False)
        on, _ = run_campaign(tmp_path / "on", telemetry=True)
        assert curve_bytes(on) == curve_bytes(off)
        # The event log is the only telemetry artifact.
        assert [p.name for p in (tmp_path / "on" / "telemetry").iterdir()] == [
            "events.jsonl"
        ]
        assert not (tmp_path / "off" / "telemetry").exists()

    def test_pooled_telemetry_curves_identical_to_serial_plain(self, tmp_path):
        off, _ = run_campaign(tmp_path / "off", telemetry=False)
        on, _ = run_campaign(tmp_path / "on", workers=2, telemetry=True)
        assert curve_bytes(on) == curve_bytes(off)

    def test_fresh_store_discards_stale_telemetry(self, tmp_path):
        spec = tiny_spec()
        store, _ = run_campaign(tmp_path / "c", telemetry=True)
        assert (tmp_path / "c" / "telemetry" / "events.jsonl").exists()
        ResultStore.create(tmp_path / "c", spec, fresh=True)
        assert not (tmp_path / "c" / "telemetry" / "events.jsonl").exists()
        assert not (tmp_path / "c" / "telemetry" / "metrics.json").exists()


class TestQueueWait:
    def test_first_shard_queue_wait_excludes_the_simulator_build(
        self, tmp_path, monkeypatch
    ):
        """Queue wait ends when a worker starts a shard, not when it is folded.

        The decoder build sleeps 0.3 s inside the pool worker, on the first
        shard: that time belongs to the shard's ``seconds``.
        """
        import time

        build = DecoderSpec.build

        def slow_build(self, code):
            time.sleep(0.3)
            return build(self, code)

        monkeypatch.setattr(DecoderSpec, "build", slow_build)
        spec = CampaignSpec(
            name="queue-wait",
            seed=3,
            ebn0=(3.0,),
            config=SimulationConfig(
                max_frames=20, target_frame_errors=50, batch_frames=10,
                all_zero_codeword=True,
            ),
            experiments=[
                ExperimentSpec(
                    label="nms",
                    code=CodeSpec(family="scaled", circulant=31),
                    decoder=DecoderSpec("nms", 8),
                )
            ],
        )
        run_campaign(tmp_path / "c", workers=1, telemetry=True, spec=spec)
        records = read_events(tmp_path / "c" / "telemetry" / "events.jsonl")
        (first,) = [
            r for r in events_of_type(records, "shard_completed")
            if r["shard_index"] == 0
        ]
        assert first["queue_seconds"] < 0.3 <= first["seconds"]


# --------------------------------------------------------------------- #
# Event log schema
# --------------------------------------------------------------------- #
class TestEventLog:
    def test_campaign_run_emits_schema_valid_events(self, tmp_path):
        store, _ = run_campaign(tmp_path / "c", telemetry=True)
        path = tmp_path / "c" / "telemetry" / "events.jsonl"
        count = validate_event_log(path)  # raises on any invalid record
        records = read_events(path)
        assert count == len(records) > 0
        types = {r["event"] for r in records}
        assert {"campaign_start", "job_dispatched", "point_recorded",
                "campaign_end"} <= types
        # serial runs still report per-shard telemetry and the worker pair
        assert {"shard_completed", "worker_up", "worker_down"} <= types

    def test_every_emitted_event_type_is_in_the_schema(self, tmp_path):
        store, _ = run_campaign(tmp_path / "c", workers=2, telemetry=True)
        for record in read_events(tmp_path / "c" / "telemetry" / "events.jsonl"):
            assert record["event"] in EVENT_FIELDS
            validate_event(record)

    def test_point_recorded_matches_persisted_curves(self, tmp_path):
        store, curves = run_campaign(tmp_path / "c", telemetry=True)
        records = read_events(tmp_path / "c" / "telemetry" / "events.jsonl")
        recorded = {
            (r["experiment"], r["ebn0_db"]): r
            for r in events_of_type(records, "point_recorded")
        }
        for label, curve in curves.items():
            for point in curve.points:
                event = recorded[(label, point.ebn0_db)]
                assert event["frames"] == point.frames
                assert event["frame_errors"] == point.frame_errors

    def test_seq_is_strictly_increasing(self, tmp_path):
        store, _ = run_campaign(tmp_path / "c", telemetry=True)
        seqs = [r["seq"] for r in
                read_events(tmp_path / "c" / "telemetry" / "events.jsonl")]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_unknown_event_type_rejected(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        with pytest.raises(EventSchemaError):
            log.emit("no_such_event", campaign="x")

    def test_missing_required_field_rejected(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        with pytest.raises(EventSchemaError):
            log.emit("resume_skip", experiment="a", point_index=0)  # no ebn0_db

    def test_torn_final_line_is_tolerated(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        log.emit("worker_up", worker=1)
        log.emit("worker_down", worker=1)
        log.close()
        path = tmp_path / "events.jsonl"
        with path.open("a") as handle:
            handle.write('{"v": 1, "seq": 3, "t_mono"')  # torn mid-record
        records = read_events(path)
        assert [r["event"] for r in records] == ["worker_up", "worker_down"]

    def test_seq_continues_after_reopen(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        log.emit("worker_up", worker=1)
        log.close()
        log = EventLog(path)
        log.emit("worker_down", worker=1)
        log.close()
        assert [r["seq"] for r in read_events(path)] == [0, 1]


#: Payload keys (envelope left out) of every event a pool or serial
#: campaign writes; profiled shards carry ``stage_seconds``.
_PAYLOAD_KEYS = {
    "campaign_start": {"campaign", "total_points", "pending_points", "workers"},
    "job_dispatched": {"experiment", "point_index", "ebn0_db"},
    "worker_up": {"worker"},
    "shard_completed": {
        "experiment", "ebn0_db", "shard_index", "frames", "frame_errors",
        "seconds", "queue_seconds", "worker", "stage_seconds",
    },
    "point_recorded": {"experiment", "ebn0_db", "frames", "frame_errors", "ber", "fer"},
    "early_stop": {"experiment", "ebn0_db", "frames", "max_frames", "frames_saved"},
    "worker_down": {"worker"},
    "campaign_end": {"campaign", "points_recorded", "seconds"},
    "resume_skip": {"experiment", "point_index", "ebn0_db"},
}

#: The serial sequence of :func:`tiny_spec`, 29 records: every point stops
#: early, the 4.0 dB points after three and two shards; the resume reuses
#: all four.
_SERIAL_SEQUENCE = (
    ["campaign_start"] + ["job_dispatched"] * 4 + ["worker_up"]
    + ["shard_completed", "point_recorded", "early_stop"] * 2
    + ["shard_completed"] * 3 + ["point_recorded", "early_stop"]
    + ["shard_completed"] * 2 + ["point_recorded", "early_stop"]
    + ["worker_down", "campaign_end"]
    + ["campaign_start"] + ["resume_skip"] * 4 + ["campaign_end"]
)


def _run_and_resume(directory, workers):
    spec = tiny_spec()
    run_campaign(directory, workers=workers, telemetry=True, spec=spec)
    CampaignScheduler(
        spec, ResultStore.open(directory), workers=workers, telemetry=True
    ).run()
    return read_events(directory / "telemetry" / "events.jsonl")


def _payload_keys(record):
    return set(record) - set(ENVELOPE_FIELDS)


class TestEventSequence:
    """The log a campaign and its resume write, pinned record by record."""

    def test_serial_run_and_resume_write_the_pinned_sequence(self, tmp_path):
        records = _run_and_resume(tmp_path / "c", workers=None)
        assert [r["event"] for r in records] == _SERIAL_SEQUENCE
        for record in records:
            assert _payload_keys(record) == _PAYLOAD_KEYS[record["event"]], record

    def test_pooled_run_and_resume_write_the_pinned_key_sets(self, tmp_path):
        """Which processes serve shards decides how many ``worker_up``
        records a pooled run writes, so only the key sets are pinned."""
        records = _run_and_resume(tmp_path / "c", workers=2)
        assert {r["event"] for r in records} == set(_PAYLOAD_KEYS)
        for record in records:
            assert _payload_keys(record) == _PAYLOAD_KEYS[record["event"]], record


# --------------------------------------------------------------------- #
# One switch, one writer: the scheduler's telemetry flag
# --------------------------------------------------------------------- #
def _save_tiny_spec(tmp_path):
    spec_path = tmp_path / "spec.json"
    tiny_spec().save(spec_path)
    return spec_path


class TestOneSwitch:
    """``CampaignScheduler(telemetry=...)`` — ``--telemetry`` on the CLI —
    is the only switch of the event log, and the scheduler writes every
    record of it."""

    def test_scheduler_telemetry_defaults_off(self, tmp_path):
        spec = tiny_spec()
        CampaignScheduler(spec, ResultStore.create(tmp_path / "c", spec)).run()
        assert not (tmp_path / "c" / "telemetry").exists()

    @pytest.mark.parametrize("surface", ["scheduler", "run", "resume"])
    def test_environment_does_not_switch_telemetry_on(
        self, surface, tmp_path, monkeypatch
    ):
        """``REPRO_TELEMETRY``, the switch older versions read, is ignored."""
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        directory = tmp_path / "c"
        if surface == "scheduler":
            spec = tiny_spec()
            CampaignScheduler(spec, ResultStore.create(directory, spec)).run()
        elif surface == "run":
            spec_path = _save_tiny_spec(tmp_path)
            assert main(["campaign", "run", str(spec_path),
                         "--dir", str(directory)]) == 0
        else:
            run_campaign(directory, telemetry=False)
            assert main(["campaign", "resume", str(directory)]) == 0
        assert not (directory / "telemetry").exists()

    @pytest.mark.parametrize("command", ["run", "resume"])
    def test_no_telemetry_flag_is_rejected(self, command, tmp_path, capsys):
        target = _save_tiny_spec(tmp_path) if command == "run" else tmp_path
        with pytest.raises(SystemExit) as raised:
            main(["campaign", command, str(target), "--no-telemetry"])
        assert raised.value.code == 2
        assert "--no-telemetry" in capsys.readouterr().err

    def test_resume_with_telemetry_flag_appends_one_run(self, tmp_path, capsys):
        run_campaign(tmp_path / "c", telemetry=True)
        assert main(["campaign", "resume", str(tmp_path / "c"), "--telemetry"]) == 0
        assert "telemetry: recording to" in capsys.readouterr().out
        runs = split_runs(read_events(tmp_path / "c" / "telemetry" / "events.jsonl"))
        assert [[r["event"] for r in run] for run in runs[1:]] == [
            ["campaign_start"] + ["resume_skip"] * 4 + ["campaign_end"]
        ]

    def test_store_imports_nothing_from_obs(self):
        """Persistence does not report to observability."""
        import ast
        import inspect

        from repro.sim.campaign import store as store_module

        tree = ast.parse(inspect.getsource(store_module))
        imported = {
            node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
        } | {
            alias.name for node in ast.walk(tree)
            if isinstance(node, ast.Import) for alias in node.names
        }
        assert not [
            name for name in imported
            if name == "repro.obs" or name.startswith("repro.obs.")
        ]
        assert "telemetry" not in inspect.signature(ResultStore.create).parameters

    def test_point_events_only_for_newly_stored_points(self, tmp_path, monkeypatch):
        """``point_recorded`` and ``early_stop`` follow ``record_point``'s
        answer: a point the store does not take writes neither, though its
        shards are still booked."""
        original = ResultStore.record_point

        def refuse_min_sum(self, label, point):
            return label != "min-sum" and original(self, label, point)

        monkeypatch.setattr(ResultStore, "record_point", refuse_min_sum)
        run_campaign(tmp_path / "c", telemetry=True)
        records = read_events(tmp_path / "c" / "telemetry" / "events.jsonl")

        def experiments(event):
            return {r["experiment"] for r in events_of_type(records, event)}

        assert experiments("point_recorded") == experiments("early_stop") == {"nms"}
        assert experiments("shard_completed") == {"nms", "min-sum"}
        (end,) = events_of_type(records, "campaign_end")
        assert end["points_recorded"] == 2

    def test_campaign_end_seconds_span_the_run(self, tmp_path, monkeypatch):
        """The scheduler stamps its own clock just before it writes
        ``campaign_start`` and ``campaign_end``: on a clock that ticks one
        second per read, ``seconds`` is exactly the gap of their stamps."""
        ticks = itertools.count()
        monkeypatch.setattr(clock, "monotonic", lambda: float(next(ticks)))
        run_campaign(tmp_path / "c", telemetry=True)
        records = read_events(tmp_path / "c" / "telemetry" / "events.jsonl")
        (start,) = events_of_type(records, "campaign_start")
        (end,) = events_of_type(records, "campaign_end")
        assert end["seconds"] == end["t_mono"] - start["t_mono"] > 0

    def test_every_pool_worker_up_has_its_worker_down(self, tmp_path):
        run_campaign(tmp_path / "c", workers=2, telemetry=True)
        records = read_events(tmp_path / "c" / "telemetry" / "events.jsonl")
        up = [r["worker"] for r in events_of_type(records, "worker_up")]
        down = [r["worker"] for r in events_of_type(records, "worker_down")]
        assert up == list(range(len(up))) and sorted(down) == up
        (end,) = events_of_type(records, "campaign_end")
        assert records[-1] == end  # the workers close before the run does


# --------------------------------------------------------------------- #
# Interrupted runs: the log survives a kill and resume skips what's done
# --------------------------------------------------------------------- #
class TestKillAndResume:
    def test_killed_run_leaves_valid_log_without_campaign_end(
        self, tmp_path, monkeypatch
    ):
        spec = tiny_spec()
        store = ResultStore.create(tmp_path / "c", spec)
        original = ResultStore.record_point
        recorded = []

        def dying_record_point(self, label, point):
            if recorded:
                raise RuntimeError("simulated kill")
            recorded.append(label)
            return original(self, label, point)

        monkeypatch.setattr(ResultStore, "record_point", dying_record_point)
        with pytest.raises(RuntimeError, match="simulated kill"):
            CampaignScheduler(spec, store, telemetry=True).run()
        monkeypatch.setattr(ResultStore, "record_point", original)

        path = tmp_path / "c" / "telemetry" / "events.jsonl"
        validate_event_log(path)  # the log survived the kill intact
        records = read_events(path)
        assert len(events_of_type(records, "campaign_start")) == 1
        assert events_of_type(records, "campaign_end") == []  # interrupted

        # Resume: one point is already persisted; the new run must skip
        # exactly it, finish the rest, and close with campaign_end.
        store = ResultStore.open(tmp_path / "c")
        curves = CampaignScheduler(spec, store, telemetry=True).run()
        assert all(len(curve.points) == 2 for curve in curves.values())
        records = read_events(path)
        validate_event_log(path)
        assert len(events_of_type(records, "campaign_start")) == 2
        assert len(events_of_type(records, "campaign_end")) == 1
        skips = events_of_type(records, "resume_skip")
        assert len(skips) == 1
        completed = {
            (r["experiment"], r["ebn0_db"])
            for r in events_of_type(records, "point_recorded")
        }
        for skip in skips:  # every skip references a point recorded earlier
            assert (skip["experiment"], skip["ebn0_db"]) in completed
        seqs = [r["seq"] for r in records]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_resume_of_complete_campaign_skips_every_point(self, tmp_path):
        spec = tiny_spec()
        store, _ = run_campaign(tmp_path / "c", telemetry=True, spec=spec)
        store = ResultStore.open(tmp_path / "c")
        CampaignScheduler(spec, store, telemetry=True).run()
        records = read_events(tmp_path / "c" / "telemetry" / "events.jsonl")
        runs = split_runs(records)
        assert len(runs) == 2
        assert len(events_of_type(runs[1], "resume_skip")) == 4  # 2 exp x 2 points
        assert events_of_type(runs[1], "job_dispatched") == []


# --------------------------------------------------------------------- #
# Metrics: counters and gauges folded from the event log
# --------------------------------------------------------------------- #
def _event(seq, event, t_mono, **fields):
    return {"v": 1, "seq": seq, "t_mono": t_mono, "t_wall": 1000.0 + t_mono,
            "event": event, **fields}


def _start(seq, t_mono, workers=0):
    return _event(seq, "campaign_start", t_mono, campaign="c", total_points=2,
                  pending_points=2, workers=workers)


def _shard(seq, t_mono, seconds, stage_seconds=None):
    fields = {} if stage_seconds is None else {"stage_seconds": stage_seconds}
    return _event(seq, "shard_completed", t_mono, experiment="a", ebn0_db=3.0,
                  shard_index=0, frames=10, frame_errors=1, seconds=seconds,
                  queue_seconds=0.25, worker=0, **fields)


def _point(seq, t_mono, frames):
    return _event(seq, "point_recorded", t_mono, experiment="a", ebn0_db=3.0,
                  frames=frames, frame_errors=1, ber=0.01, fer=0.1)


def _end(seq, t_mono, seconds):
    return _event(seq, "campaign_end", t_mono, campaign="c",
                  points_recorded=1, seconds=seconds)


class TestMetrics:
    def test_campaign_metrics_snapshot_accounts_for_every_frame(self, tmp_path):
        store, curves = run_campaign(tmp_path / "c", telemetry=True)
        data = run_summary(read_events(tmp_path / "c" / "telemetry" / "events.jsonl"))
        counters = data["counters"]
        frames = sum(p.frames for c in curves.values() for p in c.points)
        assert counters["frames_total"] == frames
        assert counters["points_recorded_total"] == 4
        assert set(data["gauges"]) >= {
            "run_seconds", "run_started_wall", "run_ended_wall", "workers"
        }
        stage_total = sum(
            value for name, value in counters.items()
            if name.startswith("stage_seconds.")
        )
        assert stage_total > 0  # the probe actually ran

    def test_run_summary_describes_the_last_clean_run(self):
        """An interrupted resume (no campaign_end) does not replace the
        summary of the clean run before it."""
        clean = [
            _start(0, 10.0, workers=2),
            _event(1, "resume_skip", 10.5, experiment="b", point_index=0,
                   ebn0_db=3.0),
            _shard(2, 11.0, 0.5),
            _point(3, 11.5, 300),
            _event(4, "early_stop", 11.5, experiment="a", ebn0_db=3.0,
                   frames=300, max_frames=1000, frames_saved=700),
            _end(5, 12.0, 2.0),
        ]
        interrupted = [_start(6, 50.0), _shard(7, 51.0, 9.0), _point(8, 52.0, 7)]
        summary = run_summary(clean + interrupted)
        assert summary == run_summary(clean)
        assert summary["counters"] == {
            "frames_saved_by_early_stop_total": 700.0,
            "frames_total": 300.0,
            "points_early_stopped_total": 1.0,
            "points_recorded_total": 1.0,
            "points_resume_skipped_total": 1.0,
            "shard_compute_seconds_total": 0.5,
            "shard_queue_seconds_total": 0.25,
            "shards_total": 1.0,
        }
        assert summary["gauges"] == {
            "frames_per_second": 150.0,
            "pool_utilization": 0.125,
            "run_ended_wall": 1012.0,
            "run_seconds": 2.0,
            "run_started_wall": 1010.0,
            "workers": 2.0,
        }

    def test_run_summary_sums_stage_seconds_per_stage(self):
        records = [
            _start(0, 0.0),
            _shard(1, 1.0, 1.0, {"decode": 0.5, "encode": 0.25}),
            _shard(2, 2.0, 1.0),  # an unprofiled shard carries no split
            _shard(3, 3.0, 1.0, {"decode": 0.125, "count": 0.0625}),
            _end(4, 4.0, 4.0),
        ]
        counters = run_summary(records)["counters"]
        stages = {
            name: value for name, value in counters.items()
            if name.startswith("stage_seconds.")
        }
        assert stages == {
            "stage_seconds.count": 0.0625,
            "stage_seconds.decode": 0.625,
            "stage_seconds.encode": 0.25,
        }

    def test_run_summary_without_campaign_end_is_none(self):
        assert run_summary([]) is None
        assert run_summary([_start(0, 0.0), _point(1, 1.0, 10)]) is None

    def test_run_summary_tolerates_a_torn_final_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with path.open("w") as handle:
            for record in (_start(0, 0.0), _point(1, 1.0, 40), _end(2, 2.0, 2.0)):
                handle.write(json.dumps(record) + "\n")
            handle.write('{"v": 1, "seq": 3, "t_mono"')  # torn mid-record
        summary = run_summary(read_events(path))
        assert summary["counters"]["frames_total"] == 40.0
        assert summary["gauges"]["frames_per_second"] == 20.0


# --------------------------------------------------------------------- #
# Stage probe
# --------------------------------------------------------------------- #
class TestProbe:
    def test_shard_stage_split_is_its_own_batch(self, scaled_code):
        """Each shard reports the split of its own ``run_batch`` call: the
        splits add up to the probe's totals and later shards leave earlier
        splits untouched."""
        from repro.sim.parallel import ShardRunner

        accumulator = StageAccumulator()
        simulator = MonteCarloSimulator(
            scaled_code, DecoderSpec("nms", 8).build(scaled_code),
            config=TINY_CONFIG, rng=0, probe=accumulator,
        )
        runner = ShardRunner(lambda key: SimpleNamespace(build=lambda: simulator))
        splits, copies = [], []
        for seed in np.random.SeedSequence(5).spawn(3):
            _, shard = runner.run("nms", 3.0, 10, seed)
            splits.append(shard.stage_seconds)
            copies.append(dict(shard.stage_seconds))
        assert splits == copies
        assert accumulator.batches == 3
        for stage in STAGES:
            assert sum(split[stage] for split in splits) == (
                accumulator.stage_seconds[stage]
            )

    def test_shard_stage_split_sums_to_shard_seconds(self, tmp_path):
        """``setup`` takes the rest of each shard's time (the lazy simulator
        build and ``sigma_for``), so the trace's stage breakdown sums to
        the shards' compute time."""
        run_campaign(tmp_path / "c", workers=2, telemetry=True)
        records = read_events(tmp_path / "c" / "telemetry" / "events.jsonl")
        shards = events_of_type(records, "shard_completed")
        for shard in shards:
            split = shard["stage_seconds"]
            assert set(split) == {*STAGES, "setup"}
            assert min(split.values()) >= 0.0
            assert sum(split.values()) == pytest.approx(shard["seconds"], abs=1e-9)
        # A worker's first shard of an experiment builds its simulator.
        first = {}
        for shard in shards:
            first.setdefault((shard["worker"], shard["experiment"]), shard)
        assert max(s["stage_seconds"]["setup"] for s in first.values()) > 0.0
        counters = run_summary(records)["counters"]
        assert sum(
            value for name, value in counters.items() if name.startswith("stage_seconds.")
        ) == pytest.approx(counters["shard_compute_seconds_total"], abs=1e-6)

    def test_stage_shares_are_of_the_hot_path(self, tmp_path):
        """The trace and the report take stage shares over the four
        ``run_batch`` stages, as before ``setup`` existed; ``setup`` is
        listed without a share, and the trace ends on the shard time."""
        run_campaign(tmp_path / "c", workers=2, telemetry=True)
        counters = run_summary(
            read_events(tmp_path / "c" / "telemetry" / "events.jsonl")
        )["counters"]
        table = trace_summary(tmp_path / "c").split("\n\n")[1].splitlines()
        assert table[0] == "Hot-path stage breakdown"
        cells = {
            cells[0]: cells[1:]
            for cells in ([c.strip() for c in line.split("|")] for line in table[3:])
        }
        hot_path = sum(counters[f"stage_seconds.{stage}"] for stage in STAGES)
        assert sum(float(cells[stage][1].rstrip("%")) for stage in STAGES) == (
            pytest.approx(100.0, abs=0.3)
        )
        assert float(cells["hot path"][0]) == pytest.approx(hot_path, abs=1e-3)
        assert cells["setup"][1] == ""
        assert float(cells["shard total"][0]) == pytest.approx(
            counters["shard_compute_seconds_total"], abs=1e-3
        )
        _, rows = _telemetry_rows(tmp_path / "c")
        stage_rows = {label: value for label, value in rows if label.startswith("Stage ")}
        assert "%" not in stage_rows["Stage setup (s)"]
        assert sum(
            float(stage_rows[f"Stage {stage} (s)"].split("(")[1].rstrip("%)"))
            for stage in STAGES
        ) == pytest.approx(100.0, abs=0.3)

    def test_probed_simulator_counts_identical(self, scaled_code):
        decoder = DecoderSpec("nms", 8).build(scaled_code)
        plain = MonteCarloSimulator(
            scaled_code, decoder, config=TINY_CONFIG, rng=0
        )
        accumulator = StageAccumulator()
        probed = MonteCarloSimulator(
            scaled_code, decoder, config=TINY_CONFIG, rng=0, probe=accumulator
        )
        point_a = plain.run_point(3.0, rng=np.random.SeedSequence(5))
        point_b = probed.run_point(3.0, rng=np.random.SeedSequence(5))
        assert point_a == point_b
        assert accumulator.frames == point_b.frames
        assert set(accumulator.stage_seconds) == set(STAGES)


# --------------------------------------------------------------------- #
# The clock chokepoint
# --------------------------------------------------------------------- #
class TestEnablement:
    def test_wall_iso_is_a_pure_formatter(self):
        assert clock.wall_iso(0.0) == "1970-01-01T00:00:00Z"


# --------------------------------------------------------------------- #
# Trace and live rates
# --------------------------------------------------------------------- #
class TestTrace:
    def test_trace_summary_renders_all_sections(self, tmp_path):
        run_campaign(tmp_path / "c", workers=2, telemetry=True)
        text = trace_summary(tmp_path / "c")
        for fragment in ("schema-valid events", "stage breakdown",
                         "Slowest shards", "utilization timeline",
                         "early stopping"):
            assert fragment in text, fragment

    def test_trace_summary_without_telemetry_raises(self, tmp_path):
        run_campaign(tmp_path / "c", telemetry=False)
        with pytest.raises(FileNotFoundError, match="--telemetry"):
            trace_summary(tmp_path / "c")

    def test_live_rates_from_synthetic_records(self):
        records = [
            {"event": "campaign_start", "t_mono": 10.0, "seq": 1},
            {"event": "point_recorded", "t_mono": 12.0, "seq": 2, "frames": 300},
            {"event": "point_recorded", "t_mono": 14.0, "seq": 3, "frames": 100},
        ]
        rates = live_rates(records)
        assert rates["frames"] == 400 and rates["points"] == 2
        assert rates["elapsed_seconds"] == pytest.approx(4.0)
        assert rates["frames_per_second"] == pytest.approx(100.0)
        assert not rates["completed"]

    def test_split_runs_segments_at_campaign_start(self):
        records = [
            {"event": "campaign_start"}, {"event": "worker_up"},
            {"event": "campaign_start"}, {"event": "campaign_end"},
        ]
        runs = split_runs(records)
        assert [len(run) for run in runs] == [2, 2]


# --------------------------------------------------------------------- #
# CLI surfaces: status on corrupt stores, watch, trace
# --------------------------------------------------------------------- #
class TestCliSurfaces:
    def test_status_reports_aggregate_total_over_corrupt_store(
        self, tmp_path, capsys
    ):
        store, _ = run_campaign(tmp_path / "c", telemetry=False)
        store.curve_path("nms").write_text("{ not json")
        code = main(["campaign", "status", str(tmp_path / "c")])
        out = capsys.readouterr().out
        assert code == 1  # incomplete, but it did not die
        assert "TOTAL" in out
        assert "not a readable curve file" in out
        lines = [l for l in out.splitlines() if l.startswith("TOTAL")]
        assert lines and "2/4" in lines[0]  # min-sum's points still counted

    def test_status_reports_unreadable_event_log(self, tmp_path, capsys):
        run_campaign(tmp_path / "c", telemetry=True)
        (tmp_path / "c" / "telemetry" / "events.jsonl").write_text(
            'not json at all\n{"still": "not an event"}\n'
        )
        code = main(["campaign", "status", str(tmp_path / "c")])
        out = capsys.readouterr().out
        assert code == 0  # store itself is complete
        assert "unreadable event log" in out

    def test_status_shows_live_rates_for_telemetry_runs(self, tmp_path, capsys):
        run_campaign(tmp_path / "c", telemetry=True)
        code = main(["campaign", "status", str(tmp_path / "c")])
        out = capsys.readouterr().out
        assert code == 0
        assert "frames/s" in out and "run complete" in out

    def test_watch_exits_when_campaign_completes(self, tmp_path, capsys):
        run_campaign(tmp_path / "c", telemetry=True)
        code = main([
            "campaign", "status", str(tmp_path / "c"),
            "--watch", "--interval", "0.05",
        ])
        assert code == 0
        assert "TOTAL" in capsys.readouterr().out

    def test_watch_on_missing_store_fails_cleanly(self, tmp_path, capsys):
        code = main([
            "campaign", "status", str(tmp_path / "missing"),
            "--watch", "--interval", "0.05",
        ])
        assert code == 2

    def test_trace_cli_renders_and_fails_cleanly(self, tmp_path, capsys):
        run_campaign(tmp_path / "c", telemetry=True)
        assert main(["campaign", "trace", str(tmp_path / "c")]) == 0
        assert "stage breakdown" in capsys.readouterr().out
        assert main(["campaign", "trace", str(tmp_path / "missing")]) == 2
        assert "telemetry" in capsys.readouterr().err

    def test_run_with_telemetry_flag(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        tiny_spec().save(spec_path)
        code = main([
            "campaign", "run", str(spec_path),
            "--dir", str(tmp_path / "c"), "--telemetry",
        ])
        assert code == 0
        assert (tmp_path / "c" / "telemetry" / "events.jsonl").exists()
        assert not (tmp_path / "c" / "telemetry" / "metrics.json").exists()
        assert "telemetry: recording to" in capsys.readouterr().out


# --------------------------------------------------------------------- #
# Report integration
# --------------------------------------------------------------------- #
#: Where each row of the report's telemetry section takes its value from
#: (``Stage <stage> (s)`` rows: the ``stage_seconds.<stage>`` counter).
_RENDERED_FROM = {
    "Run started (UTC)": ("gauges", "run_started_wall"),
    "Run ended (UTC)": ("gauges", "run_ended_wall"),
    "Run wall time (s)": ("gauges", "run_seconds"),
    "Workers": ("gauges", "workers"),
    "Pool utilization": ("gauges", "pool_utilization"),
    "Frames simulated": ("counters", "frames_total"),
    "Frames per second": ("gauges", "frames_per_second"),
    "Points recorded": ("counters", "points_recorded_total"),
    "Shards completed": ("counters", "shards_total"),
    "Shard compute time (s)": ("counters", "shard_compute_seconds_total"),
    "Shard queue wait (s)": ("counters", "shard_queue_seconds_total"),
    "Points early-stopped": ("counters", "points_early_stopped_total"),
    "Frames saved by early stop": ("counters", "frames_saved_by_early_stop_total"),
    "Points skipped on resume": ("counters", "points_resume_skipped_total"),
}


def _telemetry_rows(directory):
    from repro.analysis.campaign.report import CampaignReport

    report = CampaignReport.from_store(directory, include_rates=False)
    (rows,) = [
        rows for title, _, rows in report.sections()
        if title == "Execution telemetry (recorded)"
    ]
    return report, rows


class TestReportSection:
    def test_report_gains_deterministic_telemetry_section(self, tmp_path):
        from repro.analysis.campaign.report import CampaignReport

        run_campaign(tmp_path / "c", telemetry=True)
        report = CampaignReport.from_store(tmp_path / "c", include_rates=False)
        text = report.to_text()
        assert "Execution telemetry (recorded)" in text
        assert "Frames simulated" in text
        # Deterministic: rendered twice from the recorded snapshot.
        again = CampaignReport.from_store(tmp_path / "c", include_rates=False)
        assert again.to_text() == text
        assert report.as_dict()["telemetry"]["counters"]["frames_total"] > 0

    def test_report_without_telemetry_omits_section(self, tmp_path):
        from repro.analysis.campaign.report import CampaignReport

        run_campaign(tmp_path / "c", telemetry=False)
        report = CampaignReport.from_store(tmp_path / "c", include_rates=False)
        assert "Execution telemetry" not in report.to_text()
        assert report.as_dict()["telemetry"] is None

    def test_json_report_keeps_every_rendered_value(self, tmp_path):
        run_campaign(tmp_path / "c", workers=2, telemetry=True)
        report, rows = _telemetry_rows(tmp_path / "c")
        telemetry = json.loads(report.to_json())["telemetry"]
        labels = [label for label, _ in rows]
        assert {"Pool utilization", "Stage decode (s)"} <= set(labels)
        for label in labels:
            if label.startswith("Stage "):
                stage = label.removeprefix("Stage ").removesuffix(" (s)")
                kind, name = "counters", f"stage_seconds.{stage}"
            else:
                kind, name = _RENDERED_FROM[label]
            assert name in telemetry[kind], label

    def test_log_without_stage_split_beside_a_stale_snapshot(self, tmp_path):
        """A telemetry directory as older versions wrote it: shard events
        without ``stage_seconds`` and a ``metrics.json`` snapshot.  The
        report and the trace fold the log, ignore the snapshot, and lose
        only their stage rows."""
        run_campaign(tmp_path / "c", workers=2, telemetry=True)
        _, rows = _telemetry_rows(tmp_path / "c")
        trace = trace_summary(tmp_path / "c")

        log = tmp_path / "c" / "telemetry" / "events.jsonl"
        records = read_events(log)
        for record in records:
            record.pop("stage_seconds", None)
        log.write_text(
            "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)
        )
        (log.parent / "metrics.json").write_text(json.dumps({
            "schema_version": 1,
            "counters": {"frames_total": 1.0, "stage_seconds.decode": 99.0},
            "gauges": {"run_seconds": 99.0},
            "histograms": {},
        }))

        _, old_rows = _telemetry_rows(tmp_path / "c")
        assert old_rows == [row for row in rows if not row[0].startswith("Stage ")]
        blocks = trace.split("\n\n")
        assert blocks[1].startswith("Hot-path stage breakdown")
        assert trace_summary(tmp_path / "c") == "\n\n".join(blocks[:1] + blocks[2:])


# --------------------------------------------------------------------- #
# Telemetry under injected faults (fabric runs)
# --------------------------------------------------------------------- #
class TestFabricTelemetry:
    """The observability layer stays write-only and deterministic when the
    executor is the fabric and the failure schedule is hostile."""

    CHAOTIC = None  # built lazily: FaultPlan is imported inside the tests

    @staticmethod
    def _fabric(plan, workers=3):
        from repro.fabric import FabricConfig, LeasePolicy

        return FabricConfig(
            local_workers=workers,
            policy=LeasePolicy(
                ttl=5.0,
                max_attempts=6,
                backoff_base=1.0,
                backoff_factor=2.0,
                straggler_after=6.0,
            ),
            fault_plan=plan,
            wall_clock=False,
        )

    @staticmethod
    def _chaotic_plan():
        from repro.fabric import FaultPlan

        # One of everything: a death, a stale lease, a straggler and
        # duplicate deliveries — so the trace has every row to render.
        return FaultPlan(
            kill_after={"w2": 1},
            drop_heartbeat_after={"w1": 1},
            shard_ticks={"w1": 8},
            duplicate_leases=frozenset({0, 3}),
        )

    def test_fabric_telemetry_is_write_only(self, tmp_path):
        plain, _ = run_campaign(tmp_path / "plain", telemetry=False)
        spec = tiny_spec()
        store = ResultStore.create(tmp_path / "fabric", spec)
        CampaignScheduler(
            spec, store, telemetry=True, fabric=self._fabric(self._chaotic_plan())
        ).run()
        assert curve_bytes(store) == curve_bytes(plain)

    def test_fabric_run_emits_schema_valid_fault_events(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore.create(tmp_path / "c", spec)
        CampaignScheduler(
            spec, store, telemetry=True, fabric=self._fabric(self._chaotic_plan())
        ).run()
        path = tmp_path / "c" / "telemetry" / "events.jsonl"
        validate_event_log(path)
        records = read_events(path)
        for kind in (
            "worker_join",
            "lease_granted",
            "lease_expired",
            "job_retry",
            "duplicate_delivery",
            "straggler_redispatch",
            "worker_leave",
        ):
            assert events_of_type(records, kind), f"no {kind} events recorded"
        # The scripted death is visible: w2 leaves without rejoining, and
        # some leases needed more than one attempt.
        leaves = {r["worker"] for r in events_of_type(records, "worker_leave")}
        assert "w2" in leaves
        assert any(r["attempt"] > 1 for r in events_of_type(records, "lease_granted"))

    def test_trace_renders_fault_events_deterministically(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore.create(tmp_path / "c", spec)
        CampaignScheduler(
            spec, store, telemetry=True, fabric=self._fabric(self._chaotic_plan())
        ).run()
        text = trace_summary(tmp_path / "c")
        assert "Fabric fleet" in text
        assert "leases granted" in text and "retries" in text
        assert "straggler re-dispatches" in text and "duplicate" in text
        for worker in ("w0", "w1", "w2"):
            assert worker in text
        # Rendering is a pure function of the recorded log.
        assert trace_summary(tmp_path / "c") == text

    def test_trace_omits_fabric_section_for_pool_runs(self, tmp_path):
        run_campaign(tmp_path / "c", workers=2, telemetry=True)
        assert "Fabric fleet" not in trace_summary(tmp_path / "c")

    def test_seq_contiguous_across_killed_and_resumed_fabric_run(self, tmp_path):
        from repro.fabric import FabricStalledError, FaultPlan

        spec = tiny_spec()
        store = ResultStore.create(tmp_path / "c", spec)
        deadly = FaultPlan(kill_after={"w0": 1, "w1": 1, "w2": 1})
        with pytest.raises(FabricStalledError):
            CampaignScheduler(
                spec, store, telemetry=True, fabric=self._fabric(deadly)
            ).run()

        path = tmp_path / "c" / "telemetry" / "events.jsonl"
        validate_event_log(path)  # the stall left a well-formed log
        records = read_events(path)
        assert events_of_type(records, "campaign_end") == []
        assert len(events_of_type(records, "worker_leave")) == 3

        # Resume with a healthy fleet over the same store and log.
        store = ResultStore.open(tmp_path / "c")
        curves = CampaignScheduler(
            spec, store, telemetry=True, fabric=self._fabric(FaultPlan())
        ).run()
        assert all(len(curve.points) == 2 for curve in curves.values())
        validate_event_log(path)
        records = read_events(path)
        # Seq numbers are contiguous from zero across both runs: the resumed
        # writer continued exactly where the killed one stopped.
        assert [r["seq"] for r in records] == list(range(len(records)))
        assert len(events_of_type(records, "campaign_start")) == 2
        assert len(events_of_type(records, "campaign_end")) == 1
        runs = split_runs(records)
        assert len(runs) == 2
        # Both runs are fabric runs; the trace renders their fleets.
        text = trace_summary(tmp_path / "c")
        assert trace_summary(tmp_path / "c") == text
