"""Append-only JSONL event log with a versioned, validated schema.

Every line of ``<campaign>/telemetry/events.jsonl`` is one JSON object —
an *envelope* shared by all events plus a per-type payload:

* ``v``       — schema version (:data:`SCHEMA_VERSION`);
* ``seq``     — monotonically increasing record number, continued across
  resumed runs (the cross-run ordering key; ``t_mono`` is per-process);
* ``t_mono``  — :func:`repro.obs.clock.monotonic` at emit time;
* ``t_wall``  — :func:`repro.obs.clock.wall_time` at emit time;
* ``event``   — one of :data:`EVENT_FIELDS`' keys.

The payload schema per event type is declared in :data:`EVENT_FIELDS` and
enforced on both ends: :meth:`EventLog.emit` validates before writing (a
malformed emitter fails loudly at the source) and
:func:`validate_event_log` re-validates a recorded file (the CI smoke
campaign gates on it).  Unknown *extra* payload fields are allowed — they
are how the schema grows without a version bump — but a missing or
mistyped declared field is an error.

The log is append-only and flushed per record, so a killed campaign keeps
every event up to the kill; resuming appends with continued ``seq``
numbers.  Writes deliberately do **not** go through the atomic-rename
helper: rename-based atomicity is for whole-file snapshots, while an
append log's unit of atomicity is the line (a torn final line from a hard
kill is tolerated by the readers).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Any, Iterable, Mapping

from repro.obs import clock

__all__ = [
    "SCHEMA_VERSION",
    "ENVELOPE_FIELDS",
    "EVENT_FIELDS",
    "EventSchemaError",
    "EventLog",
    "validate_event",
    "read_events",
    "validate_event_log",
]

#: Version stamped into (and required of) every record's ``v`` field.
SCHEMA_VERSION = 1

_NUMBER: tuple[type, ...] = (int, float)

#: Envelope fields common to every record, with their required types.
ENVELOPE_FIELDS: dict[str, tuple[type, ...]] = {
    "v": (int,),
    "seq": (int,),
    "t_mono": _NUMBER,
    "t_wall": _NUMBER,
    "event": (str,),
}

#: Required payload fields (beyond the envelope) per event type.
EVENT_FIELDS: dict[str, dict[str, tuple[type, ...]]] = {
    "campaign_start": {
        "campaign": (str,),
        "total_points": (int,),
        "pending_points": (int,),
        "workers": (int,),
    },
    "campaign_end": {
        "campaign": (str,),
        "points_recorded": (int,),
        "seconds": _NUMBER,
    },
    "job_dispatched": {
        "experiment": (str,),
        "point_index": (int,),
        "ebn0_db": _NUMBER,
    },
    # A profiled shard adds ``stage_seconds`` ({stage: seconds}, the
    # run_batch stages plus ``setup``, summing to ``seconds``) as an extra
    # field; :func:`repro.obs.trace.run_summary` sums it per stage.
    "shard_completed": {
        "experiment": (str,),
        "ebn0_db": _NUMBER,
        "shard_index": (int,),
        "frames": (int,),
        "frame_errors": (int,),
        "seconds": _NUMBER,
        "queue_seconds": _NUMBER,
        "worker": (int,),
    },
    "early_stop": {
        "experiment": (str,),
        "ebn0_db": _NUMBER,
        "frames": (int,),
        "max_frames": (int,),
        "frames_saved": (int,),
    },
    "resume_skip": {
        "experiment": (str,),
        "point_index": (int,),
        "ebn0_db": _NUMBER,
    },
    "point_recorded": {
        "experiment": (str,),
        "ebn0_db": _NUMBER,
        "frames": (int,),
        "frame_errors": (int,),
        "ber": _NUMBER,
        "fer": _NUMBER,
    },
    "worker_up": {"worker": (int,)},
    "worker_down": {"worker": (int,)},
    # Fabric (broker-leased) campaign events.  Fabric workers are named, not
    # numbered — external processes join with host-derived ids — so these
    # carry a string ``worker`` field, unlike pool workers' int ids.
    "worker_join": {"worker": (str,)},
    "worker_leave": {"worker": (str,)},
    "lease_granted": {"job": (str,), "worker": (str,), "attempt": (int,)},
    "lease_expired": {"job": (str,), "worker": (str,), "attempt": (int,)},
    "job_retry": {"job": (str,), "attempt": (int,), "backoff": _NUMBER},
    "job_dead": {"job": (str,), "attempts": (int,)},
    "straggler_redispatch": {"job": (str,), "worker": (str,)},
    "duplicate_delivery": {"job": (str,), "worker": (str,)},
    "duplicate_completion": {"job": (str,), "worker": (str,)},
}


class EventSchemaError(ValueError):
    """An event record does not satisfy the versioned schema."""


def _type_names(expected: tuple[type, ...]) -> str:
    return "/".join(t.__name__ for t in expected)


def _check_field(
    record: Mapping[str, Any], name: str, expected: tuple[type, ...]
) -> None:
    if name not in record:
        raise EventSchemaError(
            f"event {record.get('event')!r} is missing required field {name!r}"
        )
    value = record[name]
    # bool subclasses int; a field declared int/float must still reject it.
    if isinstance(value, bool) or not isinstance(value, expected):
        raise EventSchemaError(
            f"field {name!r} of event {record.get('event')!r} must be "
            f"{_type_names(expected)}, got {type(value).__name__}"
        )


def validate_event(record: Mapping[str, Any]) -> None:
    """Raise :class:`EventSchemaError` unless ``record`` fits the schema.

    Extra payload fields beyond the declared ones are permitted; missing
    or mistyped declared fields, an unknown event type, or a version
    other than :data:`SCHEMA_VERSION` are not.
    """
    for name, expected in ENVELOPE_FIELDS.items():
        _check_field(record, name, expected)
    if record["v"] != SCHEMA_VERSION:
        raise EventSchemaError(
            f"unsupported event schema version {record['v']!r} "
            f"(this reader understands {SCHEMA_VERSION})"
        )
    event = record["event"]
    payload = EVENT_FIELDS.get(event)
    if payload is None:
        raise EventSchemaError(
            f"unknown event type {event!r}; known: {sorted(EVENT_FIELDS)}"
        )
    for name, expected in payload.items():
        _check_field(record, name, expected)


def _last_seq(path: Path) -> int:
    """Highest ``seq`` among the parseable records of ``path`` (or ``-1``).

    Scans the whole file: event logs are small (one line per lifecycle
    event, not per frame) and a resumed run must continue the sequence
    even when the previous run's final line was torn by a kill.
    """
    highest = -1
    if not path.exists():
        return highest
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            seq = record.get("seq")
            if isinstance(seq, int) and not isinstance(seq, bool):
                highest = max(highest, seq)
    return highest


class EventLog:
    """Append-only writer of validated telemetry events.

    The file (and its parent directory) is created lazily on the first
    :meth:`emit`; each record is validated, written as one JSON line and
    flushed, so a killed process loses at most the record being written.
    Reopening an existing log continues its ``seq`` numbering — that is
    what lets ``resume_skip`` events of a resumed run refer back to the
    ``point_recorded`` events of the interrupted one.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle: IO[str] | None = None
        self._seq = 0

    def _open(self) -> IO[str]:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._seq = _last_seq(self.path) + 1
            # Append-only journal: each emit() is one whole line followed
            # by a flush, so readers can only ever observe complete
            # records and kill/resume replays from the last full line.
            # That property — not a temp-file rename — is this file's
            # atomicity story, hence the audited exemption.
            self._handle = open(  # repro: noqa[REP107]
                self.path, "a", encoding="utf-8"
            )
        return self._handle

    def emit(self, event: str, **fields: Any) -> dict[str, Any]:
        """Validate, append and flush one event; returns the full record."""
        handle = self._open()
        record: dict[str, Any] = {
            "v": SCHEMA_VERSION,
            "seq": self._seq,
            "t_mono": clock.monotonic(),
            "t_wall": clock.wall_time(),
            "event": event,
        }
        record.update(fields)
        validate_event(record)
        handle.write(json.dumps(record, sort_keys=True) + "\n")
        handle.flush()
        self._seq += 1
        return record

    def close(self) -> None:
        """Close the underlying file (idempotent; reopens on next emit)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()


def read_events(path: str | Path) -> list[dict[str, Any]]:
    """Parse every record of an event log, in file order.

    A torn *final* line (hard kill mid-write) is silently dropped; a
    malformed line anywhere else raises :class:`EventSchemaError` — an
    interior corruption is damage, not an expected artifact of appends.
    """
    target = Path(path)
    records: list[dict[str, Any]] = []
    lines = target.read_text(encoding="utf-8").splitlines()
    last_index = len(lines) - 1
    for index, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            if index == last_index:
                break
            raise EventSchemaError(
                f"{target}:{index + 1}: unparseable event record: {exc}"
            ) from exc
        if not isinstance(record, dict):
            raise EventSchemaError(
                f"{target}:{index + 1}: event record must be a JSON object"
            )
        records.append(record)
    return records


def validate_event_log(path: str | Path) -> int:
    """Validate every record of an event log; returns the record count.

    The CI smoke campaign runs this over the recorded
    ``telemetry/events.jsonl`` — any missing field, wrong type, unknown
    event or version mismatch fails the build.
    """
    records = read_events(path)
    for index, record in enumerate(records):
        try:
            validate_event(record)
        except EventSchemaError as exc:
            raise EventSchemaError(f"{path}: record {index}: {exc}") from exc
    return len(records)


def events_of_type(
    records: Iterable[Mapping[str, Any]], event: str
) -> list[Mapping[str, Any]]:
    """The records whose ``event`` field equals ``event``, in order."""
    return [record for record in records if record.get("event") == event]
