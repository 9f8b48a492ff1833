"""Campaign observability: event log, stage profiling, traces.

The campaign platform runs thousands of point-job shards across a shared
process pool; this package makes that execution *observable* without ever
touching the thing being observed.  Two primitives:

* :mod:`repro.obs.events` — an append-only JSONL **event log**,
  ``<campaign>/telemetry/events.jsonl``, with a versioned, validated
  schema (``campaign_start/end``, ``job_dispatched``,
  ``shard_completed``, ``early_stop``, ``resume_skip``,
  ``point_recorded``, ``worker_up/down``).  It is the only telemetry
  artifact, and the campaign scheduler
  (:class:`~repro.sim.campaign.scheduler.CampaignScheduler`, switched on
  by its ``telemetry`` flag) is its only writer;
* :mod:`repro.obs.probe` — **stage profiling** of the simulator hot path
  (encode / channel / decode / count) behind a no-op-when-disabled
  :class:`~repro.obs.probe.Probe` protocol: disabled cost is one
  attribute check per batch.  A profiled shard's split rides on its
  ``shard_completed`` event.

:mod:`repro.obs.trace` folds the recorded log back into the counters and
gauges of a run (:func:`~repro.obs.trace.run_summary`), the ``campaign
trace`` report and the live rates behind ``campaign status --watch``.
All timestamps flow through the audited :mod:`repro.obs.clock`
chokepoint — the only file in the package allowed to read the
:mod:`time` module directly (linter rules REP104/REP110).

The contract that makes this safe to leave on: telemetry is strictly
write-only with respect to simulation state.  RNG streams, shard
schedules, stopping decisions and stored curves are byte-identical with
telemetry on or off; the byte-identity tests (``TestByteIdentity``) pin
it.
"""

from repro.obs import clock
from repro.obs.events import (
    EVENT_FIELDS,
    SCHEMA_VERSION,
    EventLog,
    EventSchemaError,
    read_events,
    validate_event,
    validate_event_log,
)
from repro.obs.probe import STAGES, Probe, StageAccumulator
from repro.obs.trace import live_rates, run_summary, split_runs, trace_summary

__all__ = [
    "clock",
    "SCHEMA_VERSION",
    "EVENT_FIELDS",
    "EventLog",
    "EventSchemaError",
    "validate_event",
    "validate_event_log",
    "read_events",
    "STAGES",
    "Probe",
    "StageAccumulator",
    "live_rates",
    "run_summary",
    "split_runs",
    "trace_summary",
]
