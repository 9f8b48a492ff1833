"""The audited clock chokepoint of the telemetry subsystem.

Every timestamp in `repro.obs` — and in the simulator/pool/scheduler hooks
that feed it — flows through this module, for two reasons:

* **Determinism auditing.**  The determinism linter forbids wall-clock
  reads in library code (REP104) because timestamps leaking into seeds,
  filenames or result files break byte-identical artifacts.  Telemetry
  legitimately needs time, so this file is the single whitelisted reader;
  inside ``src/repro/obs`` the stricter REP110 additionally flags *any*
  direct ``time`` module call that bypasses it.  One small audited surface
  instead of clock reads scattered through consumers.
* **Two clocks, two jobs.**  :func:`monotonic` (``time.perf_counter``) is
  for durations and event ordering — high resolution, never steps
  backwards, shared by the processes of one host, meaningless across hosts
  or runs.  :func:`wall_time` (``time.time``) is for human-facing
  timestamps in telemetry artifacts only; it must never feed simulation
  state, seeds or result files.

Telemetry is write-only with respect to simulation results: nothing read
from these clocks may influence counts, and the telemetry-on/off
byte-identity test (``tests/test_obs_telemetry.py``) pins that contract.
"""

from __future__ import annotations

import time
from datetime import datetime, timezone

__all__ = ["monotonic", "wall_time", "wall_iso"]


def monotonic() -> float:
    """Seconds on a monotonic high-resolution clock (for durations).

    Values compare across the processes of one host — CPython's
    ``time.perf_counter`` reads a system-wide clock (``CLOCK_MONOTONIC`` on
    Linux) — so a pool worker's shard start stamp can be subtracted from
    the parent's dispatch stamp.  The epoch is undefined, which is why
    event records carry a ``seq`` number for cross-run ordering.
    """
    return time.perf_counter()


def wall_time() -> float:
    """Seconds since the Unix epoch (for human-facing telemetry fields).

    Confined to telemetry artifacts (``events.jsonl`` / ``metrics.json``);
    wall-clock values must never reach seeds, filenames or result files.
    """
    return time.time()


def wall_iso(timestamp: float | None = None) -> str:
    """``timestamp`` (default: :func:`wall_time` now) as ISO-8601 UTC."""
    if timestamp is None:
        timestamp = wall_time()
    stamp = datetime.fromtimestamp(timestamp, tz=timezone.utc)
    return stamp.isoformat(timespec="seconds").replace("+00:00", "Z")
