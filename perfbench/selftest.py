#!/usr/bin/env python3
"""Self-test of the benchmark on the scaled C2 twin (circulant 63).

Run from the repository root::

    python3 perfbench/selftest.py

It runs every workload in smoke mode, untraced and traced, and checks that

* each run exits 0, reports ``correct`` with no failed shard, and its result
  names every metric of ``BENCHMARK.json`` (end-to-end or per-layer) with
  the unit given there;
* ``encode.busy_s`` is 0 on the all-zero workload and the ``pool.*`` and
  ``store.*`` metrics are non-zero only on the campaign workload;
* the golden-count gate fails a run whose stored counts were tampered with:
  the run exits 1, reports ``correct: false`` and counts the shard as failed.

Traced and untraced rounds are checked against the same golden counts, so a
passing traced run also shows that the instrumentation changed no count.
Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.golden import GoldenCounts, golden_key  # noqa: E402
from perfbench.run import CACHE  # noqa: E402
from perfbench.workloads import WORKLOADS, make_spec  # noqa: E402

#: A seed no benchmark run uses, so tampering with its counts is harmless.
TAMPER_SEED = 424242
CAMPAIGN_ONLY = ("pool.", "store.", "scheduler.")


def run(workload: str, seed: int, trace: int) -> tuple[int, dict | None]:
    command = [
        sys.executable, str(HERE / "run.py"), "--smoke", "--workload", workload,
        "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return done.returncode, None


def check_run(workload: str, trace: int, declared: dict[str, str]) -> list[str]:
    code, result = run(workload, 1, trace)
    where = f"{workload} trace={trace}"
    if code != 0 or result is None:
        return [f"{where}: exit code {code}, result {result!r}"]
    problems = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: not correct: {result}")
    metrics = result["metrics"]
    for name, unit in declared.items():
        if name not in metrics:
            problems.append(f"{where}: metric {name} missing")
        elif metrics[name]["unit"] != unit:
            problems.append(f"{where}: {name} in {metrics[name]['unit']}, declared {unit}")
    if trace:
        campaign = WORKLOADS[workload]["runner"] == "campaign"
        for name, entry in metrics.items():
            if name.startswith(CAMPAIGN_ONLY) and (entry["value"] != 0) != campaign:
                problems.append(f"{where}: {name} = {entry['value']}")
        if WORKLOADS[workload]["all_zero"] and metrics["encode.busy_s"]["value"] != 0:
            problems.append(f"{where}: encode.busy_s is not 0 on all-zero data")
    return problems


def check_tampered_gate() -> list[str]:
    workload = "c2-nms-serial"
    golden = GoldenCounts(CACHE / "golden_learned.json")
    key = golden_key(make_spec(workload, TAMPER_SEED, smoke=True), TAMPER_SEED)
    code, result = run(workload, TAMPER_SEED, 0)
    if code != 0 or golden.expected(key) is None:
        return [f"tamper: untampered run failed (exit {code})"]
    points = golden.expected(key)
    tampered = [dict(point) for point in points]
    tampered[0]["bit_errors"] += 1
    golden.record(key, tampered)
    try:
        code, result = run(workload, TAMPER_SEED, 0)
    finally:
        golden.record(key, points)
    if code != 1 or result is None or result["correct"] or not result["failed"]:
        return [f"tamper: gate passed a tampered count (exit {code}, result {result!r})"]
    return []


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        trace: {m["name"]: m["unit"] for m in declared[section]}
        for trace, section in ((0, "end_to_end"), (1, "per_layer"))
    }
    problems = []
    for workload in sorted(WORKLOADS):
        for trace in (0, 1):
            found = check_run(workload, trace, units[trace])
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    found = check_tampered_gate()
    print(f"golden-count gate on a tampered count: {'ok' if not found else 'FAILED'}")
    problems += found
    for problem in problems:
        print(f"  {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
