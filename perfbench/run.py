#!/usr/bin/env python3
"""C2 decoder benchmark: end-to-end metrics, or per-layer metrics when traced.

Run from the repository root::

    python3 perfbench/run.py --workload c2-nms-serial --seed 1 --seconds 45 --trace 0

Workloads: ``c2-nms-serial``, ``c2-fig4-campaign`` (the two in
``BENCHMARK.json``) and ``c2-quantized-allzero`` (see
``perfbench/workloads.py`` and ``perfbench/NOTES.md``).  A run

1. with ``--trace 0``, measures set-up ``1 + SETUP_PROBES`` times in fresh
   processes (the first warms the benchmark-owned encoder cache and is
   discarded);
2. sets the workload up in this process and runs one untimed warm-up shard;
3. with ``--trace 0`` repeats rounds of the workload, with ``--trace 1``
   alternates untraced and traced rounds, as long as the next round (or
   pair) is expected to end within ``--seconds`` seconds;
4. checks every round's counts against the golden counts
   (``perfbench/golden.py``), prints one line per metric, then the result as
   one JSON object on the last line.

It exits 1 when any count mismatched or a round raised, 2 when run outside a
repository checkout, and 3 when the campaign's pool would need more CPUs than
``nproc``.  ``--smoke`` runs the same code on the scaled C2 twin (circulant
63) for a few frames; ``perfbench/selftest.py`` drives it.
"""

from __future__ import annotations

import os
import sys
import time

# Pinned before numpy loads, so neither this process, nor the set-up probes,
# nor the forked pool workers use more than one BLAS/OpenMP thread: the
# headline is frames per second per core.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: Everything the benchmark writes: encoder cache, recorded golden counts,
#: campaign stores and worker spans.
CACHE = ROOT / ".perfbench_cache"
SETUP_PROBES = 10
PROBE_TIMEOUT_S = 120

END_TO_END = {
    "frames_per_s": "frames/s",
    "frames_per_cpu_s": "frames/cpu-s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="scaled C2 twin, few frames")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def cpu_seconds() -> tuple[float, float]:
    """CPU seconds of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """The larger of this process's peak RSS and its largest child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ---------------------------------------------------------------------- #
def setup_probe(spec: dict) -> int:
    """Child side of a set-up measurement: set up, report, exit."""
    from perfbench import workloads

    scratch = Path(tempfile.mkdtemp(prefix="probe-", dir=CACHE))
    try:
        workloads.setup(spec, scratch)
        print(json.dumps({"ready": True}), flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


def measure_setup(args) -> list[float]:
    """Wall seconds from process start to set-up done, per fresh process."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
    ] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(1 + SETUP_PROBES):
        started = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
            try:
                line = child.stdout.readline()
                elapsed = time.perf_counter() - started
                child.wait(timeout=PROBE_TIMEOUT_S)
            except BaseException:
                child.kill()
                child.wait()
                raise
        if child.returncode != 0 or not line.strip():
            raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
        times.append(elapsed)
    return times[1:]


# ---------------------------------------------------------------------- #
@dataclass
class Measured:
    """One round: timings, counts and the golden gate's verdict."""

    wall: float
    cpu: float
    children_cpu: float
    frames: int
    attempted: int
    failed: int
    result: object | None


def measure_round(state, spec, golden, key, *, traced=False) -> Measured:
    from perfbench.workloads import shards_per_point

    cpu0, kids0 = cpu_seconds()
    started = time.perf_counter()
    try:
        result = state.run_round(traced=traced)
    except Exception:
        # A round that raises is a failed operation, not the end of the run.
        traceback.print_exc()
        result = None
    wall = time.perf_counter() - started
    cpu1, kids1 = cpu_seconds()
    if result is None:
        planned = len(spec["ebn0"]) * shards_per_point(spec, spec["frames_per_point"])
        return Measured(wall, cpu1 - cpu0, kids1 - kids0, 0, planned, planned, None)
    shards = [shards_per_point(spec, p["frames"]) for p in result.points]
    bad = golden.mismatches(key, result.points)
    for index in bad:
        print(f"golden-count mismatch: {key} point {index}", file=sys.stderr)
    failed = sum(shards[i] if i < len(shards) else 1 for i in bad)
    return Measured(
        wall, cpu1 - cpu0 + kids1 - kids0, kids1 - kids0, result.frames,
        sum(shards), failed, result,
    )


def another_round(started: float, last_wall: float | None, seconds: float) -> bool:
    """Whether a round as long as the last one still ends within ``seconds``.

    The first round always runs; a run never overshoots its time by a round.
    """
    return last_wall is None or time.perf_counter() - started + last_wall <= seconds


def untraced_run(state, spec, golden, key, seconds) -> tuple[list[Measured], dict]:
    rounds: list[Measured] = []
    started = time.perf_counter()
    while another_round(started, rounds[-1].wall if rounds else None, seconds):
        measured = measure_round(state, spec, golden, key)
        rounds.append(measured)
        print(f"  round {len(rounds)}: {measured.frames} frames in {measured.wall:.3f} s, "
              f"{measured.cpu:.3f} cpu-s")
    good = [r for r in rounds if r.result is not None] or rounds
    metrics = {
        "frames_per_s": statistics.median(r.frames / r.wall for r in good),
        "frames_per_cpu_s": statistics.median(r.frames / max(r.cpu, 1e-9) for r in good),
    }
    return rounds, metrics


def setup_layer_times(spec) -> dict[str, float]:
    """Median of three timed ``codes`` builds and ``SystematicEncoder`` inits."""
    from perfbench.workloads import build_code
    from repro.encode.systematic import SystematicEncoder

    builds, inits = [], []
    for _ in range(3):
        started = time.perf_counter()
        code = build_code(spec)
        builds.append(time.perf_counter() - started)
        if not spec["all_zero"]:
            started = time.perf_counter()
            SystematicEncoder(code)
            inits.append(time.perf_counter() - started)
    return {
        "codes.build_s": statistics.median(builds),
        "encode.init_s": statistics.median(inits) if inits else 0.0,
    }


def traced_run(state, spec, golden, key, seconds, run_dir) -> tuple[list[Measured], dict]:
    """Alternate untraced and traced rounds; derive the per-layer metrics.

    The spans of every traced round (one list per process) are written once,
    at the end, to ``.perfbench_cache/traces/``.
    """
    from perfbench import layers
    from perfbench.spans import Tracer, read_worker_spans

    setup = setup_layer_times(spec)
    tracer = Tracer()
    rounds: list[Measured] = []
    plain_walls, traced_walls = [], []
    span_lists, events = [], []
    worker_cpu = counted = 0
    started = time.perf_counter()
    while another_round(started, plain_walls[-1] + traced_walls[-1] if traced_walls else None,
                        seconds):
        plain = measure_round(state, spec, golden, key)
        tracer.worker_dir = Path(tempfile.mkdtemp(prefix="spans-", dir=run_dir))
        layers.install(tracer)
        try:
            traced = measure_round(state, spec, golden, key, traced=True)
        finally:
            tracer.remove()
        span_lists.append(tracer.take())
        span_lists.extend(read_worker_spans(tracer.worker_dir))
        rounds += [plain, traced]
        plain_walls.append(plain.wall)
        traced_walls.append(traced.wall)
        worker_cpu += traced.children_cpu
        counted += traced.frames
        if traced.result is not None:
            events.extend(traced.result.events)
    metrics = layers.derive(
        span_lists,
        rounds=len(traced_walls),
        num_edges=state.num_edges,
        counted_frames=counted,
        shard_events=events,
        workers=int(spec.get("workers", 0)),
        worker_cpu_s=worker_cpu,
        setup=setup,
        overhead_frac=statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0,
    )
    trace_path = CACHE / "traces" / (key.replace("/", "-") + ".json")
    trace_path.parent.mkdir(exist_ok=True)
    trace_path.write_text(json.dumps(span_lists))
    print(f"  spans of {len(traced_walls)} traced rounds written to {trace_path.relative_to(ROOT)}")
    return rounds, metrics


# ---------------------------------------------------------------------- #
def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # A benchmark-owned encoder cache: set-up never depends on ~/.cache, and
    # the first set-up probe warms it before anything is timed.
    os.environ["REPRO_ENCODER_CACHE"] = str(CACHE / "encoders")
    # Temporary files of this process and its children stay in the checkout.
    (CACHE / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(CACHE / "tmp")
    from perfbench import layers, workloads
    from perfbench.golden import GoldenCounts, golden_key

    spec = workloads.make_spec(args.workload, args.seed, smoke=args.smoke)
    if args.setup_probe:
        return setup_probe(spec)

    nproc = len(os.sched_getaffinity(0))
    environment = " ".join(f"{var}={os.environ[var]}" for var in THREAD_VARS)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={nproc} {environment}")
    if spec.get("workers", 0) > nproc:
        print(f"skip: {args.workload} needs {spec['workers']} pool workers, nproc={nproc}")
        return 3

    setup_times = [] if args.trace else measure_setup(args)
    golden = GoldenCounts(CACHE / "golden_learned.json")
    key = golden_key(spec, args.seed)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=CACHE))
    try:
        state = workloads.setup(spec, run_dir / "stores")
        state.warm_up()
        if args.trace:
            rounds, metrics = traced_run(state, spec, golden, key, args.seconds, run_dir)
            units = layers.METRICS
        else:
            rounds, metrics = untraced_run(state, spec, golden, key, args.seconds)
            metrics["setup_s"] = statistics.median(setup_times)
            metrics["peak_rss_mb"] = peak_rss_mb()
            units = END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"  rounds {len(rounds)}, frames per round {rounds[0].frames}")
    for name, unit in units.items():
        print(f"  {name:<32} {metrics[name]:.6g} {unit}")
    print(f"  {'ops_failed_frac':<32} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} shards)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
