"""Campaign scheduling — one shared worker pool vs a pool per sweep.

The campaign layer's performance claim: running a grid of decoder
configurations through a single :class:`~repro.sim.parallel.SharedWorkerPool`
amortizes pool start-up and per-worker simulator construction across every
configuration and lets early-stopping points of one curve hand their workers
to the others, instead of each sweep paying its own pool and leaving cores
idle at its tail.  This benchmark times both strategies on the same
four-configuration grid and asserts the shared-pool counts are bit-identical
to standalone sweeps seeded with the campaign's per-experiment streams.

A third timed run repeats the shared-pool campaign with telemetry enabled
(event log with per-shard stage profiling) and asserts the curve
files come out **byte-identical** to the telemetry-off store — the
write-only contract, measured where it matters.  Wall times, campaign
frames/s and the telemetry overhead fraction are appended to the
``BENCH_campaign_pool.json`` trajectory at the repo root.
"""

from __future__ import annotations

import os
import time

import numpy as np

from scale_config import DEFAULT_SCALED_CIRCULANT, full_scale
from trajectory import record as record_trajectory

from repro.sim import EbN0Sweep, SimulationConfig
from repro.sim.campaign import (
    CampaignScheduler,
    CampaignSpec,
    CodeSpec,
    DecoderSpec,
    ExperimentSpec,
    ResultStore,
)
from repro.utils.formatting import format_table

WORKERS = 4
EBN0_GRID = (3.0, 3.5, 4.0)


def _spec() -> CampaignSpec:
    if full_scale():
        code = CodeSpec(family="ccsds-c2")
        config = SimulationConfig(
            max_frames=400, target_frame_errors=40, batch_frames=8,
            all_zero_codeword=True, adaptive_batch=True,
        )
    else:
        code = CodeSpec(family="scaled", circulant=DEFAULT_SCALED_CIRCULANT)
        config = SimulationConfig(
            max_frames=400, target_frame_errors=60, batch_frames=25,
            all_zero_codeword=True, adaptive_batch=True,
        )
    decoders = [
        ("nms-a1.25", DecoderSpec("nms", 18, params={"alpha": 1.25})),
        ("nms-a1.5", DecoderSpec("nms", 18, params={"alpha": 1.5})),
        ("min-sum", DecoderSpec("min-sum", 18)),
        ("offset", DecoderSpec("offset", 18, params={"beta": 0.15})),
    ]
    return CampaignSpec(
        name="bench-shared-pool",
        seed=42,
        ebn0=EBN0_GRID,
        config=config,
        experiments=[
            ExperimentSpec(label=label, code=code, decoder=decoder)
            for label, decoder in decoders
        ],
    )


def test_campaign_shared_pool_vs_pool_per_sweep(benchmark, report_sink, tmp_path):
    spec = _spec()
    code = spec.experiments[0].code.build()

    def run_pool_per_sweep():
        curves = {}
        children = np.random.SeedSequence(spec.seed).spawn(len(spec.experiments))
        for index, experiment in enumerate(spec.experiments):
            sweep = EbN0Sweep(
                code,
                experiment.decoder.factory(code),
                config=spec.config,
                rng=children[index],
                workers=WORKERS,
            )
            curves[experiment.label] = sweep.run(spec.ebn0, label=experiment.label)
        return curves

    def run_shared_pool(directory="shared", telemetry=False):
        store = ResultStore.create(tmp_path / directory, spec, fresh=True)
        return CampaignScheduler(
            spec, store, workers=WORKERS, telemetry=telemetry
        ).run()

    start = time.perf_counter()
    per_sweep_curves = run_pool_per_sweep()
    per_sweep_seconds = time.perf_counter() - start

    start = time.perf_counter()
    shared_curves = benchmark.pedantic(run_shared_pool, rounds=1, iterations=1)
    shared_seconds = time.perf_counter() - start

    # The same campaign once more with full telemetry: the event log and
    # per-shard stage profiling on.
    start = time.perf_counter()
    run_shared_pool("shared-telemetry", telemetry=True)
    telemetry_seconds = time.perf_counter() - start
    telemetry_overhead = (
        max(telemetry_seconds - shared_seconds, 0.0) / shared_seconds
        if shared_seconds else 0.0
    )

    # Write-only contract, measured end to end: telemetry must not change a
    # single byte of the persisted curves.
    labels = [experiment.label for experiment in spec.experiments]
    for label in labels:
        plain = ResultStore.open(tmp_path / "shared").curve_path(label)
        profiled = ResultStore.open(tmp_path / "shared-telemetry").curve_path(label)
        assert plain.read_bytes() == profiled.read_bytes(), (
            f"telemetry changed the persisted curve of {label!r}"
        )

    total_frames = sum(
        point.frames for curve in shared_curves.values() for point in curve.points
    )
    speedup = per_sweep_seconds / shared_seconds if shared_seconds else float("inf")
    cores = os.cpu_count() or 1
    rows = [
        [f"pool per sweep ({len(spec.experiments)} pools)",
         f"{per_sweep_seconds:.2f}", "1.00"],
        [f"one shared pool ({WORKERS} workers)",
         f"{shared_seconds:.2f}", f"{speedup:.2f}"],
        ["one shared pool + telemetry",
         f"{telemetry_seconds:.2f}",
         f"{per_sweep_seconds / telemetry_seconds:.2f}" if telemetry_seconds else "-"],
    ]
    text = format_table(
        ["strategy", "wall clock (s)", "speedup"],
        rows,
        title=(
            f"{len(spec.experiments)}-configuration campaign, "
            f"{len(EBN0_GRID)} Eb/N0 points each ({cores} CPU cores available)"
        ),
    )
    text += (
        "\n\nDeterminism: every campaign curve matches its standalone sweep "
        "bit for bit (same per-experiment seed streams), and the "
        "telemetry-on rerun wrote byte-identical curve files "
        f"({100.0 * telemetry_overhead:.1f}% wall-clock overhead)."
    )
    report_sink("campaign_shared_pool", text)

    record_trajectory("campaign_pool", {
        "workers": WORKERS,
        "experiments": len(spec.experiments),
        "ebn0_points_per_experiment": len(EBN0_GRID),
        "total_frames": int(total_frames),
        "pool_per_sweep_seconds": per_sweep_seconds,
        "shared_pool_seconds": shared_seconds,
        "shared_pool_speedup": speedup,
        "frames_per_second": total_frames / shared_seconds if shared_seconds else None,
        "telemetry_overhead": {
            "seconds_off": shared_seconds,
            "seconds_on": telemetry_seconds,
            "overhead_fraction": telemetry_overhead,
            "curves_byte_identical": True,
        },
    })

    # The scheduling strategy must never change the physics.
    for label, curve in per_sweep_curves.items():
        assert shared_curves[label].points == curve.points, label
    # The wall-clock claim needs real cores to back it.
    if cores >= WORKERS:
        assert speedup >= 1.0, (
            f"shared pool slower than pool-per-sweep: {speedup:.2f}x"
        )
