"""Channel-pipeline throughput: frames/second per registered channel.

The channel model sits in the Monte-Carlo hot path — every simulated frame
passes through ``ChannelPipeline.llrs`` before the decoder runs — so a new
registered channel must not silently cost an order of magnitude.  This
benchmark drives the *same* code, decoder, shard schedule and seeds through
every registered channel kind and reports end-to-end frames/second plus the
channel-only LLR-generation rate, giving future channel additions a
recorded perf baseline (``benchmarks/output/channel_pipeline.txt``).

The shard schedule is pinned (fixed frame budget, no early stopping, no
adaptive batching) so the numbers measure the pipeline, not the stopping
rule: every channel simulates exactly the same number of frames.  Each
simulator runs one untimed batch before its timed point, so no row of the
table pays a process's or a code's one-time set-up.  The channel-only rate,
like the headline ``frames_per_second`` (the AWGN point end to end), is the
median of :data:`REPEATS` timed repeats: a single point of the scaled code
takes about 50 ms, and one such timing spread by ±12 % between runs of one
tree.

The run also measures the cost of telemetry's stage probe on the paper's
workload — identical full-C2 simulations at the shape of perfbench's
``c2-nms-serial`` with and without a
:class:`~repro.obs.probe.StageAccumulator` attached — asserts the
overhead stays within 3% (the median of per-round on/off ratios over
interleaved rounds), and appends frames/s plus the measured overhead to the
``BENCH_channel_pipeline.json`` trajectory at the repo root.
"""

from __future__ import annotations

import dataclasses
import statistics
import time

import numpy as np

from scale_config import DEFAULT_SCALED_CIRCULANT, full_scale
from trajectory import record as record_trajectory

from repro.codes import build_ccsds_c2_code, build_scaled_ccsds_code
from repro.obs.probe import StageAccumulator
from repro.registry import component_names
from repro.sim import MonteCarloSimulator, SimulationConfig
from repro.sim.campaign import ChannelSpec, DecoderSpec
from repro.utils.formatting import format_table

EBN0_DB = 4.0

#: Timed repeats behind each median rate of the channel table and headline.
REPEATS = 15

#: Hard ceiling on the telemetry probe's hot-path cost (fraction of the
#: probe-free runtime).  The disabled path is one attribute check per
#: batch; the enabled path adds four monotonic clock reads per batch.
MAX_TELEMETRY_OVERHEAD = 0.03

#: The probe-overhead gate measures the workload the probe instruments:
#: the full C2 code at the shape of perfbench's ``c2-nms-serial`` (nms,
#: alpha 1.25, 18 iterations, random data, 64-frame batches, 128 frames
#: per timed point), whatever the scale of the per-channel table.
OVERHEAD_DECODER = DecoderSpec("nms", 18, {"alpha": 1.25})
OVERHEAD_BATCH_FRAMES = 64
OVERHEAD_FRAMES = 128
#: Interleaved rounds of the gate, each running the point once without and
#: once with the probe: the median of their ratios is the measured overhead.
OVERHEAD_ROUNDS = 61

def _fixed_schedule_config(frames: int, batch: int) -> SimulationConfig:
    """A config whose shard schedule cannot stop early or adapt."""
    return SimulationConfig(
        max_frames=frames,
        target_frame_errors=frames + 1,  # never triggers
        batch_frames=batch,
        all_zero_codeword=True,
    )


def _warm_up(simulator, batch: int) -> None:
    """One untimed batch on noise no timed point uses.

    A timed point then excludes the one-time costs of a process and a
    code: building the native decoder library on a fresh checkout, the
    code's rank behind ``sigma_for`` and first-touch allocations.
    """
    simulator.run_batch(
        batch, simulator.sigma_for(EBN0_DB), rng=np.random.default_rng(2**20)
    )


def _median_seconds(fn, repeats: int = REPEATS) -> float:
    """The median wall time of ``repeats`` calls of ``fn``."""
    seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds)


def _paired_seconds(fn_a, fn_b, rounds: int) -> tuple[list[float], list[float]]:
    """Wall times of two functions over ``rounds`` interleaved rounds.

    Every round runs both, the side that goes first alternating, so slow
    drift of the host (thermal throttling, noisy-neighbour load) hits both
    sides of a round alike and cancels in that round's ratio.  Measuring
    the two sides in separate blocks instead routinely "measures" a few
    percent of pure drift.
    """
    times_a: list[float] = []
    times_b: list[float] = []
    sides = ((fn_a, times_a), (fn_b, times_b))
    for index in range(rounds):
        for fn, times in sides if index % 2 == 0 else sides[::-1]:
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
    return times_a, times_b


def _measure_probe_overhead() -> dict:
    """The probe's overhead on one C2 point: the median of per-round on/off ratios.

    One simulator runs both sides, its ``probe`` attribute switched between
    runs, with a fresh ``SeedSequence`` per run: the counts must be
    identical (the probe is write-only).  A one-sided spike moves one
    ratio of :data:`OVERHEAD_ROUNDS`, so the median stays put, where a
    ratio of two minima rests on the two luckiest runs.
    """
    code = build_ccsds_c2_code()
    config = dataclasses.replace(
        _fixed_schedule_config(OVERHEAD_FRAMES, OVERHEAD_BATCH_FRAMES),
        all_zero_codeword=False,
    )
    simulator = MonteCarloSimulator(
        code, OVERHEAD_DECODER.build(code), config=config, rng=0,
        pipeline=ChannelSpec(kind="awgn").build(),
    )
    accumulator = StageAccumulator()

    def run_point(probe):
        simulator.probe = probe
        return simulator.run_point(EBN0_DB, rng=np.random.SeedSequence(7))

    point_off, point_on = run_point(None), run_point(accumulator)  # warm-up
    assert point_on.frames == OVERHEAD_FRAMES
    assert (point_on.frames, point_on.frame_errors, point_on.ber, point_on.fer) == (
        point_off.frames, point_off.frame_errors, point_off.ber, point_off.fer
    ), "stage probe changed the measured counts"
    seconds_off, seconds_on = _paired_seconds(
        lambda: run_point(None), lambda: run_point(accumulator), OVERHEAD_ROUNDS
    )
    ratio = statistics.median(on / off for off, on in zip(seconds_off, seconds_on))
    return {
        "code": "ccsds-c2",
        "block_length": code.block_length,
        "decoder": OVERHEAD_DECODER.as_dict(),
        "random_data": True,
        "batch_frames": OVERHEAD_BATCH_FRAMES,
        "frames_per_point": OVERHEAD_FRAMES,
        "rounds": OVERHEAD_ROUNDS,
        "seconds_off": statistics.median(seconds_off),
        "seconds_on": statistics.median(seconds_on),
        "overhead_fraction": max(ratio - 1.0, 0.0),
        "budget_fraction": MAX_TELEMETRY_OVERHEAD,
    }


def test_channel_pipeline_throughput(benchmark, report_sink):
    if full_scale():
        code = build_ccsds_c2_code()
        frames, batch = 64, 16
    else:
        code = build_scaled_ccsds_code(DEFAULT_SCALED_CIRCULANT)
        frames, batch = 400, 50
    config = _fixed_schedule_config(frames, batch)
    decoder_spec = DecoderSpec("nms", 10)

    rows = []
    results = {}
    channel_rates: dict[str, dict[str, float]] = {}
    for kind in component_names("channel"):
        pipeline = ChannelSpec(kind=kind).build()

        # Channel-only rate: modulate + impair + LLR, no decoding.
        bits = np.zeros((batch, code.block_length), dtype=np.uint8)
        rng = np.random.default_rng(0)
        pipeline.llrs(bits, 0.5, rng)
        channel_only = batch / _median_seconds(lambda: pipeline.llrs(bits, 0.5, rng))

        simulator = MonteCarloSimulator(
            code, decoder_spec.build(code), config=config, rng=0, pipeline=pipeline
        )
        _warm_up(simulator, batch)
        start = time.perf_counter()
        point = simulator.run_point(EBN0_DB, rng=np.random.SeedSequence(7))
        elapsed = time.perf_counter() - start
        assert point.frames == frames  # the pinned schedule ran in full
        results[kind] = point
        channel_rates[kind] = {
            "frames_per_second": point.frames / elapsed,
            "channel_only_frames_per_second": channel_only,
            "ber": float(point.ber),
        }
        rows.append([
            kind,
            f"{point.frames / elapsed:.1f}",
            f"{channel_only:.0f}",
            f"{point.ber:.3e}",
        ])

    # The headline: the AWGN point end to end, the median of REPEATS timed
    # runs; one more runs through the harness for its JSON archive.
    awgn_pipeline = ChannelSpec(kind="awgn").build()
    simulator = MonteCarloSimulator(
        code, decoder_spec.build(code), config=config, rng=0, pipeline=awgn_pipeline
    )
    _warm_up(simulator, batch)

    def awgn_point():
        return simulator.run_point(EBN0_DB, rng=np.random.SeedSequence(7))

    headline = frames / _median_seconds(awgn_point)
    benchmark.pedantic(awgn_point, rounds=1, iterations=1)

    text = format_table(
        ["channel", "frames/s (end-to-end, one run)",
         f"frames/s (channel only, median of {REPEATS})", f"BER @ {EBN0_DB:g} dB"],
        rows,
        title=(
            f"Channel pipeline throughput — ({code.block_length}, "
            f"{code.dimension}) code, nms it10, {frames} frames/point, "
            "fixed shard schedule"
        ),
    )
    probe = _measure_probe_overhead()
    overhead = probe["overhead_fraction"]

    text += (
        f"\n\nHeadline: AWGN end to end, median of {REPEATS} runs: "
        f"{headline:.1f} frames/s."
        "\n\nSame seeds and shard schedule for every channel; BER differences "
        "are the channels' (soft AWGN best, hard-decision BSC ~2 dB worse), "
        "not noise in the harness."
        f"\n\nTelemetry stage probe (C2 ({probe['block_length']} bits), "
        f"{OVERHEAD_DECODER.kind} alpha {OVERHEAD_DECODER.params['alpha']:g} "
        f"it{OVERHEAD_DECODER.iterations}, random data, {OVERHEAD_FRAMES} frames in "
        f"{OVERHEAD_BATCH_FRAMES}-frame batches @ {EBN0_DB:g} dB, AWGN, "
        f"median of {OVERHEAD_ROUNDS} interleaved rounds): "
        f"{probe['seconds_off']:.3f}s off vs {probe['seconds_on']:.3f}s on, "
        f"{100.0 * overhead:.2f}% overhead by the median on/off ratio "
        f"(budget {100.0 * MAX_TELEMETRY_OVERHEAD:.0f}%), counts identical."
    )
    report_sink("channel_pipeline", text)

    record_trajectory("channel_pipeline", {
        "ebn0_db": EBN0_DB,
        "frames_per_point": frames,
        "batch_frames": batch,
        "block_length": code.block_length,
        "channels": channel_rates,
        "frames_per_second": headline,
        "repeats": REPEATS,
        "telemetry_overhead": probe,
    })

    # Physics sanity: hard decisions cannot beat soft ones at the same Eb/N0.
    assert results["bsc"].ber >= results["awgn"].ber
    assert overhead <= MAX_TELEMETRY_OVERHEAD, (
        f"telemetry probe costs {100.0 * overhead:.2f}% "
        f"(> {100.0 * MAX_TELEMETRY_OVERHEAD:.0f}%) in the hot path"
    )
