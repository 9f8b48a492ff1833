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
rule: every channel simulates exactly the same number of frames.

The run also measures the cost of telemetry's stage probe on the paper's
workload — identical full-C2 simulations at the shape of perfbench's
``c2-nms-serial`` with and without a
:class:`~repro.obs.probe.StageAccumulator` attached — asserts the
overhead stays within 3%, and appends frames/s plus the measured overhead
to the ``BENCH_channel_pipeline.json`` trajectory at the repo root.

Finally it pins the batched-decode speedup: the same pinned shard
schedule of AWGN LLRs for the rate-1/2 deep-space code decoded by one
normalized-min-sum decoder, once with one ``decode_batch`` call per shard
and once with one ``decode`` call per frame (the ``decode_frames``
fallback for decoders without ``decode_batch``).  Counts must be
bit-identical — the dispatch is a speed knob, never a physics knob — and
the frames/s ratio lands in the trajectory as ``batched_speedup``.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from scale_config import DEFAULT_SCALED_CIRCULANT, full_scale
from trajectory import record as record_trajectory

from repro.channel.awgn import ebn0_to_sigma
from repro.codes import build_ccsds_c2_code, build_deepspace_code, build_scaled_ccsds_code
from repro.decode import NormalizedMinSumDecoder
from repro.decode.base import decode_frames
from repro.obs.probe import StageAccumulator
from repro.registry import component_names
from repro.sim import MonteCarloSimulator, SimulationConfig
from repro.sim.campaign import ChannelSpec, DecoderSpec
from repro.utils.formatting import format_table

EBN0_DB = 4.0

#: Operating point of the batched-vs-serial measurement: the AR4JA-style
#: rate-1/2 deep-space code at moderate Eb/N0, where a realistic fraction
#: of frames converges early and the compacted working set has to earn its
#: keep against stragglers.
BATCHED_EBN0_DB = 3.5
BATCHED_RATE = 0.5
BATCHED_CIRCULANT = 8
BATCHED_BATCH_FRAMES = 256
BATCHED_MAX_ITERATIONS = 10

#: Engagement floor for the batched kernels on shared CI runners; the
#: recorded trajectory on a quiet host lands well above 10x.
MIN_BATCHED_SPEEDUP = 3.0

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

#: Channel parameters exercised per kind (defaults otherwise); block fading
#: uses one fade per circulant block to stress the repeat/reshape path.
CHANNEL_PARAMS = {
    "rayleigh": lambda circulant: {"block_length": circulant},
}


def _fixed_schedule_config(frames: int, batch: int) -> SimulationConfig:
    """A config whose shard schedule cannot stop early or adapt."""
    return SimulationConfig(
        max_frames=frames,
        target_frame_errors=frames + 1,  # never triggers
        batch_frames=batch,
        all_zero_codeword=True,
    )


def _paired_best_seconds(fn_a, fn_b, rounds: int = 7) -> tuple[float, float]:
    """Best-of-``rounds`` wall time for two functions, runs interleaved.

    Alternating A/B inside every round makes slow drift of the host
    (thermal throttling, noisy-neighbour load) hit both sides equally;
    taking the min discards the remaining one-sided spikes.  Measuring
    the two sides in separate blocks instead routinely "measures" a few
    percent of pure drift.
    """
    times_a, times_b = [], []
    for _ in range(rounds):
        start = time.perf_counter()
        fn_a()
        times_a.append(time.perf_counter() - start)
        start = time.perf_counter()
        fn_b()
        times_b.append(time.perf_counter() - start)
    return min(times_a), min(times_b)


class _SerialOnlyView:
    """A decoder seen through the per-frame protocol.

    Exposes ``decode`` and ``block_length`` but *not* ``decode_batch``, so
    :func:`repro.decode.base.decode_frames` takes the same per-frame loop
    it uses for third-party decoders without a batched entry point: one
    ``decode`` call per frame.
    """

    def __init__(self, decoder):
        self._decoder = decoder
        self.block_length = decoder.block_length

    def decode(self, llrs):
        return self._decoder.decode(llrs)


def _measure_probe_overhead() -> dict:
    """Interleaved best-of-7 seconds of one C2 point without and with the probe.

    One simulator runs both sides, its ``probe`` attribute switched between
    runs, with a fresh ``SeedSequence`` per run: the counts must be
    identical (the probe is write-only).
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
    seconds_off, seconds_on = _paired_best_seconds(
        lambda: run_point(None), lambda: run_point(accumulator)
    )
    return {
        "code": "ccsds-c2",
        "block_length": code.block_length,
        "decoder": OVERHEAD_DECODER.as_dict(),
        "random_data": True,
        "batch_frames": OVERHEAD_BATCH_FRAMES,
        "frames_per_point": OVERHEAD_FRAMES,
        "seconds_off": seconds_off,
        "seconds_on": seconds_on,
        "overhead_fraction": max(seconds_on - seconds_off, 0.0) / seconds_off,
        "budget_fraction": MAX_TELEMETRY_OVERHEAD,
    }


def _measure_batched_speedup() -> dict:
    """Batched vs per-frame min-sum frames/s on the same shard schedule.

    Both sides decode the *identical* pinned sequence of LLR shards with
    the same decoder object — same code, same iteration cap, same AWGN
    draws — so the ratio isolates the dispatch: one ``decode_batch`` call
    per ``(batch, n)`` shard versus one ``decode`` call per frame.  Counts
    are asserted bit-identical before anything is timed.
    """
    num_shards = 16 if full_scale() else 8
    code, _ = build_deepspace_code("1/2", BATCHED_CIRCULANT)
    batched = NormalizedMinSumDecoder(code, max_iterations=BATCHED_MAX_ITERATIONS)
    serial_view = _SerialOnlyView(batched)

    pipeline = ChannelSpec(kind="awgn").build()
    sigma = ebn0_to_sigma(BATCHED_EBN0_DB, BATCHED_RATE)
    rng = np.random.default_rng(2026)
    bits = np.zeros((BATCHED_BATCH_FRAMES, code.block_length), dtype=np.uint8)
    shards = [pipeline.llrs(bits, sigma, rng) for _ in range(num_shards)]

    # The dispatch must not change a single count on any shard.
    for shard in shards:
        batch_result = batched.decode_batch(shard)
        serial_result = decode_frames(serial_view, shard)
        np.testing.assert_array_equal(batch_result.bits, serial_result.bits)
        np.testing.assert_array_equal(
            batch_result.iterations, serial_result.iterations
        )
        np.testing.assert_array_equal(
            batch_result.converged, serial_result.converged
        )

    def run_serial():
        for shard in shards:
            decode_frames(serial_view, shard)

    def run_batched():
        for shard in shards:
            batched.decode_batch(shard)

    seconds_serial, seconds_batched = _paired_best_seconds(
        run_serial, run_batched, rounds=5
    )
    frames = num_shards * BATCHED_BATCH_FRAMES
    serial_fps = frames / seconds_serial
    batched_fps = frames / seconds_batched
    return {
        "code": "deepspace-1/2",
        "circulant_size": BATCHED_CIRCULANT,
        "block_length": code.block_length,
        "ebn0_db": BATCHED_EBN0_DB,
        "max_iterations": BATCHED_MAX_ITERATIONS,
        "shards": num_shards,
        "batch_frames": BATCHED_BATCH_FRAMES,
        "serial_frames_per_second": serial_fps,
        "batched_frames_per_second": batched_fps,
        "speedup": batched_fps / serial_fps,
    }


def test_channel_pipeline_throughput(benchmark, report_sink):
    if full_scale():
        code = build_ccsds_c2_code()
        frames, batch = 64, 16
    else:
        code = build_scaled_ccsds_code(DEFAULT_SCALED_CIRCULANT)
        frames, batch = 400, 50
    config = _fixed_schedule_config(frames, batch)
    circulant = code.circulant_size
    decoder_spec = DecoderSpec("nms", 10)

    rows = []
    results = {}
    channel_rates: dict[str, dict[str, float]] = {}
    for kind in component_names("channel"):
        params = CHANNEL_PARAMS.get(kind, lambda c: {})(circulant)
        pipeline = ChannelSpec(kind=kind, params=params).build()

        # Channel-only rate: modulate + impair + LLR, no decoding.
        bits = np.zeros((batch, code.block_length), dtype=np.uint8)
        rng = np.random.default_rng(0)
        start = time.perf_counter()
        reps = max(1, frames // batch)
        for _ in range(reps):
            pipeline.llrs(bits, 0.5, rng)
        channel_only = reps * batch / (time.perf_counter() - start)

        simulator = MonteCarloSimulator(
            code, decoder_spec.build(code), config=config, rng=0, pipeline=pipeline
        )
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
            str(params) if params else "-",
            f"{point.frames / elapsed:.1f}",
            f"{channel_only:.0f}",
            f"{point.ber:.3e}",
        ])

    # One representative timed run through the harness for the JSON archive.
    awgn_pipeline = ChannelSpec(kind="awgn").build()
    simulator = MonteCarloSimulator(
        code, decoder_spec.build(code), config=config, rng=0, pipeline=awgn_pipeline
    )
    benchmark.pedantic(
        lambda: simulator.run_point(EBN0_DB, rng=np.random.SeedSequence(7)),
        rounds=1, iterations=1,
    )

    text = format_table(
        ["channel", "params", "frames/s (end-to-end)",
         "frames/s (channel only)", f"BER @ {EBN0_DB:g} dB"],
        rows,
        title=(
            f"Channel pipeline throughput — ({code.block_length}, "
            f"{code.dimension}) code, nms it10, {frames} frames/point, "
            "fixed shard schedule"
        ),
    )
    probe = _measure_probe_overhead()
    overhead = probe["overhead_fraction"]
    batched = _measure_batched_speedup()

    text += (
        "\n\nSame seeds and shard schedule for every channel; BER differences "
        "are the channels' (soft AWGN best, hard-decision BSC ~2 dB worse, "
        "block fading worst), not noise in the harness."
        f"\n\nTelemetry stage probe (C2 ({probe['block_length']} bits), "
        f"{OVERHEAD_DECODER.kind} alpha {OVERHEAD_DECODER.params['alpha']:g} "
        f"it{OVERHEAD_DECODER.iterations}, random data, {OVERHEAD_FRAMES} frames in "
        f"{OVERHEAD_BATCH_FRAMES}-frame batches @ {EBN0_DB:g} dB, AWGN, "
        f"interleaved best of 7): "
        f"{probe['seconds_off']:.3f}s off vs {probe['seconds_on']:.3f}s on = "
        f"{100.0 * overhead:.2f}% overhead "
        f"(budget {100.0 * MAX_TELEMETRY_OVERHEAD:.0f}%), counts identical."
        f"\n\nBatched decoder dispatch (deepspace 1/2 circ "
        f"{BATCHED_CIRCULANT}, nms it{BATCHED_MAX_ITERATIONS}, "
        f"{batched['shards']} x {batched['batch_frames']}-frame shards @ "
        f"{BATCHED_EBN0_DB:g} dB, interleaved best of 5): "
        f"{batched['serial_frames_per_second']:.0f} frames/s per-frame vs "
        f"{batched['batched_frames_per_second']:.0f} frames/s batched = "
        f"{batched['speedup']:.1f}x, counts bit-identical."
    )
    report_sink("channel_pipeline", text)

    record_trajectory("channel_pipeline", {
        "ebn0_db": EBN0_DB,
        "frames_per_point": frames,
        "batch_frames": batch,
        "block_length": code.block_length,
        "channels": channel_rates,
        "frames_per_second": channel_rates["awgn"]["frames_per_second"],
        "telemetry_overhead": probe,
        "batched_decode": batched,
        "batched_speedup": batched["speedup"],
    })

    # Physics sanity: hard decisions cannot beat soft ones at the same Eb/N0.
    assert results["bsc"].ber >= results["awgn"].ber
    assert overhead <= MAX_TELEMETRY_OVERHEAD, (
        f"telemetry probe costs {100.0 * overhead:.2f}% "
        f"(> {100.0 * MAX_TELEMETRY_OVERHEAD:.0f}%) in the hot path"
    )
    # The batched kernels must actually engage — the committed trajectory
    # on a quiet host records well above 10x; this floor only guards
    # against the dispatch silently regressing to the per-frame loop.
    assert batched["speedup"] >= MIN_BATCHED_SPEEDUP, (
        f"batched min-sum only {batched['speedup']:.2f}x over per-frame "
        f"(floor {MIN_BATCHED_SPEEDUP:g}x)"
    )
