"""Differential test battery: batched decoding vs per-frame decoding.

Every message-passing decoder runs one compacting loop that drops frames
from its working set as they finish.  For each of the six base kinds, one
``decode_batch`` call must be bit-identical — hard decisions, posterior
LLRs, iteration counts and syndrome (converged) flags — to a per-frame
``decode`` loop (batch 1 through the same loop, where compaction has no
other row to mix up), for any stopping rule and any split of the frames
into batches on either side of the 32-row switch to the padded check-node
kernel.  Test ids read ``<kind>-batched``: the batched decode of ``<kind>``.

``REPRO_BATCHED_TEST_BATCH`` scales the large-batch test (CI runs a
dedicated leg at 4096).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.channel.awgn import ebn0_to_sigma
from repro.channel.llr import channel_llrs
from repro.channel.modulation import BPSKModulator
from repro.decode import (
    DecodeResult,
    FixedIterations,
    NormalizedMinSumDecoder,
    SyndromeStopping,
    decode_frames,
)
from repro.decode.graph import _PADDED_KERNEL_MIN_ROWS
from repro.registry import get_component
from repro.sim.campaign import ExperimentSpec, expand_grid
from repro.utils.bits import random_bits

#: Frames in the large-batch test; the CI ``batched-kernels`` leg sets 4096.
LARGE_BATCH = int(os.environ.get("REPRO_BATCHED_TEST_BATCH", "256"))

#: SNR operating points: hopeless (almost nothing converges), the waterfall
#: region (mixed convergence) and high SNR (everything converges quickly).
EBN0S = [1.0, 4.0, 7.0]

RATE = 14 / 16  # scaled CCSDS twin

#: The six base kinds of the message-passing decoders.
KINDS = ["layered", "min-sum", "nms", "offset", "quantized", "sum-product"]

#: Base kinds whose ``<kind>-batched`` name is kept as a registry alias.
ALIASED_KINDS = ["layered", "min-sum", "nms", "offset", "sum-product"]


def batched_id(kind: str) -> str:
    return f"{kind}-batched"


def noisy_llrs(encoder, n_frames, ebn0_db, rng):
    """Channel LLRs of ``n_frames`` random encoded frames at one Eb/N0."""
    info = random_bits((n_frames, encoder.dimension), rng)
    codewords = encoder.encode(info)
    sigma = ebn0_to_sigma(ebn0_db, RATE)
    symbols = BPSKModulator().modulate(codewords)
    received = symbols + rng.normal(0.0, sigma, size=symbols.shape)
    return codewords, channel_llrs(received, sigma)


def serial_per_frame(decoder, llrs) -> DecodeResult:
    """The reference result: one ``decode`` call per frame, stacked."""
    return DecodeResult.stack(
        [decoder.decode(llrs[index]) for index in range(llrs.shape[0])]
    )


def assert_results_identical(got: DecodeResult, want: DecodeResult):
    np.testing.assert_array_equal(got.bits, want.bits)
    np.testing.assert_array_equal(got.iterations, want.iterations)
    np.testing.assert_array_equal(got.converged, want.converged)
    # Bit-identical floats, not almost-equal: the kernels are shared.
    np.testing.assert_array_equal(got.posterior_llrs, want.posterior_llrs)


def build(kind: str, code, max_iterations: int):
    return get_component("decoder", kind).build(code, max_iterations=max_iterations)


class TestDifferentialBattery:
    """One ``decode_batch`` call vs a per-frame ``decode`` loop."""

    @pytest.mark.parametrize("ebn0_db", EBN0S)
    @pytest.mark.parametrize("kind", KINDS, ids=batched_id)
    def test_batched_matches_serial_per_frame(
        self, scaled_code, scaled_encoder, kind, ebn0_db, rng
    ):
        _, llrs = noisy_llrs(scaled_encoder, 33, ebn0_db, rng)
        decoder = build(kind, scaled_code, 8)
        assert_results_identical(
            decoder.decode_batch(llrs), serial_per_frame(decoder, llrs)
        )

    @pytest.mark.parametrize("max_iterations", [1, 3])
    @pytest.mark.parametrize("kind", KINDS, ids=batched_id)
    def test_iteration_caps(self, scaled_code, scaled_encoder, kind, max_iterations, rng):
        """Tight caps exercise the forced flush of still-active frames."""
        _, llrs = noisy_llrs(scaled_encoder, 16, 3.0, rng)
        decoder = build(kind, scaled_code, max_iterations)
        assert_results_identical(
            decoder.decode_batch(llrs), serial_per_frame(decoder, llrs)
        )

    @pytest.mark.parametrize("kind", KINDS, ids=batched_id)
    def test_batch_size_one(self, scaled_code, scaled_encoder, kind, rng):
        _, llrs = noisy_llrs(scaled_encoder, 1, 3.0, rng)
        decoder = build(kind, scaled_code, 8)
        got = decoder.decode_batch(llrs)
        assert got.bits.shape == llrs.shape
        assert_results_identical(got, serial_per_frame(decoder, llrs))

    @pytest.mark.parametrize("kind", KINDS, ids=batched_id)
    def test_ragged_chunking_is_invisible(self, scaled_code, scaled_encoder, kind, rng):
        """Chunks on both sides of the padded-kernel switch equal one call.

        This is the campaign situation: the final batch of a shard is
        usually ragged, and the stored counts must not depend on it.
        """
        wide, narrow = _PADDED_KERNEL_MIN_ROWS + 1, _PADDED_KERNEL_MIN_ROWS - 1
        sizes = [wide, narrow, 5, 1]
        _, llrs = noisy_llrs(scaled_encoder, sum(sizes), 4.0, rng)
        decoder = build(kind, scaled_code, 8)
        whole = decoder.decode_batch(llrs)
        bounds = np.cumsum([0, *sizes])
        chunked = DecodeResult.stack(
            [decoder.decode_batch(llrs[start:stop])
             for start, stop in zip(bounds, bounds[1:])]
        )
        assert_results_identical(chunked, whole)

    @pytest.mark.parametrize("kind", KINDS, ids=batched_id)
    def test_all_converged_mask(self, scaled_code, scaled_encoder, kind, rng):
        """Codeword-in batch: every frame stops at iteration 0."""
        info = random_bits((5, scaled_encoder.dimension), rng)
        codewords = scaled_encoder.encode(info)
        llrs = 8.0 * (1.0 - 2.0 * codewords.astype(np.float64))
        decoder = build(kind, scaled_code, 8)
        got = decoder.decode_batch(llrs)
        assert_results_identical(got, serial_per_frame(decoder, llrs))
        assert got.converged.all()
        assert np.array_equal(got.iterations, np.zeros(5, dtype=np.int64))
        np.testing.assert_array_equal(got.bits, codewords)

    @pytest.mark.parametrize("kind", KINDS, ids=batched_id)
    def test_none_converged_mask(self, scaled_code, scaled_encoder, kind, rng):
        """Hopeless SNR with a tight cap: nothing converges, all frames
        run the full budget and are flushed by the final iteration."""
        _, llrs = noisy_llrs(scaled_encoder, 8, -2.0, rng)
        decoder = build(kind, scaled_code, 2)
        got = decoder.decode_batch(llrs)
        assert_results_identical(got, serial_per_frame(decoder, llrs))
        assert not got.converged.any()
        assert np.array_equal(got.iterations, np.full(8, 2, dtype=np.int64))

    def test_large_batch_matches_serial(self, scaled_code, scaled_encoder, rng):
        """The headline path at scale (4096 frames on the CI leg)."""
        _, llrs = noisy_llrs(scaled_encoder, LARGE_BATCH, 4.0, rng)
        decoder = NormalizedMinSumDecoder(scaled_code, max_iterations=8)
        assert_results_identical(
            decoder.decode_batch(llrs), serial_per_frame(decoder, llrs)
        )

    @pytest.mark.parametrize("kind", KINDS, ids=batched_id)
    def test_decode_frames_dispatches_to_decode_batch(
        self, scaled_code, scaled_encoder, kind, rng
    ):
        _, llrs = noisy_llrs(scaled_encoder, 6, 4.0, rng)
        decoder = build(kind, scaled_code, 8)
        assert_results_identical(
            decode_frames(decoder, llrs), serial_per_frame(decoder, llrs)
        )


class TestStoppingRules:
    """Batched early termination honours every stopping criterion exactly."""

    def test_fixed_iterations_never_terminates_early(
        self, scaled_code, scaled_encoder, rng
    ):
        info = random_bits((4, scaled_encoder.dimension), rng)
        codewords = scaled_encoder.encode(info)
        llrs = 8.0 * (1.0 - 2.0 * codewords.astype(np.float64))
        decoder = NormalizedMinSumDecoder(
            scaled_code, max_iterations=5, stopping=FixedIterations()
        )
        got = decoder.decode_batch(llrs)
        assert_results_identical(got, serial_per_frame(decoder, llrs))
        assert np.array_equal(got.iterations, np.full(4, 5, dtype=np.int64))
        assert got.converged.all()

    def test_min_iterations_blocks_iteration_zero_stop(
        self, scaled_code, scaled_encoder, rng
    ):
        info = random_bits((4, scaled_encoder.dimension), rng)
        codewords = scaled_encoder.encode(info)
        llrs = 8.0 * (1.0 - 2.0 * codewords.astype(np.float64))
        decoder = NormalizedMinSumDecoder(
            scaled_code, max_iterations=5, stopping=SyndromeStopping(min_iterations=2)
        )
        got = decoder.decode_batch(llrs)
        assert_results_identical(got, serial_per_frame(decoder, llrs))
        assert np.array_equal(got.iterations, np.full(4, 2, dtype=np.int64))

    def test_mixed_stopping_at_waterfall(self, scaled_code, scaled_encoder, rng):
        """A mixed-convergence batch under min_iterations still matches."""
        _, llrs = noisy_llrs(scaled_encoder, 24, 4.0, rng)
        decoder = NormalizedMinSumDecoder(
            scaled_code, max_iterations=10, stopping=SyndromeStopping(min_iterations=3)
        )
        assert_results_identical(
            decoder.decode_batch(llrs), serial_per_frame(decoder, llrs)
        )


class TestIterationConvention:
    """Regression pins for the executed-iterations accounting convention.

    ``iterations`` counts message-passing (or flipping) iterations actually
    executed: the syndrome of the raw channel hard decisions is evaluated
    at *iteration 0*, so a frame whose received word is already a codeword
    records 0 under syndrome stopping — per frame and in a batch alike.
    """

    def test_codeword_in_records_zero_iterations(self, scaled_code, scaled_encoder, rng):
        info = random_bits(scaled_encoder.dimension, rng)
        codeword = scaled_encoder.encode(info)
        llrs = 8.0 * (1.0 - 2.0 * codeword.astype(np.float64))
        result = NormalizedMinSumDecoder(scaled_code, max_iterations=8).decode(llrs)
        assert bool(result.converged)
        assert int(result.iterations) == 0
        # The posterior of an iteration-0 stop is the channel LLRs.
        np.testing.assert_array_equal(result.posterior_llrs, llrs)

    def test_fixed_iterations_ignores_iteration_zero(
        self, scaled_code, scaled_encoder, rng
    ):
        info = random_bits(scaled_encoder.dimension, rng)
        codeword = scaled_encoder.encode(info)
        llrs = 8.0 * (1.0 - 2.0 * codeword.astype(np.float64))
        result = NormalizedMinSumDecoder(
            scaled_code, max_iterations=6, stopping=FixedIterations()
        ).decode(llrs)
        assert int(result.iterations) == 6

    def test_serial_and_batched_agree_on_the_convention(
        self, scaled_code, scaled_encoder, rng
    ):
        _, llrs = noisy_llrs(scaled_encoder, 12, 6.5, rng)
        decoder = build("nms", scaled_code, 8)
        got = decoder.decode_batch(llrs)
        want = serial_per_frame(decoder, llrs)
        np.testing.assert_array_equal(got.iterations, want.iterations)
        # High SNR: at least one frame should be clean straight off the
        # channel, otherwise this test is not exercising iteration 0.
        assert (got.iterations == 0).any()


class TestBatchedAliases:
    def test_batched_names_alias_their_base_kinds(self, scaled_code):
        """Each ``<kind>-batched`` name builds ``<kind>`` with its schema,
        and a spec naming an alias keeps that name in its kind and label."""
        for kind in ALIASED_KINDS:
            alias = get_component("decoder", f"{kind}-batched")
            base = get_component("decoder", kind)
            assert alias.builder is base.builder
            assert alias.params == base.params
            assert type(build(f"{kind}-batched", scaled_code, 2)) is base.builder
        (experiment,) = expand_grid({
            "codes": [{"family": "scaled", "circulant": 31}],
            "decoders": [{"kind": "nms-batched", "iterations": 8}],
        })
        assert experiment.label == "nms-batched-it8"
        again = ExperimentSpec.from_dict(experiment.as_dict())
        assert (again.decoder.kind, again.label) == ("nms-batched", "nms-batched-it8")
        assert again.as_dict() == experiment.as_dict()


class TestDecodeResultStack:
    def test_stack_roundtrip(self, scaled_code, scaled_encoder, rng):
        _, llrs = noisy_llrs(scaled_encoder, 3, 4.0, rng)
        decoder = NormalizedMinSumDecoder(scaled_code, max_iterations=4)
        stacked = serial_per_frame(decoder, llrs)
        assert stacked.bits.shape == llrs.shape
        assert stacked.iterations.shape == (3,)
        assert stacked.converged.dtype == bool
        assert stacked.iterations.dtype == np.int64

    def test_stack_empty_rejected(self):
        with pytest.raises(ValueError):
            DecodeResult.stack([])
