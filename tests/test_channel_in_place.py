"""The in-place BPSK/AWGN and BPSK/BSC channels: the same LLR bits as the generic path, in a reused array."""

import tracemalloc

import numpy as np
import pytest

import repro.channel.models as models
from repro.channel.models import AWGNChannelModel, BSCChannelModel
from repro.channel.modulation import BPSKModulator
from repro.channel.pipeline import ChannelPipeline, default_pipeline
from repro.codes import build_scaled_ccsds_code
from repro.codes.shortening import ShortenedCode
from repro.registry import get_component
from repro.sim import MonteCarloSimulator, SimulationConfig
from repro.sim.montecarlo import LLRBuffer
from repro.sim.parallel import PoolEntry, ShardRunner

#: The scaled C2 twin's frame length.
WIDTH = 496
SIGMAS = (0.35, 0.6, 0.85, 1.3)
BATCHES = (1, 7, 64)


def generic_llrs(bits, sigma, rng, amplitude):
    """The modulator and the channel model, each on its own: the reference."""
    symbols = BPSKModulator(amplitude).modulate(bits)
    return AWGNChannelModel().llrs(symbols, sigma, rng, amplitude=amplitude)


def generic_bsc_llrs(bits, sigma, rng, amplitude, crossover=None):
    """The modulator and the BSC model, each on its own: the reference."""
    symbols = BPSKModulator(amplitude).modulate(bits)
    return BSCChannelModel(crossover).llrs(symbols, sigma, rng, amplitude=amplitude)


def counted_calls(monkeypatch, channel_class):
    """The bit arrays that ``channel_class.bpsk_llrs`` is called on."""
    calls = []
    reference = channel_class.bpsk_llrs

    def counting(self, bits, *args, **kwargs):
        calls.append(np.shape(bits))
        return reference(self, bits, *args, **kwargs)

    monkeypatch.setattr(channel_class, "bpsk_llrs", counting)
    return calls


class TestSameBits:
    @pytest.mark.parametrize("amplitude", [1.0, 0.7])
    @pytest.mark.parametrize("data", ["all-zero", "random"])
    @pytest.mark.parametrize("block_rows", [None, 3], ids=["one-block", "blocks-of-3"])
    def test_llrs_are_the_generic_paths_bytes(self, amplitude, data, block_rows, monkeypatch):
        """20 seeds x batches 1, 7 and 64 x four sigmas, compared as bytes,
        into a new array and into a given one.

        Blocks of 3 rows split batches 7 and 64 into whole blocks and a
        partial one.
        """
        if block_rows is not None:
            monkeypatch.setattr(models, "_SYMBOL_BLOCK_BYTES", 8 * WIDTH * block_rows)
        channel = AWGNChannelModel()
        for seed in range(20):
            for batch in BATCHES:
                bits = np.zeros((batch, WIDTH), dtype=np.uint8)
                if data == "random":
                    bits = np.random.default_rng(10_000 + seed).integers(
                        0, 2, size=(batch, WIDTH), dtype=np.uint8
                    )
                out = np.full((batch, WIDTH), np.nan)
                for sigma in SIGMAS:
                    want = generic_llrs(bits, sigma, np.random.default_rng(seed), amplitude)
                    got = channel.bpsk_llrs(
                        bits, sigma, np.random.default_rng(seed), amplitude=amplitude
                    )
                    assert got.tobytes() == want.tobytes(), (seed, batch, sigma)
                    got = channel.bpsk_llrs(
                        bits, sigma, np.random.default_rng(seed), amplitude=amplitude, out=out
                    )
                    assert got is out
                    assert got.tobytes() == want.tobytes(), (seed, batch, sigma)

    def test_draws_leave_the_generator_where_the_generic_path_does(self):
        bits = np.random.default_rng(5).integers(0, 2, size=(7, WIDTH), dtype=np.uint8)
        generic, in_place = np.random.default_rng(3), np.random.default_rng(3)
        generic_llrs(bits, 0.6, generic, 1.0)
        AWGNChannelModel().bpsk_llrs(bits, 0.6, in_place)
        assert generic.standard_normal() == in_place.standard_normal()

    def test_one_frame_and_bool_bits(self):
        bits = np.random.default_rng(8).integers(0, 2, size=WIDTH).astype(bool)
        want = generic_llrs(bits, 0.5, np.random.default_rng(1), 1.0)
        got = AWGNChannelModel().bpsk_llrs(bits, 0.5, np.random.default_rng(1))
        assert got.tobytes() == want.tobytes()


class TestSameBSCBits:
    @pytest.mark.parametrize("amplitude", [1.0, 0.7])
    @pytest.mark.parametrize("crossover", [None, 0.05], ids=["derived", "crossover-0.05"])
    def test_llrs_are_the_generic_paths_bytes(self, amplitude, crossover):
        """20 seeds x batches 1, 7 and 64 x sigma 0.5 and 0.8, compared as
        bytes, into a new array and into a given one."""
        channel = BSCChannelModel(crossover)
        for seed in range(20):
            for batch in BATCHES:
                bits = np.random.default_rng(10_000 + seed).integers(
                    0, 2, size=(batch, WIDTH), dtype=np.uint8
                )
                out = np.full((batch, WIDTH), np.nan)
                for sigma in (0.5, 0.8):
                    want = generic_bsc_llrs(
                        bits, sigma, np.random.default_rng(seed), amplitude, crossover
                    )
                    got = channel.bpsk_llrs(
                        bits, sigma, np.random.default_rng(seed), amplitude=amplitude
                    )
                    assert got.tobytes() == want.tobytes(), (seed, batch, sigma)
                    got = channel.bpsk_llrs(
                        bits, sigma, np.random.default_rng(seed), amplitude=amplitude, out=out
                    )
                    assert got is out
                    assert got.tobytes() == want.tobytes(), (seed, batch, sigma)

    def test_draws_leave_the_generator_where_the_generic_path_does(self):
        bits = np.random.default_rng(5).integers(0, 2, size=(7, WIDTH), dtype=np.uint8)
        generic, in_place = np.random.default_rng(3), np.random.default_rng(3)
        generic_bsc_llrs(bits, 0.6, generic, 1.0)
        BSCChannelModel().bpsk_llrs(bits, 0.6, in_place, out=np.empty(bits.shape))
        assert generic.random() == in_place.random()

    def test_one_frame_and_bool_bits(self):
        bits = np.random.default_rng(8).integers(0, 2, size=WIDTH).astype(bool)
        want = generic_bsc_llrs(bits, 0.5, np.random.default_rng(1), 1.0)
        got = BSCChannelModel().bpsk_llrs(bits, 0.5, np.random.default_rng(1))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "out",
        [np.empty((2, WIDTH + 1)), np.empty((2, WIDTH), np.float32), np.empty((WIDTH, 2)).T],
        ids=["shape", "dtype", "order"],
    )
    def test_a_wrong_out_is_rejected_before_any_draw(self, out):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="out must be"):
            BSCChannelModel().bpsk_llrs(np.zeros((2, WIDTH), np.uint8), 0.6, rng, out=out)
        assert rng.random() == np.random.default_rng(0).random()


class TestWhichPipelinesFormLLRsInPlace:
    @pytest.fixture
    def in_place_calls(self, monkeypatch):
        """The bit arrays that :meth:`AWGNChannelModel.bpsk_llrs` is called on."""
        return counted_calls(monkeypatch, AWGNChannelModel)

    @pytest.fixture
    def bsc_in_place_calls(self, monkeypatch):
        """The bit arrays that :meth:`BSCChannelModel.bpsk_llrs` is called on."""
        return counted_calls(monkeypatch, BSCChannelModel)

    def test_bpsk_over_awgn_does(self, in_place_calls):
        bits = np.random.default_rng(2).integers(0, 2, size=(3, WIDTH), dtype=np.uint8)
        for amplitude, pipeline in (
            (1.0, default_pipeline()),
            (0.7, ChannelPipeline(BPSKModulator(0.7), AWGNChannelModel())),
        ):
            want = generic_llrs(bits, 0.6, np.random.default_rng(4), amplitude)
            got = pipeline.llrs(bits, 0.6, np.random.default_rng(4))
            assert got.tobytes() == want.tobytes()
            out = np.empty(bits.shape)
            assert pipeline.llrs(bits, 0.6, np.random.default_rng(4), out=out) is out
            assert out.tobytes() == want.tobytes()
        assert in_place_calls == [bits.shape] * 4

    def test_bpsk_over_bsc_does(self, bsc_in_place_calls):
        bits = np.random.default_rng(2).integers(0, 2, size=(3, WIDTH), dtype=np.uint8)
        for amplitude, crossover in ((1.0, None), (0.7, None), (1.0, 0.05)):
            pipeline = ChannelPipeline(BPSKModulator(amplitude), BSCChannelModel(crossover))
            want = generic_bsc_llrs(bits, 0.6, np.random.default_rng(4), amplitude, crossover)
            got = pipeline.llrs(bits, 0.6, np.random.default_rng(4))
            assert got.tobytes() == want.tobytes()
            out = np.empty(bits.shape)
            assert pipeline.llrs(bits, 0.6, np.random.default_rng(4), out=out) is out
            assert out.tobytes() == want.tobytes()
        assert bsc_in_place_calls == [bits.shape] * 6

    def test_others_take_the_generic_path_into_out_too(self, in_place_calls, bsc_in_place_calls):
        """A subclass of either channel or of the modulator may change what
        it computes, so it takes the generic path."""

        class NoisierAWGN(AWGNChannelModel):
            def llrs(self, symbols, sigma, rng, *, amplitude=1.0):
                return super().llrs(symbols, 2.0 * sigma, rng, amplitude=amplitude)

        class SubclassedBSC(BSCChannelModel):
            pass

        class SubclassedBPSK(BPSKModulator):
            pass

        bits = np.zeros((2, WIDTH), dtype=np.uint8)
        noisier = generic_llrs(bits, 1.2, np.random.default_rng(0), 1.0)
        bsc = BSCChannelModel().llrs(
            BPSKModulator().modulate(bits), 0.6, np.random.default_rng(0)
        )
        for modulator, channel, want in (
            (BPSKModulator(), NoisierAWGN(), noisier),
            (BPSKModulator(), SubclassedBSC(), bsc),
            (SubclassedBPSK(), BSCChannelModel(), bsc),
        ):
            pipeline = ChannelPipeline(modulator, channel)
            got = pipeline.llrs(bits, 0.6, np.random.default_rng(0))
            assert got.tobytes() == want.tobytes()
            out = np.empty(bits.shape)
            assert pipeline.llrs(bits, 0.6, np.random.default_rng(0), out=out) is out
            assert out.tobytes() == want.tobytes()
        assert in_place_calls == []
        assert bsc_in_place_calls == []

    @pytest.mark.parametrize("channel", [AWGNChannelModel(), BSCChannelModel()])
    @pytest.mark.parametrize(
        "out",
        [np.empty((2, WIDTH + 1)), np.empty((2, WIDTH), np.float32), np.empty((WIDTH, 2)).T],
        ids=["shape", "dtype", "order"],
    )
    def test_a_wrong_out_is_rejected(self, channel, out):
        with pytest.raises(ValueError, match="out must be"):
            ChannelPipeline(BPSKModulator(), channel).llrs(
                np.zeros((2, WIDTH), np.uint8), 0.6, np.random.default_rng(0), out=out
            )


class TestLLRBuffer:
    def test_smaller_batches_reuse_the_array_and_larger_ones_grow_it(self):
        buffer = LLRBuffer()
        first = buffer.take((5, WIDTH))
        assert first.shape == (5, WIDTH) and first.flags.c_contiguous
        assert first.dtype == np.float64
        smaller = buffer.take((3, WIDTH))
        assert np.shares_memory(first, smaller)
        larger = buffer.take((9, WIDTH))
        assert larger.shape == (9, WIDTH) and not np.shares_memory(first, larger)
        assert np.shares_memory(larger, buffer.take((2, WIDTH + 7)))

    def test_a_simulator_forms_each_batch_in_its_buffer(self):
        code = build_scaled_ccsds_code(31)
        decoder = get_component("decoder", "nms").build(code, max_iterations=4)
        simulator = MonteCarloSimulator(code, decoder, rng=1)
        taken = []
        take = simulator.llr_buffer.take
        simulator.llr_buffer.take = lambda shape: taken.append(take(shape)) or taken[-1]
        rng = np.random.default_rng(0)
        for batch in (5, 3, 9):
            simulator.run_batch(batch, 0.8, rng)
        assert [array.shape[0] for array in taken] == [5, 3, 9]
        assert np.shares_memory(taken[0], taken[1])

    def test_the_simulators_of_a_shard_runner_share_one_buffer(self):
        code = build_scaled_ccsds_code(31)
        entries = {
            kind: PoolEntry(
                code,
                lambda kind=kind: get_component("decoder", kind).build(code, max_iterations=4),
            )
            for kind in ("nms", "min-sum")
        }
        runner = ShardRunner(entries.__getitem__)
        for seed, kind in zip(np.random.SeedSequence(3).spawn(2), entries):
            runner.run(kind, 3.0, 4, seed)
        first, second = runner._simulators.values()
        assert first.llr_buffer is second.llr_buffer is runner._llr_buffer


class TestTheSimulatorCountsAsOnTheGenericPath:
    """Same counts as AWGN through a subclass, which takes the generic path."""

    class Generic(AWGNChannelModel):
        pass

    def counts(self, code, decoder_code, config):
        points = []
        for pipeline in (None, ChannelPipeline(BPSKModulator(), self.Generic())):
            decoder = get_component("decoder", "nms").build(decoder_code, max_iterations=8)
            simulator = MonteCarloSimulator(
                code, decoder, config=config, rng=12, pipeline=pipeline
            )
            points.append(simulator.run_point(2.5))
        return points

    def test_a_code(self):
        code = build_scaled_ccsds_code(31)
        config = SimulationConfig(max_frames=60, target_frame_errors=60, batch_frames=16)
        points = self.counts(code, code, config)
        assert points[0] == points[1]
        assert 0 < points[0].frame_errors < points[0].frames

    def test_a_shortened_code(self):
        code = build_scaled_ccsds_code(31)
        shortened = ShortenedCode(code, info_bits=code.dimension - 8)
        config = SimulationConfig(
            max_frames=60, target_frame_errors=60, batch_frames=16, all_zero_codeword=True
        )
        points = self.counts(shortened, code, config)
        assert points[0] == points[1]
        assert points[0].bits == points[0].frames * shortened.transmitted_code_bits
        assert 0 < points[0].bit_errors


@pytest.mark.parametrize("into", ["a-new-array", "a-given-array"])
def test_a_64_frame_c2_batch_allocates_under_a_megabyte_besides_its_llrs(into):
    """The generic path allocates about 12 MB for a 64-frame C2 batch: the
    symbols, the noise, the received values and the LLRs, each 4.2 MB, and
    the modulator's temporaries.  In place, only one block of symbols and
    numpy's cast buffer, besides the LLRs when they are a new array."""
    bits = np.random.default_rng(64).integers(0, 2, size=(64, 8176), dtype=np.uint8)
    out = np.empty(bits.shape) if into == "a-given-array" else None
    pipeline = default_pipeline()
    rng = np.random.default_rng(1)
    pipeline.llrs(bits, 0.6, rng, out=out)
    tracemalloc.start()
    try:
        for _ in range(3):
            pipeline.llrs(bits, 0.6, rng, out=out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    llrs = bits.size * 8 if out is None else 0
    assert peak < llrs + (1 << 20)
