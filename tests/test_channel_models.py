"""Tests for the registered channel models and the injectable pipeline."""

import math

import numpy as np
import pytest

from repro.channel.llr import channel_llrs
from repro.channel.models import AWGNChannelModel, BSCChannelModel
from repro.channel.modulation import BPSKModulator
from repro.channel.pipeline import ChannelPipeline, default_pipeline
from repro.sim import EbN0Sweep, MonteCarloSimulator, SimulationConfig
from repro.sim.campaign import ChannelSpec


TINY_CONFIG = SimulationConfig(
    max_frames=20, target_frame_errors=4, batch_frames=10, all_zero_codeword=True
)


def _bits(rng, shape):
    return rng.integers(0, 2, size=shape, dtype=np.uint8)


class TestAWGNModel:
    def test_matches_historical_inline_implementation_bitwise(self):
        """The registered model must replay the pre-registry RNG draws exactly."""
        bits = _bits(np.random.default_rng(0), (4, 62))
        modulator = BPSKModulator()
        sigma = 0.8
        legacy_rng = np.random.default_rng(42)
        symbols = modulator.modulate(bits)
        received = symbols + legacy_rng.normal(0.0, sigma, size=symbols.shape)
        legacy = channel_llrs(received, sigma)
        modern = default_pipeline().llrs(bits, sigma, np.random.default_rng(42))
        assert np.array_equal(legacy, modern)

    def test_amplitude_propagates_from_modulator(self):
        bits = np.zeros((1, 8), dtype=np.uint8)
        pipeline = ChannelPipeline(BPSKModulator(amplitude=2.0), AWGNChannelModel())
        assert pipeline.amplitude == 2.0
        llrs = pipeline.llrs(bits, 1.0, np.random.default_rng(1))
        # Same noise realization scaled by A both at the transmitter (symbol
        # +A) and in the LLR map (factor 2A/sigma^2).
        noise = np.random.default_rng(1).normal(0.0, 1.0, size=(1, 8))
        assert np.allclose(llrs, 2.0 * 2.0 * (2.0 + noise))


class TestBSCModel:
    def test_default_crossover_is_q_function_of_sigma(self):
        model = BSCChannelModel()
        sigma = 0.5
        expected = 0.5 * math.erfc(1.0 / (sigma * math.sqrt(2.0)))
        assert model.crossover_probability(sigma) == pytest.approx(expected)

    def test_fixed_crossover_ignores_sigma(self):
        model = BSCChannelModel(crossover=0.1)
        assert model.crossover_probability(0.1) == 0.1
        assert model.crossover_probability(10.0) == 0.1

    def test_llrs_are_two_level_with_correct_magnitude(self):
        model = BSCChannelModel(crossover=0.2)
        bits = _bits(np.random.default_rng(3), (3, 50))
        symbols = BPSKModulator().modulate(bits)
        llrs = model.llrs(symbols, 1.0, np.random.default_rng(7))
        magnitude = math.log(0.8 / 0.2)
        assert set(np.round(np.unique(np.abs(llrs)), 12)) == {round(magnitude, 12)}
        # Unflipped positions carry the transmitted sign.
        flips = np.random.default_rng(7).random(size=symbols.shape) < 0.2
        expected_sign = np.where(bits == 0, 1.0, -1.0) * np.where(flips, -1.0, 1.0)
        assert np.array_equal(np.sign(llrs), expected_sign)

    def test_crossover_validation(self):
        with pytest.raises(ValueError, match="crossover"):
            BSCChannelModel(crossover=0.0)
        with pytest.raises(ValueError, match="crossover"):
            BSCChannelModel(crossover=0.6)

    def test_deterministic_given_seed(self):
        model = BSCChannelModel()
        symbols = BPSKModulator().modulate(_bits(np.random.default_rng(0), (2, 31)))
        a = model.llrs(symbols, 0.7, np.random.default_rng(5))
        b = model.llrs(symbols, 0.7, np.random.default_rng(5))
        assert np.array_equal(a, b)


class TestPipelineInjection:
    def test_simulator_accepts_pipeline(self, scaled_code):
        from repro.decode import NormalizedMinSumDecoder

        pipeline = ChannelSpec(kind="bsc").build()
        simulator = MonteCarloSimulator(
            scaled_code,
            NormalizedMinSumDecoder(scaled_code, max_iterations=8),
            config=TINY_CONFIG,
            rng=0,
            pipeline=pipeline,
        )
        point = simulator.run_point(4.0, rng=np.random.SeedSequence(1))
        assert point.frames > 0
        # Hard decisions lose ~2 dB: at the same Eb/N0 the BSC link cannot
        # beat the soft AWGN one (statistically safe at these counts).
        soft = MonteCarloSimulator(
            scaled_code,
            NormalizedMinSumDecoder(scaled_code, max_iterations=8),
            config=TINY_CONFIG,
            rng=0,
        ).run_point(4.0, rng=np.random.SeedSequence(1))
        assert point.ber >= soft.ber

    @pytest.mark.parametrize("kind,params", [
        ("bsc", {}),
        ("bsc", {"crossover": 0.05}),
    ])
    def test_sweep_serial_matches_parallel_per_channel(
        self, scaled_code, kind, params
    ):
        """The determinism contract holds on every registered channel."""
        from repro.sim.campaign import DecoderSpec

        def run(workers):
            sweep = EbN0Sweep(
                scaled_code,
                DecoderSpec("nms", 8).factory(scaled_code),
                config=TINY_CONFIG,
                rng=123,
                pipeline=ChannelSpec(kind=kind, params=params).build(),
            )
            return sweep.run([3.0, 5.0], workers=workers)

        serial = run(None)
        pooled = run(2)
        assert serial.points == pooled.points

    def test_pipeline_is_picklable(self):
        import pickle

        for kind in ("awgn", "bsc"):
            pipeline = ChannelSpec(kind=kind).build()
            rebuilt = pickle.loads(pickle.dumps(pipeline))
            assert type(rebuilt.channel) is type(pipeline.channel)

    def test_shortened_code_goes_through_pipeline(self, scaled_code):
        """The virtual-fill path feeds the pipeline transmitted frames only."""
        from repro.codes.shortening import ShortenedCode
        from repro.decode import NormalizedMinSumDecoder

        shortened = ShortenedCode(scaled_code, info_bits=scaled_code.dimension - 8)
        simulator = MonteCarloSimulator(
            shortened,
            NormalizedMinSumDecoder(scaled_code, max_iterations=8),
            config=TINY_CONFIG,
            rng=0,
            pipeline=ChannelSpec(kind="bsc").build(),
        )
        point = simulator.run_point(4.0, rng=np.random.SeedSequence(9))
        assert point.bits == point.frames * shortened.transmitted_code_bits


class TestAmplitudeEnergyAccounting:
    def test_nonunit_amplitude_keeps_the_ebn0_axis_honest(self, scaled_code):
        """Es = A^2 must enter the sigma derivation, not act as free gain.

        With the energy accounted, BPSK at amplitude A over AWGN is the *same*
        operating point as unit-amplitude BPSK — numpy's ``normal(0, sigma)``
        scales one standard-normal draw, so the received LLRs (and therefore
        every count) are bit-identical, not merely statistically close.
        """
        from repro.decode import NormalizedMinSumDecoder
        from repro.sim.campaign import ChannelSpec

        def run(amplitude):
            params = {"amplitude": amplitude} if amplitude != 1.0 else {}
            simulator = MonteCarloSimulator(
                scaled_code,
                NormalizedMinSumDecoder(scaled_code, max_iterations=8),
                config=TINY_CONFIG,
                rng=0,
                pipeline=ChannelSpec(kind="awgn", modulator_params=params).build(),
            )
            assert simulator.sigma_for(3.0) == pytest.approx(
                amplitude * MonteCarloSimulator(
                    scaled_code,
                    NormalizedMinSumDecoder(scaled_code, max_iterations=8),
                    config=TINY_CONFIG,
                ).sigma_for(3.0)
            )
            return simulator.run_point(3.0, rng=np.random.SeedSequence(4))

        assert run(2.0) == run(1.0)
