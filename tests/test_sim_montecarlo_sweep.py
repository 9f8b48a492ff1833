"""Unit tests for repro.sim.montecarlo and repro.sim.sweep."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.codes.ccsds_c2 import build_ccsds_c2_code
from repro.codes.shortening import ShortenedCode
from repro.decode import NormalizedMinSumDecoder, decode_frames, native
from repro.registry import get_component
from repro.sim.montecarlo import MonteCarloSimulator, SimulationConfig
from repro.sim.sweep import EbN0Sweep


class TestSimulationConfig:
    def test_defaults(self):
        config = SimulationConfig()
        assert config.max_frames >= 1
        assert config.target_frame_errors >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(max_frames=0)
        with pytest.raises(ValueError):
            SimulationConfig(target_frame_errors=0)
        with pytest.raises(ValueError):
            SimulationConfig(batch_frames=0)


class TestMonteCarloSimulator:
    def test_high_snr_point_is_error_free(self, scaled_code):
        decoder = NormalizedMinSumDecoder(scaled_code, max_iterations=20)
        config = SimulationConfig(max_frames=40, target_frame_errors=10, batch_frames=20)
        simulator = MonteCarloSimulator(scaled_code, decoder, config=config, rng=1)
        point = simulator.run_point(8.0)
        assert point.fer == 0.0
        assert point.frames == 40

    def test_low_snr_point_has_errors_and_stops_early(self, scaled_code):
        decoder = NormalizedMinSumDecoder(scaled_code, max_iterations=10)
        config = SimulationConfig(max_frames=500, target_frame_errors=5, batch_frames=10)
        simulator = MonteCarloSimulator(scaled_code, decoder, config=config, rng=2)
        point = simulator.run_point(0.0)
        assert point.frame_errors >= 5
        assert point.frames < 500  # stopped on the error target

    def test_ber_decreases_with_snr(self, scaled_code):
        decoder = NormalizedMinSumDecoder(scaled_code, max_iterations=15)
        config = SimulationConfig(max_frames=60, target_frame_errors=60, batch_frames=30)
        simulator_lo = MonteCarloSimulator(scaled_code, decoder, config=config, rng=3)
        simulator_hi = MonteCarloSimulator(scaled_code, decoder, config=config, rng=3)
        assert simulator_hi.run_point(6.0).ber <= simulator_lo.run_point(2.0).ber

    def test_all_zero_and_random_data_agree_statistically(self, scaled_code):
        """Linear code + symmetric channel: the transmitted codeword does not matter."""
        config_rand = SimulationConfig(max_frames=60, target_frame_errors=60, batch_frames=30)
        config_zero = SimulationConfig(
            max_frames=60, target_frame_errors=60, batch_frames=30, all_zero_codeword=True
        )
        decoder = NormalizedMinSumDecoder(scaled_code, max_iterations=15)
        ber_rand = MonteCarloSimulator(scaled_code, decoder, config=config_rand, rng=4).run_point(4.0).ber
        ber_zero = MonteCarloSimulator(scaled_code, decoder, config=config_zero, rng=4).run_point(4.0).ber
        # Same order of magnitude is all that can be asserted at these counts.
        assert abs(np.log10(ber_rand + 1e-6) - np.log10(ber_zero + 1e-6)) < 1.0

    def test_code_rate_property(self, scaled_code):
        decoder = NormalizedMinSumDecoder(scaled_code, max_iterations=5)
        simulator = MonteCarloSimulator(scaled_code, decoder, rng=0)
        assert simulator.code_rate == pytest.approx(scaled_code.rate)

    def test_shortened_code_all_zero(self, scaled_code):
        shortened = ShortenedCode(scaled_code, info_bits=scaled_code.dimension - 8)
        decoder = NormalizedMinSumDecoder(scaled_code, max_iterations=15)
        config = SimulationConfig(max_frames=20, target_frame_errors=20, batch_frames=10,
                                  all_zero_codeword=True)
        simulator = MonteCarloSimulator(shortened, decoder, config=config, rng=5)
        point = simulator.run_point(6.0)
        assert point.frames == 20
        assert simulator.code_rate == pytest.approx(shortened.rate)

    def test_shortened_code_random_data_via_from_encoder(self, scaled_code, scaled_encoder):
        shortened = ShortenedCode.from_encoder(
            scaled_code, scaled_encoder, info_bits=scaled_code.dimension - 8
        )
        decoder = NormalizedMinSumDecoder(scaled_code, max_iterations=15)
        config = SimulationConfig(max_frames=10, target_frame_errors=10, batch_frames=5)
        simulator = MonteCarloSimulator(shortened, decoder, config=config, rng=6)
        point = simulator.run_point(7.0)
        assert point.frames == 10

    def test_shortened_code_random_data_with_bad_positions_raises(self, scaled_code):
        shortened = ShortenedCode(scaled_code, info_bits=scaled_code.dimension - 8)
        decoder = NormalizedMinSumDecoder(scaled_code, max_iterations=5)
        with pytest.raises(ValueError):
            MonteCarloSimulator(shortened, decoder, rng=0)

    def test_shortened_ber_counts_transmitted_bits_only(self, scaled_code):
        """Regression: the BER denominator used to include never-transmitted
        virtual-fill bits, silently underestimating the BER."""
        shortened = ShortenedCode(scaled_code, info_bits=scaled_code.dimension - 8)
        decoder = NormalizedMinSumDecoder(scaled_code, max_iterations=10)
        config = SimulationConfig(max_frames=20, target_frame_errors=20, batch_frames=10,
                                  all_zero_codeword=True)
        simulator = MonteCarloSimulator(shortened, decoder, config=config, rng=5)
        point = simulator.run_point(3.0)
        assert simulator.counted_bits_per_frame == shortened.transmitted_code_bits
        assert point.bits == point.frames * shortened.transmitted_code_bits
        assert point.bits < point.frames * scaled_code.block_length

    def test_plain_code_ber_denominator_unchanged(self, scaled_code):
        decoder = NormalizedMinSumDecoder(scaled_code, max_iterations=5)
        config = SimulationConfig(max_frames=10, target_frame_errors=10, batch_frames=10,
                                  all_zero_codeword=True)
        point = MonteCarloSimulator(scaled_code, decoder, config=config, rng=6).run_point(4.0)
        assert point.bits == point.frames * scaled_code.block_length

    def test_info_bit_ber_exposed_with_encoder(self, scaled_code, scaled_encoder):
        shortened = ShortenedCode.from_encoder(
            scaled_code, scaled_encoder, info_bits=scaled_code.dimension - 8
        )
        decoder = NormalizedMinSumDecoder(scaled_code, max_iterations=10)
        config = SimulationConfig(max_frames=10, target_frame_errors=10, batch_frames=5)
        point = MonteCarloSimulator(shortened, decoder, config=config, rng=7).run_point(2.0)
        assert point.info_bits == point.frames * shortened.info_bits
        assert 0.0 <= point.info_ber <= 1.0
        # Info bits are a subset of transmitted bits, so errors cannot exceed
        # the overall bit errors.
        assert point.info_bit_errors <= point.bit_errors

    def test_info_bit_ber_zero_without_encoder(self, scaled_code):
        decoder = NormalizedMinSumDecoder(scaled_code, max_iterations=5)
        config = SimulationConfig(max_frames=10, target_frame_errors=10, batch_frames=10,
                                  all_zero_codeword=True)
        point = MonteCarloSimulator(scaled_code, decoder, config=config, rng=8).run_point(4.0)
        assert point.info_bits == 0
        assert point.info_ber == 0.0


class TestEbN0Sweep:
    def test_sweep_produces_sorted_curve(self, scaled_code):
        config = SimulationConfig(max_frames=30, target_frame_errors=10, batch_frames=15,
                                  all_zero_codeword=True)
        sweep = EbN0Sweep(
            scaled_code,
            lambda: NormalizedMinSumDecoder(scaled_code, max_iterations=10),
            config=config,
            rng=7,
        )
        curve = sweep.run([5.0, 3.0], label="nms")
        assert curve.label == "nms"
        assert curve.ebn0_values.tolist() == [3.0, 5.0]
        assert curve.points[0].ber >= curve.points[1].ber

    def test_progress_callback(self, scaled_code):
        messages = []
        config = SimulationConfig(max_frames=10, target_frame_errors=10, batch_frames=10,
                                  all_zero_codeword=True)
        sweep = EbN0Sweep(
            scaled_code,
            lambda: NormalizedMinSumDecoder(scaled_code, max_iterations=5),
            config=config,
            rng=8,
        )
        sweep.run([4.0], progress=messages.append)
        assert len(messages) == 1
        assert "Eb/N0" in messages[0]

    def test_format_curves(self, scaled_code):
        config = SimulationConfig(max_frames=10, target_frame_errors=10, batch_frames=10,
                                  all_zero_codeword=True)
        sweep = EbN0Sweep(
            scaled_code,
            lambda: NormalizedMinSumDecoder(scaled_code, max_iterations=5),
            config=config,
            rng=9,
        )
        curve = sweep.run([4.0], label="a")
        text = EbN0Sweep.format_curves([curve])
        assert "a BER" in text and "a PER" in text

    def test_reproducible_with_seed(self, scaled_code):
        config = SimulationConfig(max_frames=20, target_frame_errors=20, batch_frames=10,
                                  all_zero_codeword=True)
        def factory():
            return NormalizedMinSumDecoder(scaled_code, max_iterations=8)
        curve_a = EbN0Sweep(scaled_code, factory, config=config, rng=11).run([3.0])
        curve_b = EbN0Sweep(scaled_code, factory, config=config, rng=11).run([3.0])
        assert curve_a.points[0].ber == curve_b.points[0].ber


class DecodeOnly:
    """A third-party decoder with only ``decode(llrs)``."""

    def __init__(self, decoder):
        self._decoder = decoder

    def decode(self, llrs):
        return self._decoder.decode(llrs)


class DecodeBatchOnly:
    """A third-party decoder with only ``decode_batch(llrs)``, which takes no other argument."""

    def __init__(self, decoder):
        self._decoder = decoder

    def decode_batch(self, llrs):
        return self._decoder.decode_batch(llrs)


class TestTheSimulatorAsksForNoPosterior:
    """``run_batch`` decodes through ``decode_frames(..., posterior=False)``."""

    @pytest.mark.parametrize(
        "kind, native_kernels",
        [("nms", True), ("nms", False), ("sum-product", True)],
        ids=["nms-native", "nms-loop", "sum-product-loop"],
    )
    def test_the_built_in_decoders_return_the_same_fields_but_the_posterior(
        self, monkeypatch, kind, native_kernels, scaled_code, rng
    ):
        """Where the process has native kernels, ``nms`` streams; the loop
        serves ``sum-product``, and ``nms`` once the kernels are taken away."""
        if not native_kernels:
            monkeypatch.setattr(native, "kernels", lambda: None)
        decoder = get_component("decoder", kind).build(scaled_code, max_iterations=6)
        llrs = 2.0 + 2.5 * rng.normal(size=(9, scaled_code.block_length))
        full = decode_frames(decoder, llrs)
        lean = decode_frames(decoder, llrs, posterior=False)
        assert full.posterior_llrs is not None and lean.posterior_llrs is None
        assert np.array_equal(lean.bits, full.bits)
        assert np.array_equal(lean.converged, full.converged)
        assert np.array_equal(lean.iterations, full.iterations)
        assert 0 < full.iterations.sum()

    @pytest.mark.parametrize("wrapper", [DecodeOnly, DecodeBatchOnly])
    @pytest.mark.parametrize("shortened", [False, True], ids=["plain", "shortened"])
    def test_a_decoder_without_the_request_counts_as_the_built_in_one(
        self, wrapper, shortened, scaled_code, scaled_encoder
    ):
        code = scaled_code
        if shortened:
            code = ShortenedCode.from_encoder(
                scaled_code, scaled_encoder, info_bits=scaled_code.dimension - 8
            )
        config = SimulationConfig(max_frames=40, target_frame_errors=41, batch_frames=10)

        def point(decoder):
            return MonteCarloSimulator(code, decoder, config=config, rng=21).run_point(3.5)

        want = point(NormalizedMinSumDecoder(scaled_code, max_iterations=8))
        got = point(wrapper(NormalizedMinSumDecoder(scaled_code, max_iterations=8)))
        assert got == want
        assert 0 < want.info_bit_errors < want.bit_errors


def test_a_warmed_64_frame_c2_run_batch_peaks_under_2_mib(native_backend):
    """With a 4.2 MB posterior from the decoder, a ``(batch, n)`` error array
    and a ``(batch, k)`` information-bit gather, a warmed 64-frame C2 batch
    peaked at 6.00 MiB.  Now the LLR buffer, allocated by the warm-up, is its
    only float64 array of that size: the information bits, the codewords and
    the hard decisions, about 0.5 MB each, are what remains."""
    code = build_ccsds_c2_code()
    decoder = get_component("decoder", "nms").build(code, max_iterations=18, alpha=1.25)
    simulator = MonteCarloSimulator(
        code, decoder, config=SimulationConfig(batch_frames=64), rng=1
    )
    sigma = simulator.sigma_for(3.7)
    simulator.run_batch(64, sigma, np.random.default_rng(0))
    tracemalloc.start()
    try:
        for seed in range(3):
            simulator.run_batch(64, sigma, np.random.default_rng(seed))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_setting_a_simulator_up_leaves_numpy_ma_unimported(tmp_path):
    """``np.setdiff1d`` goes through ``np.unique``, whose first call imports
    ``numpy.ma``: about 1.7 MB resident and 14 ms in each process that sets
    a simulator up, on a cold encoder cache as on a warm one."""
    script = (
        "import sys\n"
        "from repro.codes.ccsds_c2 import build_ccsds_c2_code\n"
        "from repro.registry import get_component\n"
        "from repro.sim.montecarlo import MonteCarloSimulator\n"
        "code = build_ccsds_c2_code(circulant_size=31)\n"
        "decoder = get_component('decoder', 'nms').build(code, max_iterations=4)\n"
        "MonteCarloSimulator(code, decoder, rng=1)\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(repro.__file__).resolve().parent.parent),
        REPRO_ENCODER_CACHE=str(tmp_path),
    )
    for cache in ("cold", "warm"):
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, f"{cache} cache: {done.stderr}"
