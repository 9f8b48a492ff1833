"""Property-based tests for encoders, shortening and throughput.

Complements ``test_property_based.py`` with invariants of the higher-level
code machinery: every encoder output is a codeword, shortening index
conversions are lossless, and the throughput model behaves monotonically
in its inputs.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.codes.parity_check import ParityCheckMatrix
from repro.codes.shortening import ShortenedCode
from repro.core.configs import low_cost_architecture
from repro.core.throughput import ThroughputModel
from repro.encode.systematic import SystematicEncoder

SETTINGS = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _random_pcm(rng: np.random.Generator) -> ParityCheckMatrix:
    """A random small parity-check matrix with no all-zero columns."""
    rows = int(rng.integers(2, 6))
    cols = int(rng.integers(rows + 1, rows + 10))
    while True:
        matrix = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
        if (matrix.sum(axis=0) > 0).all() and (matrix.sum(axis=1) > 0).all():
            return ParityCheckMatrix(matrix)


class TestEncoderProperties:
    @SETTINGS
    @given(st.integers(0, 2**32 - 1))
    def test_every_encoded_word_is_a_codeword(self, seed):
        rng = np.random.default_rng(seed)
        pcm = _random_pcm(rng)
        encoder = SystematicEncoder(pcm)
        info = rng.integers(0, 2, size=(5, encoder.dimension), dtype=np.uint8)
        codewords = encoder.encode(info)
        assert bool(np.all(pcm.is_codeword(codewords)))

    @SETTINGS
    @given(st.integers(0, 2**32 - 1))
    def test_information_extraction_inverts_encoding(self, seed):
        rng = np.random.default_rng(seed)
        pcm = _random_pcm(rng)
        encoder = SystematicEncoder(pcm)
        info = rng.integers(0, 2, size=encoder.dimension, dtype=np.uint8)
        assert np.array_equal(encoder.extract_information(encoder.encode(info)), info)

    @SETTINGS
    @given(st.integers(0, 2**32 - 1))
    def test_encoding_linearity(self, seed):
        rng = np.random.default_rng(seed)
        pcm = _random_pcm(rng)
        encoder = SystematicEncoder(pcm)
        if encoder.dimension == 0:
            return
        a = rng.integers(0, 2, size=encoder.dimension, dtype=np.uint8)
        b = rng.integers(0, 2, size=encoder.dimension, dtype=np.uint8)
        assert np.array_equal(encoder.encode(a ^ b), encoder.encode(a) ^ encoder.encode(b))


class TestFramingProperties:
    @SETTINGS
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(0, 5))
    def test_shortening_roundtrip(self, seed, shorten_by, pad):
        rng = np.random.default_rng(seed)
        pcm = _random_pcm(rng)
        if pcm.dimension <= shorten_by:
            return
        shortened = ShortenedCode(
            pcm,
            info_bits=pcm.dimension - shorten_by,
            frame_length=pcm.block_length - shorten_by + pad,
        )
        payload = rng.integers(0, 2, size=shortened.transmitted_code_bits, dtype=np.uint8)
        base = shortened.expand_to_base(payload)
        assert np.array_equal(shortened.extract_transmitted(base), payload)
        frame = shortened.build_frame(payload)
        assert frame.size == shortened.frame_length
        assert np.array_equal(shortened.strip_frame(frame), payload)
        # LLR mapping marks exactly the shortened positions as known.
        llrs = shortened.base_llrs_from_frame_llrs(rng.normal(size=shortened.frame_length))
        assert np.count_nonzero(llrs == 1e3) == shortened.num_shortened


class TestThroughputProperties:
    @SETTINGS
    @given(st.integers(1, 200), st.integers(1, 200))
    def test_more_iterations_never_faster(self, iterations_a, iterations_b):
        model = ThroughputModel(low_cost_architecture())
        fast = model.point(min(iterations_a, iterations_b)).throughput_bps
        slow = model.point(max(iterations_a, iterations_b)).throughput_bps
        assert slow <= fast

    @SETTINGS
    @given(st.floats(0.5, 50.0))
    def test_effective_point_interpolates(self, average_iterations):
        model = ThroughputModel(low_cost_architecture())
        effective = model.effective_point(average_iterations)
        assert effective.throughput_bps > 0
        # Early termination can only help relative to the fixed-iteration mode
        # with at least that many iterations.
        fixed = model.point(int(np.ceil(average_iterations)))
        assert effective.throughput_bps >= fixed.throughput_bps - 1e-6

    def test_effective_point_validation(self):
        model = ThroughputModel(low_cost_architecture())
        with pytest.raises(ValueError):
            model.effective_point(0.0)

    def test_effective_point_matches_fixed_on_integers(self):
        model = ThroughputModel(low_cost_architecture())
        assert model.effective_point(18).throughput_bps == pytest.approx(
            model.point(18).throughput_bps
        )
