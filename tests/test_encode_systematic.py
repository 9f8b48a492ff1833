"""Unit tests for repro.encode.systematic."""

import numpy as np
import pytest

from repro.codes.ccsds_c2 import build_ccsds_c2_code
from repro.codes.parity_check import ParityCheckMatrix
from repro.encode.systematic import SystematicEncoder, as_parity_check_matrix


class TestAsParityCheckMatrix:
    def test_passthrough(self, hamming_pcm):
        assert as_parity_check_matrix(hamming_pcm) is hamming_pcm

    def test_from_code_object(self, scaled_code):
        assert as_parity_check_matrix(scaled_code) is scaled_code.parity_check_matrix()

    def test_from_dense_array(self):
        h = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)
        pcm = as_parity_check_matrix(h)
        assert isinstance(pcm, ParityCheckMatrix)
        assert pcm.block_length == 3


class TestHammingEncoder:
    def test_dimension(self, hamming_pcm):
        encoder = SystematicEncoder(hamming_pcm)
        assert encoder.dimension == 4
        assert encoder.block_length == 7

    def test_all_codewords_valid(self, hamming_pcm):
        encoder = SystematicEncoder(hamming_pcm)
        for value in range(16):
            info = np.array([(value >> i) & 1 for i in range(4)], dtype=np.uint8)
            assert hamming_pcm.is_codeword(encoder.encode(info))

    def test_encoding_is_linear(self, hamming_pcm, rng):
        encoder = SystematicEncoder(hamming_pcm)
        a = rng.integers(0, 2, size=4, dtype=np.uint8)
        b = rng.integers(0, 2, size=4, dtype=np.uint8)
        assert np.array_equal(
            encoder.encode(a ^ b), encoder.encode(a) ^ encoder.encode(b)
        )

    def test_information_recoverable(self, hamming_pcm, rng):
        encoder = SystematicEncoder(hamming_pcm)
        info = rng.integers(0, 2, size=4, dtype=np.uint8)
        assert np.array_equal(encoder.extract_information(encoder.encode(info)), info)

    def test_distinct_info_gives_distinct_codewords(self, hamming_pcm):
        encoder = SystematicEncoder(hamming_pcm)
        words = {tuple(encoder.encode(np.array([(v >> i) & 1 for i in range(4)], dtype=np.uint8))) for v in range(16)}
        assert len(words) == 16


class TestScaledCodeEncoder:
    def test_dimension_matches_code(self, scaled_code, scaled_encoder):
        assert scaled_encoder.dimension == scaled_code.dimension

    def test_batch_encoding_valid(self, scaled_code, scaled_encoder, rng):
        info = rng.integers(0, 2, size=(10, scaled_encoder.dimension), dtype=np.uint8)
        codewords = scaled_encoder.encode(info)
        assert codewords.shape == (10, scaled_code.block_length)
        assert bool(np.all(scaled_code.is_codeword(codewords)))

    def test_positions_partition_codeword(self, scaled_encoder):
        info = set(scaled_encoder.information_positions.tolist())
        parity = set(scaled_encoder.parity_positions.tolist())
        assert info.isdisjoint(parity)
        assert len(info) + len(parity) == scaled_encoder.block_length

    def test_wrong_info_length(self, scaled_encoder):
        with pytest.raises(ValueError):
            scaled_encoder.encode(np.zeros(scaled_encoder.dimension + 1, dtype=np.uint8))

    def test_non_binary_rejected(self, scaled_encoder):
        with pytest.raises(ValueError):
            scaled_encoder.encode(np.full(scaled_encoder.dimension, 2))


class TestFullC2Encoder:
    """The encoder at the paper's dimension, k = 7156: each parity bit of
    the float32 product sums thousands of terms."""

    def test_frames_are_codewords_carrying_their_information(self):
        code = build_ccsds_c2_code()
        encoder = SystematicEncoder(code)
        assert encoder.dimension == 7156
        info = np.random.default_rng(7156).integers(
            0, 2, size=(64, encoder.dimension), dtype=np.uint8
        )
        codewords = encoder.encode(info)
        assert bool(np.all(code.parity_check_matrix().is_codeword(codewords)))
        assert np.array_equal(encoder.extract_information(codewords), info)

    def test_dimension_beyond_exact_float32_sums_rejected(self, hamming_pcm, monkeypatch):
        import repro.encode.systematic as module

        # Stands in for k >= 2**24, which no dense row reduction reaches.
        monkeypatch.setattr(module, "_FLOAT32_EXACT_INTEGERS", 4)
        with pytest.raises(ValueError, match="k < 2"):
            SystematicEncoder(hamming_pcm, cache_dir=None)


class TestEncoderDiskCache:
    def test_cache_file_written_and_loaded(self, hamming_pcm, tmp_path, monkeypatch):
        cold = SystematicEncoder(hamming_pcm, cache_dir=tmp_path)
        cached = list(tmp_path.glob("*.npz"))
        assert len(cached) == 1
        # A warm build must not run Gaussian elimination at all.
        import repro.encode.systematic as module

        def boom(*args, **kwargs):
            raise AssertionError("row reduction ran despite a warm cache")

        monkeypatch.setattr(module, "gf2_row_reduce", boom)
        warm = SystematicEncoder(hamming_pcm, cache_dir=tmp_path)
        info = np.array([[1, 0, 1, 1], [0, 1, 1, 0]], dtype=np.uint8)
        assert np.array_equal(cold.encode(info), warm.encode(info))
        assert np.array_equal(
            cold.information_positions, warm.information_positions
        )

    def test_distinct_matrices_get_distinct_entries(self, hamming_pcm, scaled_code, tmp_path):
        SystematicEncoder(hamming_pcm, cache_dir=tmp_path)
        SystematicEncoder(scaled_code, cache_dir=tmp_path)
        assert len(list(tmp_path.glob("*.npz"))) == 2

    def test_corrupt_cache_falls_back_to_recompute(self, hamming_pcm, tmp_path):
        reference = SystematicEncoder(hamming_pcm, cache_dir=None)
        SystematicEncoder(hamming_pcm, cache_dir=tmp_path)
        (cache_file,) = tmp_path.glob("*.npz")
        cache_file.write_bytes(b"not an npz archive")
        recovered = SystematicEncoder(hamming_pcm, cache_dir=tmp_path)
        info = np.array([1, 0, 1, 1], dtype=np.uint8)
        assert np.array_equal(reference.encode(info), recovered.encode(info))

    def test_cache_dir_none_writes_nothing(self, hamming_pcm, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ENCODER_CACHE", str(tmp_path / "unused"))
        SystematicEncoder(hamming_pcm, cache_dir=None)
        assert not (tmp_path / "unused").exists()

    def test_env_variable_controls_default(self, hamming_pcm, tmp_path, monkeypatch):
        from repro.encode.systematic import default_encoder_cache_dir

        monkeypatch.setenv("REPRO_ENCODER_CACHE", "off")
        assert default_encoder_cache_dir() is None
        monkeypatch.setenv("REPRO_ENCODER_CACHE", str(tmp_path / "cachedir"))
        assert default_encoder_cache_dir() == tmp_path / "cachedir"
        SystematicEncoder(hamming_pcm)
        assert len(list((tmp_path / "cachedir").glob("*.npz"))) == 1

    def test_fingerprint_distinguishes_shapes_and_content(self, hamming_pcm):
        from repro.encode.systematic import parity_check_fingerprint

        other = ParityCheckMatrix(
            np.array([[1, 1, 0, 1, 1, 0, 1], [1, 0, 1, 1, 0, 1, 0],
                      [0, 1, 1, 1, 0, 0, 1]], dtype=np.uint8)
        )
        assert parity_check_fingerprint(hamming_pcm) != parity_check_fingerprint(other)
        assert parity_check_fingerprint(hamming_pcm) == parity_check_fingerprint(hamming_pcm)
