"""Unit tests for repro.encode.systematic."""

import hashlib
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

import repro.encode.systematic as systematic
from repro.codes.ccsds_c2 import build_ccsds_c2_code
from repro.codes.parity_check import ParityCheckMatrix
from repro.codes.systematic_form import default_encoder_cache_dir, parity_check_fingerprint
from repro.encode.systematic import SystematicEncoder, as_parity_check_matrix
from repro.gf2.dense import gf2_matmul, gf2_row_reduce
from repro.gf2.sparse import SparseBinaryMatrix

#: The cache file the previous version wrote for the (7, 4) Hamming code,
#: with its parity map one byte per bit.
LEGACY_CACHE_FILE = (
    Path(__file__).parent / "fixtures" / "encoder_cache" / "hamming-one-byte-map.npz"
)


@pytest.fixture
def fresh_hamming(hamming_pcm):
    """Builds new matrices equal to ``hamming_pcm``, with no systematic form yet."""
    return lambda: ParityCheckMatrix(hamming_pcm.to_dense())


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


@pytest.fixture(scope="class")
def c2_code():
    return build_ccsds_c2_code()


class TestFullC2Encoder:
    """The encoder at the paper's dimension, k = 7156: each parity bit is
    the XOR of 1789 table rows, one per group of four information bits."""

    def test_frames_are_codewords_carrying_their_information(self, c2_code):
        encoder = SystematicEncoder(c2_code)
        assert encoder.dimension == 7156
        info = np.random.default_rng(7156).integers(
            0, 2, size=(64, encoder.dimension), dtype=np.uint8
        )
        codewords = encoder.encode(info)
        assert bool(np.all(c2_code.parity_check_matrix().is_codeword(codewords)))
        assert np.array_equal(encoder.extract_information(codewords), info)

    def test_warm_build_reads_the_packed_form_without_dense_h(
        self, c2_code, monkeypatch, forbid_row_reduction
    ):
        """A warm-cache build neither densifies nor reduces H, and peaks
        below 6 MB: the 0.9 MB packed map and the 3.7 MB of tables.  It
        peaked at 15.4 MB when it hashed dense H and read a byte per bit."""
        warm = SystematicEncoder(c2_code)
        fresh = build_ccsds_c2_code()
        fresh.parity_check_matrix()

        def densify(self):
            raise AssertionError("a parity-check matrix was densified")

        monkeypatch.setattr(SparseBinaryMatrix, "to_dense", densify)
        forbid_row_reduction(monkeypatch)
        tracemalloc.start()
        try:
            encoder = SystematicEncoder(fresh)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 << 20
        assert np.array_equal(encoder.information_positions, warm.information_positions)
        form = fresh.parity_check_matrix().systematic_form()
        assert form.parity_columns.shape == (7156, 128)

    def test_64_frame_encode_stays_below_a_megabyte(self, c2_code, native_backend):
        """The native encode writes into the codewords (523 KB for 64
        frames) and allocates nothing else of note; the numpy encode
        gathers 3.7 to 4 MB of table rows per chunk."""
        encoder = SystematicEncoder(c2_code)
        info = np.random.default_rng(64).integers(
            0, 2, size=(64, encoder.dimension), dtype=np.uint8
        )
        encoder.encode(info)
        tracemalloc.start()
        try:
            encoder.encode(info)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_encode_peak_memory_stays_below_a_float32_parity_map(self, c2_code):
        """A 256-frame encode allocates less than the 29 MB float32 copy of
        the parity map that a BLAS product would cast on every call."""
        encoder = SystematicEncoder(c2_code)
        info = np.random.default_rng(256).integers(
            0, 2, size=(256, encoder.dimension), dtype=np.uint8
        )
        float32_map = encoder.dimension * (encoder.block_length - encoder.dimension) * 4
        tracemalloc.start()
        try:
            encoder.encode(info)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < float32_map


class TestPackedEncode:
    """The table product against :func:`gf2_matmul`.  With ``H = [I | A]``
    the reduction keeps H as it is, so the parity map is ``A`` itself.

    The encoder runs on the process's backend; :func:`systematic.m4ri_encode`,
    the numpy reference and fallback, is also called directly, with chunks
    of one frame, of a few and of the whole batch."""

    @seed(20261018)
    @settings(max_examples=60, deadline=5000)
    @given(
        parity_bits=st.integers(1, 150).filter(lambda m: m % 64),
        info_bits=st.integers(1, 90).filter(lambda k: k % 4),
        batch=st.integers(2, 70),
        chunk_bytes=st.sampled_from([1, 1 << 10, systematic._CHUNK_BYTES]),
        data=st.data(),
    )
    def test_matches_gf2_matmul(self, parity_bits, info_bits, batch, chunk_bytes, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rng"))
        a = rng.integers(0, 2, size=(parity_bits, info_bits), dtype=np.uint8)
        h = np.concatenate([np.eye(parity_bits, dtype=np.uint8), a], axis=1)
        pcm = ParityCheckMatrix(h)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(systematic, "_CHUNK_BYTES", chunk_bytes)
            patch.setenv("REPRO_ENCODER_CACHE", "off")
            encoder = SystematicEncoder(pcm)
            assert encoder.dimension == info_bits
            arguments = (
                encoder._tables, encoder._info_cols, encoder._pivot_cols, encoder.block_length
            )
            for frames in (0, 1, batch):
                info = rng.integers(0, 2, size=(frames, info_bits), dtype=np.uint8)
                for codewords in (encoder.encode(info), systematic.m4ri_encode(info, *arguments)):
                    assert codewords.shape == (frames, h.shape[1])
                    assert np.array_equal(codewords[:, :parity_bits], gf2_matmul(info, a.T))
                    assert np.array_equal(codewords[:, parity_bits:], info)
                    assert not gf2_matmul(h, codewords.T).any()
            single = encoder.encode(info[0])
        assert np.array_equal(single, codewords[0])


def rank_deficient(rng, parity_bits, length):
    """A random H whose last row is the XOR of two others, so its rank is short."""
    h = rng.integers(0, 2, size=(parity_bits, length), dtype=np.uint8)
    if parity_bits >= 3:
        h[-1] = h[0] ^ h[1]
    return h


class TestNativeEncodeMatchesNumpy:
    """The native M4RI encode against :func:`systematic.m4ri_encode`, its reference."""

    @seed(20261020)
    @settings(max_examples=50, deadline=5000)
    @given(
        parity_bits=st.integers(1, 140),
        info_bits=st.integers(1, 90).filter(lambda k: k % 4),
        batch=st.integers(1, 70),
        deficient=st.booleans(),
        data=st.data(),
    )
    def test_same_codewords(self, native_backend, parity_bits, info_bits, batch, deficient, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rng"))
        length = parity_bits + info_bits
        if deficient:
            h = rank_deficient(rng, parity_bits, length)
        else:
            h = rng.integers(0, 2, size=(parity_bits, length), dtype=np.uint8)
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_ENCODER_CACHE", "off")
            encoder = SystematicEncoder(ParityCheckMatrix(h))
        arguments = (
            encoder._tables, encoder._info_cols, encoder._pivot_cols, encoder.block_length
        )
        for frames in (1, batch):
            info = rng.integers(0, 2, size=(frames, encoder.dimension), dtype=np.uint8)
            want = systematic.m4ri_encode(info, *arguments)
            assert np.array_equal(native_backend.encode_m4ri(info, *arguments), want)
            assert np.array_equal(encoder.encode(info), want)
            assert not gf2_matmul(h, want.T).any()
        assert np.array_equal(encoder.encode(info[0]), want[0])

    def test_a_rank_deficient_h_has_fewer_parity_bits(self, native_backend):
        h = rank_deficient(np.random.default_rng(3), 12, 31)
        _, pivots = gf2_row_reduce(h)
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_ENCODER_CACHE", "off")
            encoder = SystematicEncoder(ParityCheckMatrix(h))
        assert len(pivots) < 12 and encoder.dimension == 31 - len(pivots)
        info = np.random.default_rng(4).integers(0, 2, size=(9, encoder.dimension), dtype=np.uint8)
        codewords = encoder.encode(info)
        assert not gf2_matmul(h, codewords.T).any()
        assert np.array_equal(encoder.extract_information(codewords), info)

    def test_without_the_library_the_numpy_encode_runs(self, scaled_encoder, monkeypatch):
        from repro.decode import native

        info = np.random.default_rng(9).integers(
            0, 2, size=(5, scaled_encoder.dimension), dtype=np.uint8
        )
        codewords = scaled_encoder.encode(info)
        calls = []
        reference = systematic.m4ri_encode

        def counting(*args):
            calls.append(args[0].shape)
            return reference(*args)

        monkeypatch.setattr(native, "kernels", lambda: None)
        monkeypatch.setattr(systematic, "m4ri_encode", counting)
        assert np.array_equal(scaled_encoder.encode(info), codewords)
        assert calls == [info.shape]

    def test_nonzero_bytes_select_rows_as_numpy_reads_them(self, native_backend):
        """Bytes above 1 reach the kernels only through direct calls; both
        read them as 1 when they select table rows, and copy them as they are."""
        rng = np.random.default_rng(21)
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_ENCODER_CACHE", "off")
            encoder = SystematicEncoder(ParityCheckMatrix(rng.integers(0, 2, size=(70, 81))))
        arguments = (
            encoder._tables, encoder._info_cols, encoder._pivot_cols, encoder.block_length
        )
        info = rng.integers(0, 256, size=(9, encoder.dimension), dtype=np.uint8)
        info[0] = 255
        want = systematic.m4ri_encode(info, *arguments)
        assert np.array_equal(native_backend.encode_m4ri(info, *arguments), want)
        binary = systematic.m4ri_encode((info != 0).view(np.uint8), *arguments)
        assert np.array_equal(want[:, encoder._pivot_cols], binary[:, encoder._pivot_cols])

    def test_an_empty_batch(self, native_backend, hamming_pcm):
        encoder = SystematicEncoder(hamming_pcm)
        assert encoder.encode(np.zeros((0, 4), dtype=np.uint8)).shape == (0, 7)


class TestEncoderDiskCache:
    """The cache directory comes from ``REPRO_ENCODER_CACHE``.  A matrix
    keeps its form once derived, so each encoder gets a fresh matrix."""

    def test_cache_file_written_and_loaded(
        self, fresh_hamming, tmp_path, monkeypatch, forbid_row_reduction
    ):
        monkeypatch.setenv("REPRO_ENCODER_CACHE", str(tmp_path))
        cold = SystematicEncoder(fresh_hamming())
        cached = list(tmp_path.glob("*.npz"))
        assert len(cached) == 1
        # A warm build must not run Gaussian elimination at all.
        forbid_row_reduction(monkeypatch)
        warm = SystematicEncoder(fresh_hamming())
        info = np.array([[1, 0, 1, 1], [0, 1, 1, 0]], dtype=np.uint8)
        assert np.array_equal(cold.encode(info), warm.encode(info))
        assert np.array_equal(
            cold.information_positions, warm.information_positions
        )

    def test_cache_keeps_its_file_format(self, fresh_hamming, tmp_path, monkeypatch):
        """The ``.npz`` keys, and the map packed by information column: one
        byte holds the three parity bits of each of the four columns."""
        monkeypatch.setenv("REPRO_ENCODER_CACHE", str(tmp_path))
        SystematicEncoder(fresh_hamming())
        (cache_file,) = tmp_path.glob("*.npz")
        assert cache_file.stem == parity_check_fingerprint(fresh_hamming())
        with np.load(cache_file) as data:
            assert sorted(data.files) == ["info_cols", "parity_columns", "pivot_cols"]
            assert data["parity_columns"].dtype == np.uint8
            assert data["parity_columns"].shape == (4, 1)
            assert data["pivot_cols"].tolist() == [0, 1, 3]
            assert data["info_cols"].tolist() == [2, 4, 5, 6]
            # Column j's parity bits, little-endian: the reduced H's column
            # info_cols[j], read down the pivot rows.
            assert data["parity_columns"].ravel().tolist() == [0b011, 0b111, 0b110, 0b101]

    def test_a_cache_file_of_the_one_byte_map_is_read_and_rewritten_packed(
        self, fresh_hamming, tmp_path, monkeypatch, forbid_row_reduction
    ):
        """A file the previous version wrote for the Hamming code holds
        ``parity_map``, one byte per bit, under the name the current version
        looks up: it is read without any row reduction, then rewritten in
        the packed format."""
        monkeypatch.setenv("REPRO_ENCODER_CACHE", "off")
        reference = SystematicEncoder(fresh_hamming())
        with np.load(LEGACY_CACHE_FILE) as data:
            assert sorted(data.files) == ["info_cols", "parity_map", "pivot_cols"]
            assert data["parity_map"].shape == (3, 4)
        cache_file = tmp_path / f"{parity_check_fingerprint(fresh_hamming())}.npz"
        shutil.copyfile(LEGACY_CACHE_FILE, cache_file)
        monkeypatch.setenv("REPRO_ENCODER_CACHE", str(tmp_path))
        forbid_row_reduction(monkeypatch)
        legacy = SystematicEncoder(fresh_hamming())
        info = np.array([[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 1, 1]], dtype=np.uint8)
        assert np.array_equal(legacy.encode(info), reference.encode(info))
        assert np.array_equal(legacy.information_positions, reference.information_positions)
        with np.load(cache_file) as data:
            assert sorted(data.files) == ["info_cols", "parity_columns", "pivot_cols"]
        assert np.array_equal(SystematicEncoder(fresh_hamming()).encode(info), legacy.encode(info))

    def test_distinct_matrices_get_distinct_entries(
        self, fresh_hamming, scaled_code, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_ENCODER_CACHE", str(tmp_path))
        SystematicEncoder(fresh_hamming())
        SystematicEncoder(ParityCheckMatrix(scaled_code.parity_check_matrix().sparse))
        assert len(list(tmp_path.glob("*.npz"))) == 2

    def test_corrupt_cache_falls_back_to_recompute(self, fresh_hamming, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ENCODER_CACHE", "off")
        reference = SystematicEncoder(fresh_hamming())
        monkeypatch.setenv("REPRO_ENCODER_CACHE", str(tmp_path))
        SystematicEncoder(fresh_hamming())
        (cache_file,) = tmp_path.glob("*.npz")
        cache_file.write_bytes(b"not an npz archive")
        recovered = SystematicEncoder(fresh_hamming())
        info = np.array([1, 0, 1, 1], dtype=np.uint8)
        assert np.array_equal(reference.encode(info), recovered.encode(info))

    def test_cache_off_writes_nothing(self, fresh_hamming, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.setenv("REPRO_ENCODER_CACHE", "off")
        pcm = fresh_hamming()
        SystematicEncoder(pcm)
        assert pcm.dimension == 4
        assert not any(tmp_path.iterdir())

    def test_env_variable_controls_default(self, fresh_hamming, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ENCODER_CACHE", "off")
        assert default_encoder_cache_dir() is None
        monkeypatch.setenv("REPRO_ENCODER_CACHE", str(tmp_path / "cachedir"))
        assert default_encoder_cache_dir() == tmp_path / "cachedir"
        SystematicEncoder(fresh_hamming())
        assert len(list((tmp_path / "cachedir").glob("*.npz"))) == 1

    def test_fingerprint_distinguishes_shapes_and_content(self, hamming_pcm):
        other = ParityCheckMatrix(
            np.array([[1, 1, 0, 1, 1, 0, 1], [1, 0, 1, 1, 0, 1, 0],
                      [0, 1, 1, 1, 0, 0, 1]], dtype=np.uint8)
        )
        assert parity_check_fingerprint(hamming_pcm) != parity_check_fingerprint(other)
        assert parity_check_fingerprint(hamming_pcm) == parity_check_fingerprint(hamming_pcm)

    @seed(20261021)
    @settings(max_examples=40, deadline=5000)
    @given(rows=st.integers(1, 13), cols=st.integers(1, 29), data=st.data())
    def test_fingerprint_is_the_hash_of_the_dense_packed_bits(self, rows, cols, data):
        """The name cache files have always had: SHA-256 of the shape, as two
        int64 values, and of ``np.packbits`` of dense H, whatever ``rows * cols``
        is modulo 8."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rng"))
        h = (rng.random((rows, cols)) < data.draw(st.sampled_from([0.0, 0.2, 0.7]))).astype(
            np.uint8
        )
        digest = hashlib.sha256()
        digest.update(np.asarray(h.shape, dtype=np.int64).tobytes())
        digest.update(np.packbits(h, axis=None).tobytes())
        assert parity_check_fingerprint(ParityCheckMatrix(h)) == digest.hexdigest()
