"""The native min-sum backend: its fallback, its cache, its entries, its dispatch and its agreement with numpy."""

import fnmatch
import os
import runpy
import shutil
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.channel.quantize import FixedPointFormat
from repro.decode import (
    FixedIterations,
    LayeredMinSumDecoder,
    NormalizedMinSumDecoder,
    QuantizedMinSumDecoder,
    SyndromeStopping,
    native,
)
from repro.decode.base import StreamingParameters
from repro.registry import get_component


@pytest.fixture
def fresh_backend(monkeypatch):
    """A process backend not yet settled, restored to the real one afterwards."""
    monkeypatch.setattr(native, "_BACKEND", native._Backend())


@pytest.fixture
def empty_cache(monkeypatch, tmp_path):
    """Build into an empty private directory instead of the package cache."""
    cache = tmp_path / "cache"
    cache.mkdir(mode=0o700)
    monkeypatch.setattr(native, "_cache_directory", lambda: (cache, False))
    return cache


def settle_and_decode(decoder, llrs):
    """Settle the backend through two decodes; return the warnings they raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first, second = (decoder.decode_batch(llrs) for _ in range(2))
    assert np.array_equal(first.posterior_llrs.view(np.int64), second.posterior_llrs.view(np.int64))
    assert np.array_equal(first.iterations, second.iterations)
    return [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.fixture
def small_decoder(hamming_pcm, rng):
    """An nms decoder, which streams, and five frames of LLRs to settle it on."""
    decoder = get_component("decoder", "nms").build(hamming_pcm, max_iterations=5)
    return decoder, rng.normal(1.0, 1.0, size=(5, hamming_pcm.block_length))


class TestFallback:
    """Every failure leaves the process on numpy, with exactly one warning."""

    def assert_on_numpy(self, small_decoder, reason):
        caught = settle_and_decode(*small_decoder)
        assert len(caught) == 1, [str(w.message) for w in caught]
        assert reason in str(caught[0].message)
        assert native.kernels() is None

    @pytest.mark.usefixtures("fresh_backend", "empty_cache")
    def test_no_compiler(self, monkeypatch, small_decoder):
        monkeypatch.setattr(native, "COMPILER", "repro-no-such-cc")
        self.assert_on_numpy(small_decoder, "no C compiler")

    @pytest.mark.skipif(shutil.which(native.COMPILER) is None, reason="no C compiler")
    @pytest.mark.usefixtures("fresh_backend", "empty_cache")
    def test_failed_compile(self, monkeypatch, tmp_path, small_decoder):
        broken = tmp_path / "native.c"
        broken.write_text("this is not C\n")
        monkeypatch.setattr(native, "SOURCES", (broken,))
        self.assert_on_numpy(small_decoder, "exited with code")

    @pytest.mark.usefixtures("fresh_backend")
    def test_unwritable_cache_directory(self, monkeypatch, tmp_path, small_decoder):
        # A path below a regular file cannot be written, whoever runs this.
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        monkeypatch.setattr(native, "_cache_directory", lambda: (blocker / "cache", False))
        self.assert_on_numpy(small_decoder, "cannot build or load")

    @pytest.mark.usefixtures("fresh_backend")
    def test_probe_mismatch(self, monkeypatch, small_decoder, native_backend):
        exact = native.NativeKernels.decode_min_sum

        def misquantized(self, graph, llrs, parameters, *args):
            bits, posterior, converged, iterations = exact(self, graph, llrs, parameters, *args)
            if parameters.message_format is not None:
                posterior = -posterior
            return bits, posterior, converged, iterations

        monkeypatch.setattr(native.NativeKernels, "decode_min_sum", misquantized)
        self.assert_on_numpy(small_decoder, "disagrees with numpy on decode_min_sum(quantized")

    @pytest.mark.usefixtures("fresh_backend")
    def test_probe_mismatch_in_the_streaming_decode(self, monkeypatch, small_decoder, native_backend):
        exact = native.NativeKernels.decode_min_sum

        def one_iteration_more(self, *args):
            bits, posterior, converged, iterations = exact(self, *args)
            return bits, posterior, converged, iterations + 1

        monkeypatch.setattr(native.NativeKernels, "decode_min_sum", one_iteration_more)
        self.assert_on_numpy(small_decoder, "disagrees with numpy on decode_min_sum(min-sum")


    @pytest.mark.usefixtures("fresh_backend")
    def test_probe_mismatch_in_the_encode(self, monkeypatch, small_decoder, native_backend):
        exact = native.NativeKernels.encode_m4ri

        def one_bit_flipped(self, *args):
            codewords = exact(self, *args)
            codewords[-1, -1] ^= 1
            return codewords

        monkeypatch.setattr(native.NativeKernels, "encode_m4ri", one_bit_flipped)
        self.assert_on_numpy(small_decoder, "disagrees with numpy on encode_m4ri")


class TestBuild:
    def test_nothing_is_loaded_before_the_first_decode(self):
        """Building a decoder or an encoder neither imports, compiles nor loads the kernels."""
        probe = (
            "import sys\n"
            "from repro.codes import build_scaled_ccsds_code\n"
            "from repro.encode import SystematicEncoder\n"
            "from repro.registry import get_component\n"
            "code = build_scaled_ccsds_code(7)\n"
            "get_component('decoder', 'nms').build(code)\n"
            "SystematicEncoder(code)\n"
            "assert 'repro.decode.native' not in sys.modules\n"
        )
        src = Path(native.__file__).parents[2]
        env = {**os.environ, "PYTHONPATH": str(src)}
        subprocess.run([sys.executable, "-c", probe], check=True, env=env, timeout=60)

    @pytest.mark.usefixtures("fresh_backend", "empty_cache", "native_backend")
    def test_build_lands_in_the_cache_under_a_hashed_name(self, empty_cache):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert native.kernels() is not None
        assert [p.name for p in empty_cache.iterdir()] == [native._library_name()]

    @pytest.mark.usefixtures("fresh_backend", "native_backend")
    def test_a_build_deletes_the_libraries_of_older_sources(self, empty_cache):
        (empty_cache / "native-0123456789abcdef.so").write_bytes(b"")
        (empty_cache / "notes.txt").write_text("kept\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert native.kernels() is not None
        assert sorted(p.name for p in empty_cache.iterdir()) == sorted(
            [native._library_name(), "notes.txt"]
        )

    def test_editing_only_the_avx2_unit_renames_the_library(self, monkeypatch, tmp_path):
        """The name hashes each source's bytes, the unit that includes ``native.c`` too."""
        name = native._library_name()
        copies = []
        for source in native.SOURCES:
            copies.append(tmp_path / source.name)
            copies[-1].write_bytes(source.read_bytes())
        monkeypatch.setattr(native, "SOURCES", tuple(copies))
        assert native._library_name() == name
        wrapper = tmp_path / "native_avx2.c"
        wrapper.write_text(wrapper.read_text() + "/* edited */\n")
        assert native._library_name() != name

    def test_setup_ships_every_c_file_beside_the_loader(self, monkeypatch):
        """``package_data`` names every C source, read from a run of setup.py."""
        root = Path(native.__file__).parents[3]
        if not (root / "setup.py").exists():
            pytest.skip("not a source checkout")
        captured = {}
        setuptools = types.ModuleType("setuptools")
        setuptools.find_packages = lambda **kwargs: []
        setuptools.setup = lambda **kwargs: captured.update(kwargs)
        monkeypatch.setitem(sys.modules, "setuptools", setuptools)
        runpy.run_path(str(root / "setup.py"))
        patterns = captured["package_data"]["repro.decode"]
        sources = sorted(path.name for path in Path(native.__file__).parent.glob("*.c"))
        assert sorted(source.name for source in native.SOURCES) == sources
        for name in sources:
            assert any(fnmatch.fnmatch(name, pattern) for pattern in patterns), name

    def test_only_a_private_directory_is_trusted(self, tmp_path):
        directory = tmp_path / "cache"
        directory.mkdir()
        directory.chmod(0o755)
        assert native._private(directory)
        directory.chmod(0o775)
        assert not native._private(directory)


def cpu_lists_avx2():
    """Whether ``/proc/cpuinfo`` lists the ``avx2`` flag (False where there is none)."""
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            return any(
                line.startswith("flags") and "avx2" in line.split() for line in cpuinfo
            )
    except OSError:
        return False


class TestEntry:
    """The loader binds the AVX2 entry exactly where the library's CPU query allows it."""

    def test_the_avx2_entry_is_bound_exactly_when_the_cpu_query_says_so(self, native_backend):
        library = native_backend._library
        runs_avx2 = native._runs_avx2(library)
        assert native_backend.entry == (native.WIDE_ENTRY if runs_avx2 else native.BASELINE_ENTRY)
        if hasattr(library, native.CPU_QUERY) and cpu_lists_avx2():
            assert runs_avx2

    @pytest.mark.usefixtures("fresh_backend", "native_backend")
    def test_without_avx2_the_baseline_entry_is_bound_and_probed(self, monkeypatch):
        probed = []
        probe = native._probe

        def recording(kernels):
            probed.append(kernels.entry)
            return probe(kernels)

        monkeypatch.setattr(native, "_runs_avx2", lambda library: False)
        monkeypatch.setattr(native, "_probe", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kernels = native.kernels()
        assert kernels is not None and kernels.entry == native.BASELINE_ENTRY
        assert probed == [native.BASELINE_ENTRY]


@pytest.mark.usefixtures("native_backend")
@pytest.mark.parametrize(
    "kind", ["nms", "min-sum", "offset", "layered", "quantized", "sum-product"]
)
def test_decode_is_bit_identical_on_both_backends(kind, monkeypatch, scaled_code, rng):
    """A decode of the scaled C2 twin gives the same DecodeResult on either backend."""
    decoder = get_component("decoder", kind).build(scaled_code, max_iterations=12)
    # Consistent Gaussian LLRs at the scaled code's waterfall: some frames
    # converge early, some never.
    llrs = 8.0 + 4.0 * rng.normal(size=(33, scaled_code.block_length))
    on_native = decoder.decode_batch(llrs)
    monkeypatch.setattr(native, "kernels", lambda: None)
    on_numpy = decoder.decode_batch(llrs)
    assert np.array_equal(on_native.bits, on_numpy.bits)
    assert np.array_equal(
        on_native.posterior_llrs.view(np.int64), on_numpy.posterior_llrs.view(np.int64)
    )
    assert np.array_equal(on_native.converged, on_numpy.converged)
    assert np.array_equal(on_native.iterations, on_numpy.iterations)
    assert 0 < on_native.converged.sum() < llrs.shape[0]


class CountingStopping(SyndromeStopping):
    """Syndrome stopping through its own ``should_stop``, which it counts."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def should_stop(self, iteration, syndrome_ok):
        self.calls += 1
        return super().should_stop(iteration, syndrome_ok)


class ClippedNms(NormalizedMinSumDecoder):
    """nms whose messages saturate at +-2."""

    def _condition_messages(self, messages):
        return np.clip(messages, -2.0, 2.0)


class HalvedNms(NormalizedMinSumDecoder):
    """nms whose check node sends half its messages."""

    def _check_node_update(self, bit_to_check):
        return 0.5 * super()._check_node_update(bit_to_check)


class ClippedQuantized(QuantizedMinSumDecoder):
    """The 6-bit decoder with its messages saturating at +-2."""

    def _condition_messages(self, messages):
        return np.clip(super()._condition_messages(messages), -2.0, 2.0)


class HalvedQuantized(QuantizedMinSumDecoder):
    """The 6-bit decoder whose check node sends half its messages."""

    def _check_node_update(self, bit_to_check):
        return 0.5 * super()._check_node_update(bit_to_check)


class TwoSweepLayered(LayeredMinSumDecoder):
    """Layered decoding with two sweeps over the layers per iteration."""

    def _iterate(self, llrs, state):
        state, _ = super()._iterate(llrs, state)
        return super()._iterate(llrs, state)


class TestDispatch:
    """Decoders that state streaming parameters stream; the rest keep the loop."""

    @pytest.fixture
    def streamed(self, monkeypatch, native_backend):
        """Every batch the native kernel decodes, by its number of frames."""
        calls = []
        exact = native.NativeKernels.decode_min_sum

        def counting(self, graph, llrs, *args):
            calls.append(llrs.shape[0])
            return exact(self, graph, llrs, *args)

        monkeypatch.setattr(native.NativeKernels, "decode_min_sum", counting)
        return calls

    @staticmethod
    def llrs(code, rng):
        return 6.0 + 4.0 * rng.normal(size=(9, code.block_length))

    @classmethod
    def decode(cls, kind, code, rng, **kwargs):
        decoder = get_component("decoder", kind).build(code, max_iterations=6, **kwargs)
        return decoder.decode_batch(cls.llrs(code, rng))

    @pytest.mark.parametrize(
        "kind", ["min-sum", "nms", "offset", "nms-batched", "quantized", "layered"]
    )
    @pytest.mark.parametrize(
        "stopping",
        [SyndromeStopping(), SyndromeStopping(3), FixedIterations()],
        ids=["syndrome", "syndrome-after-3", "fixed"],
    )
    def test_min_sum_kinds_stream(self, streamed, kind, stopping, scaled_code, rng):
        self.decode(kind, scaled_code, rng, stopping=stopping)
        assert streamed == [9]

    @pytest.mark.parametrize("kind", ["sum-product"])
    def test_other_kinds_take_the_loop(self, streamed, kind, scaled_code, rng):
        self.decode(kind, scaled_code, rng)
        assert streamed == []

    def test_a_stopping_subclass_takes_the_loop(self, streamed, scaled_code, rng):
        stopping = CountingStopping()
        self.decode("nms", scaled_code, rng, stopping=stopping)
        assert streamed == []
        assert stopping.calls > 1

    @pytest.mark.parametrize(
        "subclass, kind",
        [
            (ClippedNms, "nms"),
            (HalvedNms, "nms"),
            (ClippedQuantized, "quantized"),
            (HalvedQuantized, "quantized"),
            (TwoSweepLayered, "layered"),
        ],
        ids=lambda value: value if isinstance(value, str) else value.__name__,
    )
    def test_a_subclass_that_overrides_a_hook_takes_its_own_loop(
        self, streamed, monkeypatch, subclass, kind, scaled_code, rng
    ):
        """A subclass that does not restate the streaming parameters decodes on its own loop.

        It decodes otherwise than its base kind, and the same with the
        native kernels loaded as with the process on the loop alone.
        """
        llrs = self.llrs(scaled_code, rng)
        got = subclass(scaled_code, max_iterations=6).decode_batch(llrs)
        assert streamed == []
        base = get_component("decoder", kind).build(scaled_code, max_iterations=6)
        assert not np.array_equal(
            got.posterior_llrs.view(np.int64), base.decode_batch(llrs).posterior_llrs.view(np.int64)
        )
        monkeypatch.setattr(native, "kernels", lambda: None)
        want = subclass(scaled_code, max_iterations=6).decode_batch(llrs)
        assert np.array_equal(got.bits, want.bits)
        assert np.array_equal(got.posterior_llrs.view(np.int64), want.posterior_llrs.view(np.int64))
        assert np.array_equal(got.converged, want.converged)
        assert np.array_equal(got.iterations, want.iterations)


def test_the_layered_schedule_keeps_its_messages_exact():
    """No decoder quantizes a layered schedule, so the parameters refuse the pair."""
    with pytest.raises(ValueError, match="exact"):
        StreamingParameters(message_format=FixedPointFormat(6, 2), layer_starts=(0,))


@pytest.mark.parametrize("layer_starts", [(-1,), (0, 3, 2), (0, 99)])
def test_layer_starts_outside_the_graph_are_refused(layer_starts, native_backend, hamming_pcm):
    """The kernel indexes the graph by the layer starts, so they must be ordered checks of it."""
    decoder = get_component("decoder", "layered").build(hamming_pcm, max_iterations=3)
    with pytest.raises(ValueError, match="layer starts"):
        native_backend.decode_min_sum(
            decoder.edge_structure, np.ones((2, 7)), StreamingParameters(layer_starts=layer_starts), 3, 0
        )
