"""The native min-sum backend: its fallback, its cache, its dispatch and its agreement with numpy."""

import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.decode import FixedIterations, SyndromeStopping, native
from repro.decode.graph import TannerGraph
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


def settle_and_decode(graph, messages, bits):
    """Settle the backend through the graph's kernels; return the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(2):
            got = graph.min_sum_extrinsic(messages, scale=0.8)
            ok = graph.syndrome_ok(bits)
    want = graph._numpy_min_sum_extrinsic(messages, scale=0.8, offset=0.0)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(ok, graph._numpy_syndrome_ok(bits))
    return [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.fixture
def small_graph(hamming_pcm, rng):
    graph = TannerGraph(hamming_pcm)
    messages = rng.normal(size=(5, graph.num_edges))
    bits = rng.integers(0, 2, size=(5, graph.num_bits), dtype=np.uint8)
    return graph, messages, bits


class TestFallback:
    """Every failure leaves the process on numpy, with exactly one warning."""

    def assert_on_numpy(self, small_graph, reason):
        caught = settle_and_decode(*small_graph)
        assert len(caught) == 1, [str(w.message) for w in caught]
        assert reason in str(caught[0].message)
        assert native.kernels() is None

    @pytest.mark.usefixtures("fresh_backend", "empty_cache")
    def test_no_compiler(self, monkeypatch, small_graph):
        monkeypatch.setattr(native, "COMPILER", "repro-no-such-cc")
        self.assert_on_numpy(small_graph, "no C compiler")

    @pytest.mark.skipif(shutil.which(native.COMPILER) is None, reason="no C compiler")
    @pytest.mark.usefixtures("fresh_backend", "empty_cache")
    def test_failed_compile(self, monkeypatch, tmp_path, small_graph):
        broken = tmp_path / "native.c"
        broken.write_text("this is not C\n")
        monkeypatch.setattr(native, "SOURCE", broken)
        self.assert_on_numpy(small_graph, "exited with code")

    @pytest.mark.usefixtures("fresh_backend")
    def test_unwritable_cache_directory(self, monkeypatch, tmp_path, small_graph):
        # A path below a regular file cannot be written, whoever runs this.
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        monkeypatch.setattr(native, "_cache_directory", lambda: (blocker / "cache", False))
        self.assert_on_numpy(small_graph, "cannot build or load")

    @pytest.mark.usefixtures("fresh_backend")
    def test_probe_mismatch(self, monkeypatch, small_graph, native_backend):
        exact = native.NativeKernels.min_sum

        def flipped(self, *args):
            return -exact(self, *args)

        monkeypatch.setattr(native.NativeKernels, "min_sum", flipped)
        self.assert_on_numpy(small_graph, "disagrees with numpy on min_sum_extrinsic")

    @pytest.mark.usefixtures("fresh_backend")
    def test_probe_mismatch_in_the_streaming_decode(self, monkeypatch, small_graph, native_backend):
        exact = native.NativeKernels.decode_min_sum

        def one_iteration_more(self, *args):
            bits, posterior, converged, iterations = exact(self, *args)
            return bits, posterior, converged, iterations + 1

        monkeypatch.setattr(native.NativeKernels, "decode_min_sum", one_iteration_more)
        self.assert_on_numpy(small_graph, "disagrees with numpy on decode_min_sum(min-sum")


class TestBuild:
    def test_nothing_is_loaded_before_the_first_decode(self):
        """Building a decoder neither imports, compiles nor loads the kernels."""
        probe = (
            "import sys\n"
            "from repro.codes import build_scaled_ccsds_code\n"
            "from repro.registry import get_component\n"
            "code = build_scaled_ccsds_code(7)\n"
            "get_component('decoder', 'nms').build(code)\n"
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

    def test_only_a_private_directory_is_trusted(self, tmp_path):
        directory = tmp_path / "cache"
        directory.mkdir()
        directory.chmod(0o755)
        assert native._private(directory)
        directory.chmod(0o775)
        assert not native._private(directory)


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


class TestDispatch:
    """The streaming kernel decodes the flooding min-sum kinds; the rest keep the loop."""

    @pytest.fixture
    def streamed(self, monkeypatch, native_backend):
        """Every batch the streaming kernel decodes, by its number of frames."""
        calls = []
        exact = native.NativeKernels.decode_min_sum

        def counting(self, graph, llrs, *args):
            calls.append(llrs.shape[0])
            return exact(self, graph, llrs, *args)

        monkeypatch.setattr(native.NativeKernels, "decode_min_sum", counting)
        return calls

    @staticmethod
    def decode(kind, code, rng, **kwargs):
        decoder = get_component("decoder", kind).build(code, max_iterations=6, **kwargs)
        return decoder.decode_batch(6.0 + 4.0 * rng.normal(size=(9, code.block_length)))

    @pytest.mark.parametrize("kind", ["min-sum", "nms", "offset", "nms-batched"])
    @pytest.mark.parametrize(
        "stopping",
        [SyndromeStopping(), SyndromeStopping(3), FixedIterations()],
        ids=["syndrome", "syndrome-after-3", "fixed"],
    )
    def test_min_sum_kinds_stream(self, streamed, kind, stopping, scaled_code, rng):
        self.decode(kind, scaled_code, rng, stopping=stopping)
        assert streamed == [9]

    @pytest.mark.parametrize("kind", ["quantized", "layered", "sum-product"])
    def test_other_kinds_take_the_loop(self, streamed, kind, scaled_code, rng):
        self.decode(kind, scaled_code, rng)
        assert streamed == []

    def test_a_stopping_subclass_takes_the_loop(self, streamed, scaled_code, rng):
        stopping = CountingStopping()
        self.decode("nms", scaled_code, rng, stopping=stopping)
        assert streamed == []
        assert stopping.calls > 1
