"""The native min-sum decode against the decoding loop.

``NativeKernels.decode_min_sum`` decodes a whole batch of every streamed
kind in one call: a few frames stay resident in lanes, and a lane takes the
next frame as soon as its own stops.  Every ``DecodeResult`` field must be
bit-identical to what the loop computes over the numpy ``TannerGraph``
methods, the posteriors through ``.view(np.int64)`` so that signed zeros
count.  The cases cover random graphs with empty and degree-1 checks and
bits of degree 0, LLRs with ties and signed zeros, every correction, the
quantizer on a channel grid equal to or finer than its message grid, one
to five layers (some holding only empty checks), both stopping rules
(batches where every frame runs ``max_iterations`` included), batches from
0 to 300 frames, the scaled C2 twins and the full C2 code, each on both of
the library's decode entries: the baseline build and the AVX2 build, which
skips where the CPU or the compiler has no AVX2.  The loop decodes each
case once: the entry that meets a case first compares with the loop's
decode and records its digest, and the other entry compares with that
digest.  Each case is also decoded without a posterior, as the simulator
decodes, which must give the same hard decisions, flags and iteration
counts.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.channel.awgn import ebn0_to_sigma
from repro.channel.quantize import FixedPointFormat
from repro.codes import build_scaled_ccsds_code
from repro.codes.ccsds_c2 import build_ccsds_c2_code
from repro.codes.parity_check import ParityCheckMatrix
from repro.decode import DecodeResult, FixedIterations, SyndromeStopping, native
from repro.registry import get_component

#: The kinds that stream.
KINDS = ["min-sum", "nms", "offset", "quantized", "layered"]
#: The same kinds with their parameters: each correction, none, trivial
#: (``alpha`` 1, ``beta`` 0) and real; the quantizer on Q4.2 alone and with
#: a channel format finer than its messages'; one, two and five layers.
DECODERS = [
    ("min-sum", {}),
    ("nms", {"alpha": 1.0}),
    ("nms", {"alpha": 1.25}),
    ("offset", {"beta": 0.0}),
    ("offset", {"beta": 0.5}),
    ("quantized", {}),
    (
        "quantized",
        {"message_format": FixedPointFormat(6, 2), "channel_format": FixedPointFormat(8, 4)},
    ),
    ("layered", {"num_layers": 1}),
    ("layered", {"num_layers": 2}),
    ("layered", {"num_layers": 5}),
]
STOPPING_RULES = [SyndromeStopping(), SyndromeStopping(2), FixedIterations()]
STOPPING_IDS = ["syndrome", "syndrome-after-2", "fixed"]

#: Eb/N0 (dB) and batch of the full C2 cases: below the waterfall, where
#: every frame runs 18 iterations, in it and above it.
C2_CASES = [(3.0, 37), (3.7, 64), (3.7, 131), (4.5, 16)]

#: LLR values that make ties and signed zeros common.
TIED_VALUES = np.array([0.0, -0.0, 0.25, -0.25, 1.0, -1.0])


def random_graph(rng, num_bits, check_degrees):
    """Checks of the given degrees on ``num_bits`` bits, one of which has no edge."""
    allowed = np.delete(np.arange(num_bits), rng.integers(num_bits))
    h = np.zeros((len(check_degrees), num_bits), dtype=np.uint8)
    for check, degree in enumerate(check_degrees):
        h[check, rng.choice(allowed, size=degree, replace=False)] = 1
    return ParityCheckMatrix(h)


def tied_llrs(rng, frames, num_bits, mean):
    """About half the LLRs drawn from ``TIED_VALUES``, the rest Gaussian around ``mean``."""
    tied = TIED_VALUES[rng.integers(0, TIED_VALUES.size, size=(frames, num_bits))]
    normal = rng.normal(mean, 1.0, size=(frames, num_bits))
    return np.where(rng.random((frames, num_bits)) < 0.5, tied, normal)


#: The digest of the loop's decode of each case, by the digest of the case.
LOOP_DIGESTS: dict[bytes, bytes] = {}


def digest(*arrays):
    """SHA-256 over the dtype, shape and bytes of each array, signed zeros included."""
    sha = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        sha.update(f"{array.dtype.str}{array.shape}".encode())
        sha.update(array.tobytes())
    return sha.digest()


def result_digest(result):
    """The digest of every ``DecodeResult`` field."""
    return digest(
        result.bits.astype(np.uint8),
        result.posterior_llrs.astype(np.float64),
        result.converged.astype(bool),
        result.iterations.astype(np.int64),
    )


def case_digest(decoder, arguments, llrs, conditioned):
    """Everything the loop's decode of ``llrs`` depends on."""
    stopping = decoder.stopping
    identity = repr(
        (type(decoder).__qualname__, arguments, type(stopping).__qualname__, vars(stopping))
    )
    return digest(
        np.frombuffer(identity.encode(), dtype=np.uint8),
        *decoder.parity_check.edges(),
        np.asarray(llrs, dtype=np.float64),
        conditioned,
    )


def assert_streams_like_the_loop(kernels, decoder, llrs):
    """The native decode of ``llrs`` is the loop's, field for field and bit for bit.

    The kernel, like the loop, decodes the LLRs that the decoder's channel
    conditioning gives.  A case the loop has decoded before compares by
    digest; a difference decodes it on the loop again to show the field.
    The decode without a posterior must match the full one on every other
    field.
    """
    arguments = decoder._streaming_arguments()
    assert arguments is not None
    conditioned = decoder._condition_channel(llrs)
    got = DecodeResult(*kernels.decode_min_sum(decoder.edge_structure, conditioned, *arguments))
    lean = DecodeResult(
        *kernels.decode_min_sum(decoder.edge_structure, conditioned, *arguments, posterior=False)
    )
    assert lean.posterior_llrs is None
    assert digest(lean.bits, lean.converged, lean.iterations) == digest(
        got.bits, got.converged, got.iterations
    )
    case = case_digest(decoder, arguments, llrs, conditioned)
    if LOOP_DIGESTS.get(case) == result_digest(got):
        return got
    want = decoder.decode_batch(llrs)
    assert np.array_equal(got.bits, want.bits)
    assert np.array_equal(got.posterior_llrs.view(np.int64), want.posterior_llrs.view(np.int64))
    assert np.array_equal(got.converged, want.converged)
    assert np.array_equal(got.iterations, want.iterations)
    LOOP_DIGESTS[case] = result_digest(want)
    return want


@st.composite
def streaming_cases(draw):
    """A random graph, a decoder on it and a batch of 0-70 frames of tied LLRs.

    Half the graphs are check-regular with degree 1-8; the others have
    check degrees 0-8, always with an empty and a degree-1 check.  Every
    graph has a bit of degree 0.
    """
    num_bits = draw(st.integers(9, 16))
    if draw(st.booleans()):
        degrees = [draw(st.integers(1, 8))] * draw(st.integers(1, 12))
    else:
        degrees = [0, 1] + draw(st.lists(st.integers(0, 8), max_size=10))
    kind, params = draw(st.sampled_from(DECODERS))
    stopping = draw(
        st.one_of(st.integers(0, 3).map(SyndromeStopping), st.just(FixedIterations()))
    )
    max_iterations = draw(st.integers(1, 8))
    frames = draw(st.integers(0, 70))
    mean = draw(st.sampled_from([0.0, 1.0, 3.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pcm = random_graph(rng, num_bits, rng.permutation(degrees))
    decoder = get_component("decoder", kind).build(
        pcm, max_iterations=max_iterations, stopping=stopping, **params
    )
    return decoder, tied_llrs(rng, frames, num_bits, mean)


class TestStreamingMatchesTheLoop:
    """Native decodes on each decode entry; the reference decodes take the loop."""

    @pytest.fixture(autouse=True, scope="class", params=["baseline", "avx2"])
    def kernels(self, request, native_backend, numpy_backend):
        library = native_backend._library
        if request.param == "baseline":
            return native.NativeKernels(library, native.BASELINE_ENTRY)
        if not native._runs_avx2(library):
            pytest.skip("this CPU or compiler has no AVX2 entry")
        return native.NativeKernels(library, native.WIDE_ENTRY)

    @seed(20261018)
    @settings(max_examples=250, deadline=3000)
    @given(streaming_cases())
    def test_random_graphs(self, kernels, case):
        decoder, llrs = case
        assert_streams_like_the_loop(kernels, decoder, llrs)

    @pytest.mark.parametrize("stopping", STOPPING_RULES, ids=STOPPING_IDS)
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("frames", [131, 300])
    def test_many_frames_on_a_random_graph(self, kernels, frames, kind, stopping):
        rng = np.random.default_rng(frames)
        pcm = random_graph(rng, 16, [0, 1, 2, 3, 4, 6, 8, 8])
        decoder = get_component("decoder", kind).build(pcm, max_iterations=8, stopping=stopping)
        assert_streams_like_the_loop(kernels, decoder, tied_llrs(rng, frames, 16, 1.0))

    @pytest.mark.parametrize("stopping", STOPPING_RULES, ids=STOPPING_IDS)
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("circulant", [31, 63])
    def test_scaled_twins(self, kernels, circulant, kind, stopping):
        """Batches of 1, 3, 33 and 131 at three SNRs, with ties and signed zeros."""
        code = build_scaled_ccsds_code(circulant)
        decoder = get_component("decoder", kind).build(code, max_iterations=12, stopping=stopping)
        rng = np.random.default_rng(circulant)
        n = code.block_length
        for mean in (3.0, 6.0, 9.0):
            for frames in (1, 3, 33, 131):
                llrs = mean + 4.0 * rng.normal(size=(frames, n))
                tied = rng.random((frames, n)) < 0.05
                llrs[tied] = TIED_VALUES[rng.integers(0, TIED_VALUES.size, size=tied.sum())]
                assert_streams_like_the_loop(kernels, decoder, llrs)

    @pytest.mark.parametrize("ebn0, frames", C2_CASES)
    def test_full_c2_code(self, kernels, ebn0, frames):
        """The paper's decoder: nms, alpha 1.25, 18 iterations, all-zero codewords."""
        assert_decodes_c2_like_the_loop(kernels, "nms", ebn0, frames)

    @pytest.mark.parametrize("ebn0, frames", C2_CASES)
    @pytest.mark.parametrize("kind", ["quantized", "layered"])
    def test_full_c2_code_of_the_other_kinds(self, kernels, kind, ebn0, frames):
        """The 6-bit datapath (Q4.2) and the two block-row layers, as the paper's decoder."""
        assert_decodes_c2_like_the_loop(kernels, kind, ebn0, frames)


def assert_decodes_c2_like_the_loop(kernels, kind, ebn0, frames):
    """``kind`` at alpha 1.25 and 18 iterations on all-zero C2 codewords, with signed zeros."""
    code = build_ccsds_c2_code()
    decoder = get_component("decoder", kind).build(code, max_iterations=18)
    sigma = ebn0_to_sigma(ebn0, 7154 / 8176)
    rng = np.random.default_rng(frames)
    llrs = 2.0 * (1.0 + sigma * rng.normal(size=(frames, code.block_length))) / sigma**2
    llrs[0, :4] = [0.0, -0.0, -0.0, 0.0]
    want = assert_streams_like_the_loop(kernels, decoder, llrs)
    if ebn0 == 3.0:
        assert (want.iterations == 18).all()
    else:
        assert want.converged.any()
