"""Unit tests for repro.decode.graph (shared Tanner graph and update kernels)."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.codes import build_scaled_ccsds_code
from repro.codes.ccsds_c2 import build_ccsds_c2_code
from repro.codes.parity_check import ParityCheckMatrix
from repro.decode import MinSumDecoder, NormalizedMinSumDecoder
from repro.decode.graph import TannerGraph, tanner_graph


@pytest.fixture
def small_structure(hamming_pcm):
    return tanner_graph(hamming_pcm)


def brute_force_min_sum(pcm, bit_to_check, scale=1.0, offset=0.0):
    """Reference check-node update, edge by edge, rounded as the kernels round.

    An outgoing message's sign is the parity of the *other* messages that
    are ``< 0`` (so ``-0.0`` counts as positive), and its magnitude is their
    minimum, reduced by ``offset`` (clamped at 0) and then scaled.  A
    degree-1 check has no other message and sends ``+0.0``.
    """
    check_idx, _ = pcm.edges()
    values = np.asarray(bit_to_check, dtype=np.float64)
    out = np.zeros(values.shape)
    for check in np.unique(check_idx):
        edges = np.flatnonzero(check_idx == check)
        if edges.size == 1:
            continue
        # Row i of ``exclude`` lists every position of the check but i.
        slots = np.arange(edges.size - 1)
        exclude = slots + (slots >= np.arange(edges.size)[:, None])
        others = values[:, edges][:, exclude]
        negative = np.count_nonzero(others < 0, axis=2) % 2 == 1
        magnitude = np.abs(others).min(axis=2)
        magnitude = np.maximum(magnitude - offset, 0.0) * scale
        out[:, edges] = np.where(negative, -1.0, 1.0) * magnitude
    return out


def brute_force_sum_product(pcm, bit_to_check):
    """Reference BP check-node update computed edge by edge."""
    check_idx, _ = pcm.edges()
    out = np.zeros_like(bit_to_check)
    for frame in range(bit_to_check.shape[0]):
        for e in range(check_idx.size):
            same_check = np.nonzero(check_idx == check_idx[e])[0]
            others = same_check[same_check != e]
            product = np.prod(np.tanh(bit_to_check[frame, others] / 2.0))
            product = np.clip(product, -1 + 1e-12, 1 - 1e-12)
            out[frame, e] = 2.0 * np.arctanh(product)
    return out


class TestStructure:
    def test_edge_counts(self, small_structure, hamming_pcm):
        assert small_structure.num_edges == hamming_pcm.num_edges
        assert small_structure.num_bits == 7
        assert small_structure.num_checks == 3

    def test_sum_per_bit_matches_bincount(self, small_structure, rng):
        values = rng.normal(size=(2, small_structure.num_edges))
        totals = small_structure.sum_per_bit(values)
        for frame in range(2):
            expected = np.bincount(
                small_structure.edge_bit, weights=values[frame], minlength=7
            )
            assert np.allclose(totals[frame], expected)

    def test_sum_per_check_matches_bincount(self, small_structure, rng):
        values = rng.normal(size=(3, small_structure.num_edges))
        totals = small_structure.sum_per_check(values)
        for frame in range(3):
            expected = np.bincount(
                small_structure.edge_check, weights=values[frame], minlength=3
            )
            assert np.allclose(totals[frame], expected)

    def test_gather_inverse_of_sum_shapes(self, small_structure, rng):
        per_bit = rng.normal(size=(1, 7))
        gathered = small_structure.gather_bits(per_bit)
        assert gathered.shape == (1, small_structure.num_edges)


class TestMinSumKernel:
    def test_matches_brute_force(self, hamming_pcm, rng):
        structure = tanner_graph(hamming_pcm)
        messages = rng.normal(size=(3, structure.num_edges))
        fast = structure.min_sum_extrinsic(messages)
        slow = brute_force_min_sum(hamming_pcm, messages)
        assert np.allclose(fast, slow)

    def test_scale_and_offset(self, hamming_pcm, rng):
        structure = tanner_graph(hamming_pcm)
        messages = rng.normal(size=(2, structure.num_edges))
        assert np.allclose(
            structure.min_sum_extrinsic(messages, scale=0.8),
            brute_force_min_sum(hamming_pcm, messages, scale=0.8),
        )
        assert np.allclose(
            structure.min_sum_extrinsic(messages, offset=0.3),
            brute_force_min_sum(hamming_pcm, messages, offset=0.3),
        )

    def test_duplicate_minimum_handled(self, hamming_pcm):
        structure = tanner_graph(hamming_pcm)
        # All magnitudes equal: the extrinsic magnitude must stay that value.
        messages = np.ones((1, structure.num_edges))
        out = structure.min_sum_extrinsic(messages)
        assert np.allclose(np.abs(out), 1.0)

    def test_matches_brute_force_on_qc_code(self, scaled_code, rng):
        pcm = scaled_code.parity_check_matrix()
        structure = tanner_graph(pcm)
        messages = rng.normal(size=(1, structure.num_edges))
        fast = structure.min_sum_extrinsic(messages)
        # Only check a subset of edges against brute force (the full brute
        # force on 992 edges x 32-degree checks is still fast enough).
        slow = brute_force_min_sum(pcm, messages)
        assert np.allclose(fast, slow)


class TestSumProductKernel:
    def test_matches_brute_force(self, hamming_pcm, rng):
        structure = tanner_graph(hamming_pcm)
        messages = rng.normal(size=(2, structure.num_edges))
        assert np.allclose(
            structure.sum_product_extrinsic(messages),
            brute_force_sum_product(hamming_pcm, messages),
            atol=1e-6,
        )

    def test_min_sum_upper_bounds_bp(self, hamming_pcm, rng):
        """|min-sum output| >= |BP output| on every edge (the known bias)."""
        structure = tanner_graph(hamming_pcm)
        messages = rng.normal(size=(4, structure.num_edges))
        ms = np.abs(structure.min_sum_extrinsic(messages))
        bp = np.abs(structure.sum_product_extrinsic(messages))
        assert (ms >= bp - 1e-9).all()

    def test_signs_agree(self, hamming_pcm, rng):
        structure = tanner_graph(hamming_pcm)
        messages = rng.normal(size=(2, structure.num_edges)) * 3
        ms = structure.min_sum_extrinsic(messages)
        bp = structure.sum_product_extrinsic(messages)
        nonzero = (np.abs(ms) > 1e-9) & (np.abs(bp) > 1e-9)
        assert np.array_equal(np.sign(ms[nonzero]), np.sign(bp[nonzero]))


#: Message values that make ties and signed zeros common.
TIED_VALUES = np.array([0.0, -0.0, 0.25, -0.25, 1.0, -1.0])


def tied_messages(rng, rows, num_edges):
    """``(rows, num_edges)`` messages, about half drawn from ``TIED_VALUES``."""
    tied = TIED_VALUES[rng.integers(0, TIED_VALUES.size, size=(rows, num_edges))]
    normal = rng.normal(size=(rows, num_edges))
    return np.where(rng.random((rows, num_edges)) < 0.5, tied, normal)


def ordered_bit_sums(pcm, values):
    """The documented order, edge by edge: ``m0 + ((m1 + m2) + …)`` per bit.

    A bit's messages are taken in bit-sorted edge order, which lists its
    edges by check, as ``pcm.edges()`` does.
    """
    _, bit_idx = pcm.edges()
    totals = np.zeros((values.shape[0], pcm.block_length))
    for bit in range(pcm.block_length):
        edges = np.flatnonzero(bit_idx == bit)
        if edges.size == 0:
            continue
        total = values[:, edges[0]].copy()
        if edges.size > 1:
            rest = values[:, edges[1]].copy()
            for edge in edges[2:]:
                rest = rest + values[:, edge]
            total = total + rest
        totals[:, bit] = total
    return totals


def reduceat_bit_sums(pcm, values):
    """``np.add.reduceat`` over bit-sorted segments; bits with no edge get 0."""
    _, bit_idx = pcm.edges()
    order = np.argsort(bit_idx, kind="stable")
    bit_ids, starts = np.unique(bit_idx[order], return_index=True)
    totals = np.zeros((values.shape[0], pcm.block_length))
    if bit_ids.size:
        totals[:, bit_ids] = np.add.reduceat(values[:, order], starts, axis=1)
    return totals


@st.composite
def bit_node_cases(draw):
    """A random graph with bit degrees 0-8 and a batch of tied messages."""
    num_checks = draw(st.integers(8, 12))
    # Every graph has an empty and a degree-1 bit, at random columns.
    degrees = [0, 1] + draw(st.lists(st.integers(0, 8), max_size=22))
    rows = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = np.zeros((num_checks, len(degrees)), dtype=np.uint8)
    for bit, degree in enumerate(rng.permutation(degrees)):
        h[rng.choice(num_checks, size=degree, replace=False), bit] = 1
    pcm = ParityCheckMatrix(h)
    return pcm, tied_messages(rng, rows, pcm.num_edges)


class TestBitNodeSumOrder:
    """Bit-node sums in the documented order ``m0 + ((m1 + m2) + …)``.

    ``sum_per_bit`` and ``bit_node_update`` are compared bit for bit,
    signed zeros included, with the explicit order; it is the contract the
    native decode's bit node must match.  ``reduceat``, whose order it is,
    is compared by value only: numpy does not promise how its reductions
    treat signed zeros.  The methods are numpy only, whether or not the
    process has the native decode.
    """

    @staticmethod
    def assert_documented_order(graph, pcm, values, llrs, *, like_reduceat=True):
        expected = ordered_bit_sums(pcm, values)
        posterior = llrs + expected
        extrinsic = posterior[:, graph.edge_bit] - values
        # Message arrays reach the kernels frame-innermost (F-ordered).
        for layout in (np.ascontiguousarray, np.asfortranarray):
            totals = graph.sum_per_bit(layout(values))
            assert np.array_equal(totals.view(np.int64), expected.view(np.int64))
            if like_reduceat:
                assert np.array_equal(totals, reduceat_bit_sums(pcm, values))
            got_extrinsic, got_posterior = graph.bit_node_update(layout(llrs), layout(values))
            assert np.array_equal(got_posterior.view(np.int64), posterior.view(np.int64))
            assert np.array_equal(got_extrinsic.view(np.int64), extrinsic.view(np.int64))

    @seed(20260417)
    @settings(max_examples=60, deadline=2000)
    @given(bit_node_cases())
    def test_random_graphs_sum_in_the_documented_order(self, case):
        pcm, values = case
        llrs = tied_messages(np.random.default_rng(values.size), values.shape[0], pcm.block_length)
        self.assert_documented_order(TannerGraph(pcm), pcm, values, llrs)

    def test_bit_of_degree_twelve_sums_in_the_documented_order(self):
        """Past degree 8 ``reduceat`` sums in another order; the kernels do not."""
        rng = np.random.default_rng(12)
        h = (rng.random((14, 20)) < 0.2).astype(np.uint8)
        h[:12, 7] = 1
        pcm = ParityCheckMatrix(h)
        values = tied_messages(rng, 17, pcm.num_edges)
        llrs = tied_messages(rng, 17, pcm.block_length)
        graph = TannerGraph(pcm)
        assert int(graph.bit_degrees.max()) >= 12
        self.assert_documented_order(graph, pcm, values, llrs, like_reduceat=False)

    @pytest.mark.parametrize("rows", [16, 64, 131])
    def test_full_c2_code_sums_in_the_documented_order(self, rows):
        pcm = build_ccsds_c2_code().parity_check_matrix()
        rng = np.random.default_rng(rows)
        values = tied_messages(rng, rows, pcm.num_edges)
        llrs = tied_messages(rng, rows, pcm.block_length)
        self.assert_documented_order(tanner_graph(pcm), pcm, values, llrs)

    def test_graph_without_edges_sums_to_zero(self):
        pcm = ParityCheckMatrix(np.zeros((2, 3), dtype=np.uint8))
        graph = TannerGraph(pcm)
        zeros = np.zeros((4, 3))
        assert np.array_equal(graph.sum_per_bit(np.zeros((4, 0))).view(np.int64), zeros.view(np.int64))
        llrs = np.array([[-0.0, 1.5, -2.0]] * 4)
        extrinsic, posterior = graph.bit_node_update(llrs, np.zeros((4, 0)))
        assert extrinsic.shape == (4, 0)
        assert np.array_equal(posterior.view(np.int64), (llrs + 0.0).view(np.int64))


@st.composite
def check_node_cases(draw):
    """A random graph, a batch of tied messages and a batch of hard decisions.

    Half the graphs are check-regular with degree 1-8, whose edges reach the
    kernels in CSR order; the others have check degrees 0-8, always with an
    empty and a degree-1 check.  About a third of the hard-decision rows are
    all-zero, which is a codeword of every graph.
    """
    num_bits = draw(st.integers(8, 16))
    if draw(st.booleans()):
        degrees = [draw(st.integers(1, 8))] * draw(st.integers(1, 12))
    else:
        degrees = [0, 1] + draw(st.lists(st.integers(0, 8), max_size=10))
    rows = draw(st.integers(1, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = np.zeros((len(degrees), num_bits), dtype=np.uint8)
    for check, degree in enumerate(rng.permutation(degrees)):
        h[check, rng.choice(num_bits, size=degree, replace=False)] = 1
    pcm = ParityCheckMatrix(h)
    bits = rng.integers(0, 2, size=(rows, num_bits), dtype=np.uint8)
    bits[rng.random(rows) < 0.3] = 0
    return pcm, tied_messages(rng, rows, pcm.num_edges), bits


class TestCheckNodeReference:
    """``min_sum_extrinsic`` and ``syndrome_ok`` against edge-by-edge references.

    Messages are compared bit for bit, signed zeros included, with scale and
    with offset, for check-sorted messages in C and F layouts.  The methods
    are numpy only, whether or not the process has the native decode.
    """

    @staticmethod
    def assert_matches_references(graph, pcm, values, bits):
        layouts = (np.ascontiguousarray, np.asfortranarray)
        for correction in ({}, {"scale": 0.8}, {"offset": 0.25}):
            want = brute_force_min_sum(pcm, values, **correction).view(np.int64)
            for layout in layouts:
                got = graph.min_sum_extrinsic(layout(values), **correction)
                assert np.array_equal(got.view(np.int64), want)
        for layout in layouts:
            np.testing.assert_array_equal(
                graph.syndrome_ok(layout(bits)), pcm.is_codeword(bits)
            )

    @seed(20261017)
    @settings(max_examples=80, deadline=3000)
    @given(check_node_cases())
    def test_random_graphs_match_the_references(self, case):
        pcm, values, bits = case
        self.assert_matches_references(TannerGraph(pcm), pcm, values, bits)

    @pytest.mark.parametrize("rows", [1, 16, 64, 131])
    def test_full_c2_code_matches_the_references(self, rows):
        pcm = build_ccsds_c2_code().parity_check_matrix()
        rng = np.random.default_rng(rows)
        values = tied_messages(rng, rows, pcm.num_edges)
        # Hard decisions of the messages' first edges, plus an all-zero row.
        bits = (values[:, : pcm.block_length] <= 0).astype(np.uint8)
        bits[0] = 0
        self.assert_matches_references(tanner_graph(pcm), pcm, values, bits)


class TestBitNodeUpdate:
    def test_posterior_is_channel_plus_all_messages(self, small_structure, rng):
        llrs = rng.normal(size=(2, 7))
        check_to_bit = rng.normal(size=(2, small_structure.num_edges))
        _, posterior = small_structure.bit_node_update(llrs, check_to_bit)
        expected = llrs + small_structure.sum_per_bit(check_to_bit)
        assert np.allclose(posterior, expected)

    def test_extrinsic_excludes_own_message(self, small_structure, rng):
        llrs = rng.normal(size=(1, 7))
        check_to_bit = rng.normal(size=(1, small_structure.num_edges))
        bit_to_check, posterior = small_structure.bit_node_update(llrs, check_to_bit)
        gathered = small_structure.gather_bits(posterior)
        assert np.allclose(bit_to_check, gathered - check_to_bit)

    def test_syndrome_ok(self, small_structure):
        zero = np.zeros((2, 7), dtype=np.uint8)
        assert small_structure.syndrome_ok(zero).tolist() == [True, True]


class TestGraphCache:
    def test_decoders_share_the_graph_and_its_padded_layout(self, rng):
        """Decoders on one matrix hold the one cached graph, and with it the
        padded check-node index the graph builds up front for an irregular
        code, before any decoding."""
        h = np.zeros((24, 48), dtype=np.uint8)
        for check, degree in enumerate(rng.integers(3, 9, size=24)):
            h[check, rng.choice(48, size=degree, replace=False)] = 1
        code = ParityCheckMatrix(h)
        graph = tanner_graph(code)
        assert graph.num_edges < graph.num_checks * graph.max_check_degree
        index = graph._check_slots
        assert index is not None
        assert index.shape == (graph.num_checks, graph.max_check_degree)
        llrs = rng.normal(2.0, 1.0, size=(64, code.block_length))
        decoder = NormalizedMinSumDecoder(code, max_iterations=2)
        decoder.decode_batch(llrs)
        assert decoder.edge_structure is graph
        assert MinSumDecoder(code).edge_structure._check_slots is index

    def test_graphs_die_with_their_matrices(self):
        codes = [build_scaled_ccsds_code(size) for size in (7, 11, 13, 17, 19)]
        graphs = [weakref.ref(tanner_graph(c.parity_check_matrix())) for c in codes]
        del codes
        gc.collect()
        assert [graph() for graph in graphs] == [None] * 5
