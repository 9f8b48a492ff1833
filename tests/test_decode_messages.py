"""Unit tests for repro.decode.graph (shared Tanner graph and update kernels)."""

import gc
import weakref

import numpy as np
import pytest

from repro.codes import build_scaled_ccsds_code
from repro.codes.parity_check import ParityCheckMatrix
from repro.decode import MinSumDecoder, NormalizedMinSumDecoder
from repro.decode.graph import tanner_graph


@pytest.fixture
def small_structure(hamming_pcm):
    return tanner_graph(hamming_pcm)


def brute_force_min_sum(pcm, bit_to_check, scale=1.0, offset=0.0):
    """Reference check-node update computed edge by edge."""
    check_idx, bit_idx = pcm.edges()
    out = np.zeros_like(bit_to_check)
    for frame in range(bit_to_check.shape[0]):
        for e in range(check_idx.size):
            same_check = np.nonzero(check_idx == check_idx[e])[0]
            others = same_check[same_check != e]
            values = bit_to_check[frame, others]
            sign = np.prod(np.sign(values)) if values.size else 1.0
            sign = 1.0 if sign == 0 else sign
            magnitude = np.min(np.abs(values)) if values.size else 0.0
            magnitude = max(magnitude - offset, 0.0) * scale
            out[frame, e] = sign * magnitude
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
        """A layout one decoder builds lazily is there for every other
        decoder on the same matrix: they all hold the one cached graph."""
        code = build_scaled_ccsds_code(31)
        graph = tanner_graph(code.parity_check_matrix())
        assert graph._pad_layout is None
        llrs = rng.normal(2.0, 1.0, size=(64, code.block_length))
        NormalizedMinSumDecoder(code, max_iterations=2).decode_batch(llrs)
        assert graph._pad_layout is not None
        assert MinSumDecoder(code).edge_structure is graph

    def test_graphs_die_with_their_matrices(self):
        codes = [build_scaled_ccsds_code(size) for size in (7, 11, 13, 17, 19)]
        graphs = [weakref.ref(tanner_graph(c.parity_check_matrix())) for c in codes]
        del codes
        gc.collect()
        assert [graph() for graph in graphs] == [None] * 5
