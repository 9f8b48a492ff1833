"""Shared, precomputed Tanner-graph index structure for vectorized decoding.

Message-passing decoders exchange one message per edge per direction.  The
paper emphasises that the CCSDS code has more than 32k messages updated per
iteration, so an efficient layout matters even in software.  Every decoder
working on the same :class:`~repro.codes.parity_check.ParityCheckMatrix`
needs exactly the same index arrays, so they are built **once per matrix**
and shared: :func:`tanner_graph` returns the cached
:class:`TannerGraph` for a matrix (keyed by object identity, weakly
referenced so graphs die with their matrices).  Lazily built layouts, such
as the padded check-node layout, are therefore built once per matrix too.

:class:`TannerGraph` stores the edges of a parity-check matrix in two
layouts:

* sorted by check node (row-major) — used for the check-node (CN) update,
  where the minimum / sign product over each check's incident edges is
  computed with ``np.minimum.reduceat`` / ``np.add.reduceat`` over
  contiguous segments;
* slot-major by bit node — row ``s`` of ``bit_slot_edges`` holds the edge
  in slot ``s`` of every bit, counting each bit's edges in bit-sorted
  (column-major) order — used for the bit-node (BN) update, where per-bit
  sums of incoming messages are one gather and one add per slot.

The bit-node sum has a fixed order, and it is the contract that any other
implementation of :meth:`TannerGraph.sum_per_bit` (a native kernel, say)
must match bit for bit.  For a bit whose messages are ``m0, m1, …,
m_{d-1}`` in bit-sorted edge order, the sum is::

    m0 + ((m1 + m2) + … + m_{d-1})

the first message plus the left-to-right sum of the rest.  This is exactly
what ``np.add.reduceat`` over bit-sorted segments computes for ``d <= 8``:
numpy's reduce loop adds the pairwise sum of the rest to the first element,
and a pairwise sum of fewer than 8 terms runs left to right.  So the two
are bit-identical, signed zeros included, and decoding results recorded
with ``reduceat`` still hold.  From ``d = 9`` on, numpy's pairwise sum
switches to an 8-way unrolled tree and the two can differ in the last ulp;
:meth:`~TannerGraph.sum_per_bit` keeps the documented order.  No
registered code has such a bit: the C2 code and its scaled twins have bit
degree 4, the AR4JA codes 2, 3 and 6.

All update helpers operate on arrays of shape ``(batch, num_edges)`` so
that several frames are decoded concurrently, mirroring the high-speed
hardware configuration that stores the messages of different frames in the
same memory word.  Every reduction acts row by row, which is what makes
the decoders' compacting loop
(:meth:`~repro.decode.base.MessagePassingDecoder._run_message_passing`)
bit-identical to per-frame decoding: the values computed for one frame never
depend on the other rows present in the batch.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.codes.parity_check import ParityCheckMatrix

__all__ = ["TannerGraph", "tanner_graph"]

#: Batch width at which the check-node kernels switch from the ``reduceat``
#: segment reductions to the padded-layout kernels.  Narrow batches (and the
#: serial per-frame path, ``batch == 1``) are dispatch-bound: the reduceat
#: spelling issues far fewer NumPy calls and wins.  Wide batches are
#: bandwidth-bound: reduceat's per-segment inner loops (LDPC check degrees
#: are tiny) dominate, and the padded tournament kernels win by a large
#: factor.  Both spellings are exact and produce bit-identical messages —
#: the differential battery in ``tests/test_decode_batched.py`` pins this —
#: so the crossover is a pure performance choice.
_PADDED_KERNEL_MIN_ROWS = 32


class TannerGraph:
    """Precomputed CSR-style edge indexing for a parity-check matrix.

    Attributes
    ----------
    edge_check, edge_bit:
        Row (check) and column (bit) index of every edge, sorted by
        ``(check, bit)`` — the CSR order of the sparse matrix.
    check_ids, check_starts:
        Non-empty check ids and the start offset of each check's contiguous
        edge segment (CSR row pointers without the trailing sentinel).
    bit_slot_edges:
        Slot-major bit layout, shape ``(max_bit_degree, num_bits)``: row
        ``s`` holds, for every bit, the edge in slot ``s`` of the bit's
        edges in bit-sorted (CSC) order, which lists them by check.  A bit
        with no edge in slot ``s`` holds edge 0 there, and
        :meth:`sum_per_bit` replaces the value gathered for it with the
        additive identity.
    edge_check_degree:
        Degree of the check each edge belongs to; degree-1 checks carry no
        extrinsic information, which the update kernels special-case.
    """

    def __init__(self, parity_check: ParityCheckMatrix) -> None:
        # No reference to ``parity_check`` is kept: the cache below holds
        # graphs strongly and their matrices weakly.
        check_idx, bit_idx = parity_check.edges()
        # The sparse matrix already stores edges sorted by (check, bit).
        self.edge_check = check_idx.astype(np.int64)
        self.edge_bit = bit_idx.astype(np.int64)
        self.num_edges = int(self.edge_check.size)
        self.num_checks = parity_check.num_checks
        self.num_bits = parity_check.block_length

        # Segment boundaries for the check-sorted order (skip empty checks).
        self.check_ids, self.check_starts = np.unique(
            self.edge_check, return_index=True
        )
        # Slot-major bit layout: slot ``s`` of a bit is its ``s``-th edge in
        # bit-sorted order (a stable sort keeps each bit's edges by check).
        bit_order = np.argsort(self.edge_bit, kind="stable")
        bit_degrees = np.bincount(self.edge_bit, minlength=self.num_bits)
        bit_starts = np.cumsum(bit_degrees) - bit_degrees
        bit_width = int(bit_degrees.max()) if self.num_edges else 0
        self.bit_slot_edges = np.zeros((bit_width, self.num_bits), dtype=np.int64)
        # Bits without an edge in each slot; empty for every slot of a graph
        # whose bits all have the same degree.
        self._bit_slot_gaps: list[np.ndarray] = []
        for slot in range(bit_width):
            present = bit_degrees > slot
            self.bit_slot_edges[slot, present] = bit_order[bit_starts[present] + slot]
            self._bit_slot_gaps.append(np.flatnonzero(~present))
        # Degree of the check each edge belongs to; degree-1 checks have no
        # extrinsic information, which the update kernels special-case.
        check_degrees = np.bincount(self.edge_check, minlength=self.num_checks)
        self.edge_check_degree = check_degrees[self.edge_check]
        # Hot-path fast-path flag.  When every check owns at least one edge,
        # the ``reduceat`` segment outputs are already aligned with the check
        # axis and the scatter into a zero/inf-filled array can be skipped
        # entirely; LDPC matrices virtually always qualify.
        self._checks_dense = bool(self.check_ids.size == self.num_checks)
        # Degree-<=1 checks need a masking pass in the CN kernels; skip it
        # for the (usual) graphs that have none.
        self._has_low_degree_checks = bool(
            self.num_edges and int(self.edge_check_degree.min()) <= 1
        )
        # Eligibility for the padded wide-batch kernels: every check must own
        # a segment (dense), degrees must be >= 2 somewhere, and the padded
        # (num_checks, max_degree) layout must not blow the edge array up by
        # more than 4x (pathologically irregular graphs keep reduceat).
        max_degree = int(check_degrees.max()) if self.num_edges else 0
        self._padded_ok = bool(
            self._checks_dense
            and max_degree >= 2
            and self.num_checks * max_degree <= 4 * self.num_edges
        )
        self._pad_layout: (
            tuple[int, np.ndarray, np.ndarray, np.ndarray] | None
        ) = None

    # ------------------------------------------------------------------ #
    # Segment reductions
    # ------------------------------------------------------------------ #
    def sum_per_bit(self, edge_values: np.ndarray) -> np.ndarray:
        """Sum edge values into per-bit totals, in the module's fixed order.

        Each bit's total is ``m0 + ((m1 + m2) + … + m_{d-1})`` over its
        messages in bit-sorted edge order, spelled as one gather per slot
        of :attr:`bit_slot_edges` and one add per slot.

        Parameters
        ----------
        edge_values:
            Array of shape ``(batch, num_edges)`` in check-sorted edge order.

        Returns
        -------
        numpy.ndarray
            Array of shape ``(batch, num_bits)``; bits with no edges get 0.
        """
        width = self.bit_slot_edges.shape[0]
        if width == 0:
            return np.zeros((edge_values.shape[0], self.num_bits), dtype=edge_values.dtype)
        if width == 1:
            return self._bit_slot_values(edge_values, 0)
        totals = self._bit_slot_values(edge_values, 1)
        for slot in range(2, width):
            np.add(totals, self._bit_slot_values(edge_values, slot), out=totals)
        # m0 joins the sum of the rest last (IEEE addition commutes), so at
        # most two (batch, num_bits) arrays are live at once.  A third one
        # left 16 MB more of glibc heap resident at the peak of repeated
        # batch-256 decodes of the C2 code.
        np.add(self._bit_slot_values(edge_values, 0), totals, out=totals)
        return totals

    def _bit_slot_values(self, edge_values: np.ndarray, slot: int) -> np.ndarray:
        """The message in ``slot`` of every bit, as a ``(batch, num_bits)`` array.

        Bits with no edge in the slot get an identity of the sum: ``-0.0``
        leaves any total bit-identical, signed zeros included, and slot 0
        gets ``+0.0`` so that a bit with no edges at all sums to ``+0.0``.
        """
        values = edge_values[:, self.bit_slot_edges[slot]]
        gaps = self._bit_slot_gaps[slot]
        if gaps.size:
            values[:, gaps] = -0.0 if slot else 0.0
        return values

    def sum_per_check(self, edge_values: np.ndarray) -> np.ndarray:
        """Sum edge values into per-check totals (shape ``(batch, num_checks)``)."""
        reduced = np.add.reduceat(edge_values, self.check_starts, axis=1)
        if self._checks_dense:
            return reduced
        totals = np.zeros(
            (edge_values.shape[0], self.num_checks), dtype=edge_values.dtype
        )
        totals[:, self.check_ids] = reduced
        return totals

    def min_per_check(self, edge_values: np.ndarray) -> np.ndarray:
        """Minimum of edge values over each check (shape ``(batch, num_checks)``)."""
        reduced = np.minimum.reduceat(edge_values, self.check_starts, axis=1)
        if self._checks_dense and edge_values.dtype == np.float64:
            return reduced
        totals = np.full(
            (edge_values.shape[0], self.num_checks), np.inf, dtype=np.float64
        )
        totals[:, self.check_ids] = reduced
        return totals

    def gather_bits(self, per_bit_values: np.ndarray) -> np.ndarray:
        """Expand per-bit values onto the edges (check-sorted order)."""
        return per_bit_values[:, self.edge_bit]

    def gather_checks(self, per_check_values: np.ndarray) -> np.ndarray:
        """Expand per-check values onto the edges (check-sorted order)."""
        return per_check_values[:, self.edge_check]

    # ------------------------------------------------------------------ #
    # Private hot-path helpers shared by the check-node kernels
    # ------------------------------------------------------------------ #
    def _edge_signs(self, messages: np.ndarray) -> np.ndarray:
        """Exact ``±1.0`` sign of every message under the ``x < 0`` convention.

        ``np.copysign`` is the fast float-only spelling, but it maps
        ``-0.0`` to ``-1.0`` whereas the decoders' convention
        (``np.where(x < 0, -1.0, 1.0)``) gives zero-magnitude messages a
        ``+1`` sign; the (rare) exact zeros are patched afterwards.
        """
        signs = np.copysign(1.0, messages)
        # Exact sentinel fixing the sign convention for +/-0.0 inputs, not
        # a rounding comparison.
        zeros = messages == 0.0  # repro: noqa[REP106]
        if zeros.any():
            signs[zeros] = 1.0
        return signs

    def _check_sign_product(self, signs: np.ndarray) -> np.ndarray:
        """Product of the ``±1.0`` edge signs over each check.

        Exact: a product of ``±1.0`` floats is ``-1.0`` iff the count of
        negative factors is odd, so this equals the parity-of-negatives
        spelling bit for bit.  Empty checks get the empty product ``1.0``.
        """
        reduced = np.multiply.reduceat(signs, self.check_starts, axis=1)
        if self._checks_dense:
            return reduced
        totals = np.ones((signs.shape[0], self.num_checks), dtype=np.float64)
        totals[:, self.check_ids] = reduced
        return totals

    def _check_counts(self, edge_flags: np.ndarray) -> np.ndarray:
        """Per-check popcount of a boolean edge mask (``(batch, num_checks)``)."""
        counts = np.add.reduceat(
            edge_flags, self.check_starts, axis=1, dtype=np.int64
        )
        if self._checks_dense:
            return counts
        totals = np.zeros((edge_flags.shape[0], self.num_checks), dtype=np.int64)
        totals[:, self.check_ids] = counts
        return totals

    def _padded_check_layout(self) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        """Lazily built slot-major ``(max_degree, num_checks)`` edge layout.

        ``pad_edge[s * num_checks + c]`` is the edge id sitting in slot
        ``s`` of check ``c`` (or the sentinel ``num_edges`` for padding
        slots), ``pad_bit`` the corresponding bit id (sentinel
        ``num_bits``), and ``edge_slot[e]`` the flat slot an edge occupies —
        the inverse mapping used to scatter padded results back to edge
        order with a plain gather.  Gathering from an edge/bit array
        extended by one sentinel column turns every per-check segment
        reduction into a short unrolled loop over the slot axis —
        O(max_degree) NumPy calls on contiguous ``(batch, num_checks)``
        slices instead of reduceat's per-segment inner loops.  Only built
        for dense graphs (``_padded_ok``).
        """
        if self._pad_layout is None:
            width = int(self.edge_check_degree.max())
            within = np.arange(self.num_edges) - self.check_starts[self.edge_check]
            edge_slot = within * self.num_checks + self.edge_check
            pad_edge = np.full(
                width * self.num_checks, self.num_edges, dtype=np.int64
            )
            pad_edge[edge_slot] = np.arange(self.num_edges)
            pad_bit = np.full(width * self.num_checks, self.num_bits, dtype=np.int64)
            pad_bit[edge_slot] = self.edge_bit
            self._pad_layout = (width, pad_edge, pad_bit, edge_slot)
        return self._pad_layout

    def _other_min_per_edge(self, magnitudes: np.ndarray) -> np.ndarray:
        """Minimum magnitude over each edge's check *excluding the edge*.

        The min-sum extrinsic magnitude, narrow-batch spelling: smallest and
        second-smallest per check via reduceat, then a per-edge select.
        ``min2`` counts multiplicity — when the minimum is achieved by
        several edges the second minimum *is* the minimum.  Edges of
        degree-1 checks see the empty minimum ``inf`` (the caller masks
        them).
        """
        min1 = self.min_per_check(magnitudes)
        min1_on_edges = self.gather_checks(min1)
        is_min = magnitudes == min1_on_edges
        masked = magnitudes.copy()
        masked[is_min] = np.inf
        min2 = self.min_per_check(masked)
        min2 = np.where(self._check_counts(is_min) > 1, min1, min2)
        return np.where(is_min, self.gather_checks(min2), min1_on_edges)

    def _min_sum_extrinsic_padded(
        self, bit_to_check: np.ndarray, scale: float, offset: float
    ) -> np.ndarray:
        """Wide-batch min-sum check-node update, fully in the padded layout.

        One gather brings the messages into ``(batch, max_degree,
        num_checks)`` slot form; signs, the per-check sign product, and the
        exclude-self minimum (a prefix/suffix min sweep over the slot axis)
        are all computed on contiguous ``(batch, num_checks)`` slices; one
        gather brings the result back to edge order.  Every step is an exact
        operation (``min``/``max``, products of ``±1.0``, single-rounding
        scale/offset in the same order as the narrow path), so the messages
        are bit-identical to the reduceat spelling — the differential
        battery pins this.
        """
        rows = bit_to_check.shape[0]
        width, pad_edge, _, edge_slot = self._padded_check_layout()
        extended = np.empty((rows, self.num_edges + 1), dtype=np.float64)
        extended[:, :-1] = bit_to_check
        extended[:, -1] = np.inf
        padded = extended[:, pad_edge].reshape(rows, width, self.num_checks)
        magnitudes = np.abs(padded)
        signs = np.copysign(1.0, padded)
        # Exact sentinel fixing the sign convention for +/-0.0 inputs (the
        # inf padding slots are never zero), not a rounding comparison.
        zeros = padded == 0.0  # repro: noqa[REP106]
        if zeros.any():
            signs[zeros] = 1.0
        # Per-check sign product, slot by slot (±1.0 products are exact).
        total_sign = signs[:, 0, :].copy()
        for slot in range(1, width):
            np.multiply(total_sign, signs[:, slot, :], out=total_sign)
        # Exclude-self minimum: a forward prefix-min pass, then a backward
        # pass folding in the suffix mins.
        extrinsic = np.empty_like(magnitudes)
        extrinsic[:, 0, :] = np.inf
        for slot in range(1, width):
            np.minimum(
                extrinsic[:, slot - 1, :],
                magnitudes[:, slot - 1, :],
                out=extrinsic[:, slot, :],
            )
        suffix = np.full((rows, self.num_checks), np.inf)
        for slot in range(width - 1, 0, -1):
            np.minimum(extrinsic[:, slot, :], suffix, out=extrinsic[:, slot, :])
            np.minimum(suffix, magnitudes[:, slot, :], out=suffix)
        extrinsic[:, 0, :] = suffix
        flat = extrinsic.reshape(rows, width * self.num_checks)
        if self._has_low_degree_checks:
            flat[:, edge_slot[self.edge_check_degree <= 1]] = 0.0
        if offset:
            np.subtract(extrinsic, offset, out=extrinsic)
            np.maximum(extrinsic, 0.0, out=extrinsic)
        # scale is exactly 1.0 when the caller passed the default; the
        # comparison skips a multiply, it does not gate numerics.
        if scale != 1.0:  # repro: noqa[REP106]
            np.multiply(extrinsic, scale, out=extrinsic)
        # (total_sign * sign) * magnitude and (sign * magnitude) * total_sign
        # are bit-identical: multiplying by ±1.0 is an exact sign flip.
        np.multiply(extrinsic, signs, out=extrinsic)
        np.multiply(extrinsic, total_sign[:, None, :], out=extrinsic)
        return flat[:, edge_slot]

    # ------------------------------------------------------------------ #
    # Check-node update kernels
    # ------------------------------------------------------------------ #
    def min_sum_extrinsic(
        self,
        bit_to_check: np.ndarray,
        *,
        scale: float = 1.0,
        offset: float = 0.0,
    ) -> np.ndarray:
        """Min-sum check-node update with optional normalization and offset.

        Implements the paper's equation (2): the extrinsic message on each
        edge is the product of the signs of the *other* incoming messages
        times the minimum of their magnitudes, scaled by ``scale``
        (``1/alpha`` in the paper's notation) or reduced by ``offset``.

        Parameters
        ----------
        bit_to_check:
            Incoming messages, shape ``(batch, num_edges)``.
        scale:
            Multiplicative correction (normalized min-sum); 1.0 disables it.
        offset:
            Subtractive correction (offset min-sum); 0.0 disables it.

        Returns
        -------
        numpy.ndarray
            Outgoing check-to-bit messages, shape ``(batch, num_edges)``.
        """
        if self._padded_ok and bit_to_check.shape[0] >= _PADDED_KERNEL_MIN_ROWS:
            # Wide batches: the fused padded-layout kernel (bit-identical).
            return self._min_sum_extrinsic_padded(bit_to_check, scale, offset)
        magnitudes = np.abs(bit_to_check)
        signs = self._edge_signs(bit_to_check)
        # Total sign per check: the product of the incoming edge signs.
        total_sign = self._check_sign_product(signs)

        # Every edge sees the minimum of the *other* incoming magnitudes.
        extrinsic_mag = self._other_min_per_edge(magnitudes)
        # A degree-1 check has no "other" incoming edges, hence no extrinsic
        # information (its minimum over an empty set would be infinite).
        if self._has_low_degree_checks:
            extrinsic_mag[:, self.edge_check_degree <= 1] = 0.0
        if offset:
            np.subtract(extrinsic_mag, offset, out=extrinsic_mag)
            np.maximum(extrinsic_mag, 0.0, out=extrinsic_mag)
        # scale is exactly 1.0 when the caller passed the default; the
        # comparison skips a multiply, it does not gate numerics.
        if scale != 1.0:  # repro: noqa[REP106]
            np.multiply(extrinsic_mag, scale, out=extrinsic_mag)
        return self.gather_checks(total_sign) * signs * extrinsic_mag

    def sum_product_extrinsic(self, bit_to_check: np.ndarray) -> np.ndarray:
        """Exact belief-propagation check-node update (tanh rule).

        Computed in the log domain for numerical stability:
        ``|out| = 2 * atanh( exp( sum(log|tanh(in/2)|) - log|tanh(in_e/2)| ) )``
        with the sign handled separately, and magnitudes clipped to avoid
        infinities at the domain edges.
        """
        clip = 30.0
        messages = np.clip(bit_to_check, -clip, clip)
        signs = self._edge_signs(messages)
        # Total sign per check: the product of the incoming edge signs.
        total_sign = self._check_sign_product(signs)

        # log|tanh(x/2)| is <= 0; clip the argument away from 0 to keep the
        # logarithm finite.  The chain reuses one buffer: every step consumes
        # exactly the previous step's value, so the numbers match the
        # fresh-array spelling.
        log_tanh = np.abs(messages)
        np.divide(log_tanh, 2.0, out=log_tanh)
        np.tanh(log_tanh, out=log_tanh)
        np.clip(log_tanh, 1e-12, 1.0 - 1e-12, out=log_tanh)
        np.log(log_tanh, out=log_tanh)
        totals = self.sum_per_check(log_tanh)
        extrinsic_mag = self.gather_checks(totals)
        np.subtract(extrinsic_mag, log_tanh, out=extrinsic_mag)
        np.exp(extrinsic_mag, out=extrinsic_mag)
        np.clip(extrinsic_mag, 0.0, 1.0 - 1e-12, out=extrinsic_mag)
        np.arctanh(extrinsic_mag, out=extrinsic_mag)
        np.multiply(extrinsic_mag, 2.0, out=extrinsic_mag)
        # Degree-1 checks carry no extrinsic information (see min_sum_extrinsic).
        if self._has_low_degree_checks:
            extrinsic_mag[:, self.edge_check_degree <= 1] = 0.0
        return self.gather_checks(total_sign) * signs * extrinsic_mag

    # ------------------------------------------------------------------ #
    # Bit-node update and decisions
    # ------------------------------------------------------------------ #
    def bit_node_update(
        self, channel_llrs: np.ndarray, check_to_bit: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bit-node update (paper equation 3).

        Returns
        -------
        (bit_to_check, posterior):
            ``bit_to_check`` are the new edge messages (incoming LLR plus the
            sum of the other checks' messages); ``posterior`` is the
            a-posteriori LLR per bit (incoming LLR plus all check messages),
            used for hard decisions and early stopping.
        """
        totals = self.sum_per_bit(check_to_bit)
        posterior = channel_llrs + totals
        bit_to_check = self.gather_bits(posterior)
        np.subtract(bit_to_check, check_to_bit, out=bit_to_check)
        return bit_to_check, posterior

    def syndrome_ok(self, hard_bits: np.ndarray) -> np.ndarray:
        """Whether each frame of ``(batch, n)`` hard decisions satisfies every check.

        Computed from the graph's own edge arrays: the syndrome bit of a
        check is the XOR of the hard decisions on its incident edges, so a
        gather plus one XOR segment reduction replaces the sparse
        matrix-vector product (whose ``np.add.at`` scatter dominated the
        batched profile).  Exact 0/1 arithmetic — the flags are identical to
        ``ParityCheckMatrix.is_codeword``.
        """
        bits = np.asarray(hard_bits)
        if self.num_edges == 0:
            # No check has an edge, so every syndrome is zero.
            return np.ones(bits.shape[0], dtype=bool)
        if bits.dtype != np.bool_:
            bits = bits != 0
        if self._padded_ok and bits.shape[0] >= _PADDED_KERNEL_MIN_ROWS:
            # Wide batches: XOR over the padded slot axis (sentinel False is
            # the XOR identity) — exact, and much cheaper than reduceat's
            # per-segment loops over the tiny check degrees.
            width, _, pad_bit, _ = self._padded_check_layout()
            rows = bits.shape[0]
            extended = np.empty((rows, self.num_bits + 1), dtype=np.bool_)
            extended[:, :-1] = bits
            extended[:, -1] = False
            padded = extended[:, pad_bit].reshape(rows, width, self.num_checks)
            parity = padded[:, 0, :].copy()
            for slot in range(1, width):
                np.bitwise_xor(parity, padded[:, slot, :], out=parity)
            return ~parity.any(axis=1)
        parity = np.bitwise_xor.reduceat(
            bits[:, self.edge_bit], self.check_starts, axis=1
        )
        # Empty checks (no edges) have an all-zero syndrome by definition,
        # so reducing over the non-empty segments only is enough.
        return ~parity.any(axis=1)


#: One graph per live matrix.  Keyed by matrix *identity*: ParityCheckMatrix
#: objects are immutable in practice and the QC codes cache their expansion,
#: so every decoder built on the same code object shares one graph.  Weak
#: keys keep the cache from pinning matrices in memory, which holds because
#: a graph keeps no reference to its matrix.
_GRAPH_CACHE: "weakref.WeakKeyDictionary[ParityCheckMatrix, TannerGraph]" = (
    weakref.WeakKeyDictionary()
)


def tanner_graph(parity_check: ParityCheckMatrix) -> TannerGraph:
    """The shared :class:`TannerGraph` of ``parity_check`` (built once)."""
    graph = _GRAPH_CACHE.get(parity_check)
    if graph is None:
        graph = TannerGraph(parity_check)
        _GRAPH_CACHE[parity_check] = graph
    return graph
