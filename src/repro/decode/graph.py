"""Shared, precomputed Tanner-graph index structure for vectorized decoding.

Message-passing decoders exchange one message per edge per direction.  The
paper emphasises that the CCSDS code has more than 32k messages updated per
iteration, so an efficient layout matters even in software.  Every decoder
working on the same :class:`~repro.codes.parity_check.ParityCheckMatrix`
needs exactly the same index arrays, so they are built **once per matrix**,
in :class:`TannerGraph`'s constructor, and shared: :func:`tanner_graph`
returns the cached :class:`TannerGraph` for a matrix (keyed by object
identity, weakly referenced so graphs die with their matrices).

Layout.  Edge arrays are ``(batch, num_edges)`` with the **frames
innermost**: in memory they are ``(num_edges, batch)``, one row per edge
holding that edge's message in every frame, as the paper's high-speed
architecture stores the messages of several frames in one memory word.
The decoding loop keeps its per-bit arrays the same way, and its
compaction (:func:`take_frames`) keeps that layout, so every gather
(:meth:`TannerGraph.gather_bits`, the bit-node slots) copies whole rows of
the transposed view.  A kernel handed a C-ordered array computes the same
values, only slower.

Edges are sorted by ``(check, bit)``, the CSR order of the sparse matrix.
The check-node kernels see them as a ``(num_checks, max_check_degree,
batch)`` array: slot ``s`` of check ``c`` holds the check's ``s``-th edge.
For a check-regular graph (the C2 code, its scaled twins and each block row
of the layered decoder) that array is a reshape of the transposed edge
array, so nothing is copied in or out; an irregular graph (any
:class:`~repro.codes.parity_check.ParityCheckMatrix` whose checks differ in
degree) reaches it by one row gather, with the missing slots filled with a
sentinel.  On that view the min-sum check node computes the
paper's compressed check word for every check and frame: the smallest and
second smallest magnitude, which messages hold the smallest, and the sign
parity (``core/memory.py::compressed_check_word_bits`` sizes it), and
broadcasts it back onto the edges; :meth:`TannerGraph.syndrome_ok`
XOR-reduces the same view.  Only exact operations are involved (minima,
sign flips and one rounding per corrected magnitude), so the messages do not
depend on how the reduction is spelled.  The sum-product check node does
depend on it: it sums logarithms over each check, and its recorded results
hold for the ``np.add.reduceat`` order it sums in, which it keeps.

The bit-node sum has a fixed order, and it is the contract that any other
implementation of :meth:`TannerGraph.sum_per_bit` (the native decode's bit
node, for one) must match bit for bit.  For a bit whose messages are ``m0, m1, …,
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
degree 4.

These methods run on numpy, and they are the reference.  One other
implementation runs their orders: the native decode that the decoding loop
(:meth:`~repro.decode.base.MessagePassingDecoder._run_message_passing`)
hands a whole batch of every streamed min-sum decoder to.  It works over
this graph's index arrays (``edge_bit``, ``check_starts``,
``bit_slot_edges`` and ``bit_degrees``), keeps a few frames in posterior
form and forms each bit-to-check message as ``posterior[bit] -
check_to_bit``, the bit node's own subtraction.  Its check node keeps the
same running pair of smallest magnitudes, rounds each corrected magnitude
once in the same order and takes each sign from ``x < 0`` and the check's
parity; its bit node sums ``m0 + ((m1 + m2) + … + m_{d-1})``.  So its
results are bit-identical to the loop over these methods, which the tests
compare it against.

Every reduction acts frame by frame, which is what makes the decoders'
compacting loop
(:meth:`~repro.decode.base.MessagePassingDecoder._run_message_passing`)
bit-identical to per-frame decoding: the values computed for one frame never
depend on the other frames present in the batch.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.codes.parity_check import ParityCheckMatrix

__all__ = ["TannerGraph", "take_frames", "tanner_graph"]


def take_frames(array: np.ndarray, frame_ids: np.ndarray) -> np.ndarray:
    """Rows ``frame_ids`` of a ``(batch, width)`` array, with the frames innermost.

    The decoding loop lays out its channel LLRs and compacts its working
    arrays through this function alone.  Taking along the frame axis of the
    transposed view copies short runs of each row; ``array[frame_ids]`` on
    a frame-innermost array is a transposing copy into C order instead.
    """
    return np.take(array.T, frame_ids, axis=1).T


def _take_columns(values: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """``values[:, columns]``, frames innermost: a row gather of ``values.T``."""
    return np.take(values.T, columns, axis=0).T


def _two_smallest(magnitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The smallest and second smallest of each check, counting multiplicity.

    ``magnitudes`` is a ``(checks, degree, frames)`` array with at least one
    slot.  A running pair over the slot axis: a value below the smallest
    pushes the smallest into second place, so a minimum held by several
    slots is also the second smallest.  A check of degree 1 gets ``inf``.
    """
    smallest = magnitudes[:, 0, :].copy()
    second = np.full_like(smallest, np.inf)
    larger = np.empty_like(smallest)
    for slot in range(1, magnitudes.shape[1]):
        value = magnitudes[:, slot, :]
        np.maximum(smallest, value, out=larger)
        np.minimum(second, larger, out=second)
        np.minimum(smallest, value, out=smallest)
    return smallest, second


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
    max_check_degree:
        Slots per check in the check-node layout.
    bit_slot_edges:
        Slot-major bit layout, shape ``(max_bit_degree, num_bits)``: row
        ``s`` holds, for every bit, the edge in slot ``s`` of the bit's
        edges in bit-sorted (CSC) order, which lists them by check.  A bit
        with no edge in slot ``s`` holds edge 0 there, and
        :meth:`sum_per_bit` replaces the value gathered for it with the
        additive identity.
    bit_degrees:
        Number of edges of every bit: the slots of :attr:`bit_slot_edges`
        that the native decode's bit node reads.
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
        self.bit_degrees = bit_degrees.astype(np.int64, copy=False)
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
        # Degree-<=1 checks need a masking pass in the sum-product kernel;
        # skip it for the (usual) graphs that have none.
        self._has_low_degree_checks = bool(
            self.num_edges and int(self.edge_check_degree.min()) <= 1
        )
        self._single_edge_checks = np.flatnonzero(check_degrees == 1)

        # Check-node layout: slot ``s`` of check ``c`` is its ``s``-th edge.
        # A check-regular graph needs no index: its CSR edge order already
        # is the layout.  Otherwise ``_check_slots`` names the edge in every
        # slot (edge 0 in the ``_check_padding`` slots, which get a
        # sentinel) and ``_edge_slots`` the flat slot of every edge.
        width = int(check_degrees.max()) if self.num_edges else 0
        self.max_check_degree = width
        self._check_slots: np.ndarray | None = None
        self._edge_slots: np.ndarray | None = None
        self._check_padding: tuple[np.ndarray, ...] = ()
        if self.num_edges != self.num_checks * width:
            first_edge = np.cumsum(check_degrees) - check_degrees
            within = np.arange(self.num_edges) - first_edge[self.edge_check]
            self._edge_slots = self.edge_check * width + within
            self._check_slots = np.zeros((self.num_checks, width), dtype=np.int64)
            self._check_slots[self.edge_check, within] = np.arange(self.num_edges)
            self._check_padding = np.nonzero(np.arange(width) >= check_degrees[:, None])

    # ------------------------------------------------------------------ #
    # Layouts
    # ------------------------------------------------------------------ #
    def _by_check(self, edge_values: np.ndarray, fill: float) -> np.ndarray:
        """Edge values as a ``(num_checks, max_check_degree, batch)`` array.

        ``edge_values`` is ``(batch, num_edges)``.  Slot ``s`` of check
        ``c`` holds the value on the check's ``s``-th edge, and ``fill``
        where the check has fewer edges.  A reshape of the transposed values
        for a check-regular graph (a view when the frames are innermost),
        one row gather otherwise.
        """
        rows = edge_values.T
        if self._check_slots is None:
            return rows.reshape(self.num_checks, self.max_check_degree, rows.shape[1])
        by_check = np.take(rows, self._check_slots, axis=0)
        by_check[self._check_padding] = fill
        return by_check

    def _to_edges(self, by_check: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`_by_check`: ``(batch, num_edges)``, frames innermost."""
        rows = by_check.reshape(
            self.num_checks * self.max_check_degree, by_check.shape[2]
        )
        if self._edge_slots is not None:
            rows = np.take(rows, self._edge_slots, axis=0)
        return rows.T

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
        values = _take_columns(edge_values, self.bit_slot_edges[slot])
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

    def gather_bits(self, per_bit_values: np.ndarray) -> np.ndarray:
        """Expand per-bit values onto the edges (check-sorted order)."""
        return _take_columns(per_bit_values, self.edge_bit)

    def gather_checks(self, per_check_values: np.ndarray) -> np.ndarray:
        """Expand per-check values onto the edges (check-sorted order)."""
        return _take_columns(per_check_values, self.edge_check)

    # ------------------------------------------------------------------ #
    # Sign helpers of the sum-product check node
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
        messages = self._by_check(bit_to_check, np.inf)
        if messages.size == 0:
            return np.zeros(bit_to_check.shape)
        # The compressed check word of every check and frame: the two
        # smallest magnitudes, which slots hold the smallest, and the parity
        # of the negative messages.
        magnitudes = np.abs(messages)
        min1, min2 = _two_smallest(magnitudes)
        is_min = magnitudes == min1[:, None, :]
        negative = np.logical_xor.reduce(messages < 0, axis=1)
        # Every edge's own sign comes from ``copysign``, which reads the
        # sign bit and so takes -0.0 as negative where the decoders' ``x <
        # 0`` convention does not.  Only a check whose smallest magnitude is
        # 0 can hold a -0.0, and adding +0.0 turns it into +0.0.  Exact
        # sentinel, not a rounding comparison.
        if (min1 == 0.0).any():  # repro: noqa[REP106]
            messages = messages + 0.0
        # Each edge sees the minimum of the *other* magnitudes: min2 on a
        # slot holding min1, min1 elsewhere.  Corrections apply to the two
        # magnitudes once per check, in the same order and with the same
        # single roundings as on every edge.
        for magnitude in (min1, min2):
            if offset:
                np.subtract(magnitude, offset, out=magnitude)
                np.maximum(magnitude, 0.0, out=magnitude)
            # scale is exactly 1.0 when the caller passed the default; the
            # comparison skips a multiply, it does not gate numerics.
            if scale != 1.0:  # repro: noqa[REP106]
                np.multiply(magnitude, scale, out=magnitude)
        # A degree-1 check has no "other" incoming edges, hence no extrinsic
        # information: its one edge holds min1 and would get the empty
        # minimum, inf, as min2.
        min2[self._single_edge_checks] = 0.0
        extrinsic = np.where(is_min, min2[:, None, :], min1[:, None, :])
        # Sign: the edge's own sign times the check's parity, both exact
        # flips, so the result is bit-identical to (parity * sign) * |m|.
        np.copysign(extrinsic, messages, out=extrinsic)
        np.multiply(extrinsic, np.where(negative, -1.0, 1.0)[:, None, :], out=extrinsic)
        return self._to_edges(extrinsic)

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
        gather plus one XOR reduction over the check-node layout (padded
        with ``False``, the XOR identity) replaces the sparse matrix-vector
        product.  Exact 0/1 arithmetic — the flags are identical to
        ``ParityCheckMatrix.is_codeword``.
        """
        bits = np.asarray(hard_bits)
        if bits.dtype != np.bool_:
            bits = bits != 0
        edge_bits = _take_columns(bits, self.edge_bit)
        parity = np.bitwise_xor.reduce(self._by_check(edge_bits, False), axis=1)
        return ~parity.any(axis=0)


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
