#!/usr/bin/env python
"""Quickstart: encode, corrupt, and decode a CCSDS-like QC-LDPC frame.

Builds a scaled twin of the CCSDS C2 code (same 2 x 16 weight-2 circulant
structure, smaller circulants so everything runs in seconds), pushes one
frame through the coded BPSK/AWGN link, decodes it with the paper's
normalized min-sum algorithm, and prints the analytical summary of the two
hardware configurations the paper evaluates.

Run with ``python examples/quickstart.py``.
"""

from __future__ import annotations

import numpy as np

from repro import NormalizedMinSumDecoder, build_scaled_ccsds_code
from repro.channel import AWGNChannel, BPSKModulator, channel_llrs, ebn0_to_sigma
from repro.core import (
    CYCLONE_II_EP2C50F,
    STRATIX_II_EP2S180,
    high_speed_architecture,
    implementation_report,
    low_cost_architecture,
    throughput_table,
)
from repro.encode import SystematicEncoder
from repro.utils import random_bits


def main() -> None:
    rng = np.random.default_rng(2009)

    # 1. The code: a scaled twin of the CCSDS C2 (8176, 7156) QC-LDPC code.
    code = build_scaled_ccsds_code(63)
    print(f"Code: n = {code.block_length}, k = {code.dimension}, "
          f"rate = {code.rate:.3f}, edges = {code.num_edges}")

    # 2. Encode a random information word.
    encoder = SystematicEncoder(code)
    info = random_bits(encoder.dimension, rng)
    codeword = encoder.encode(info)

    # 3. Transmit over BPSK / AWGN at Eb/N0 = 4.5 dB.
    ebn0_db = 4.5
    sigma = ebn0_to_sigma(ebn0_db, code.rate)
    channel = AWGNChannel(sigma, rng=rng)
    received = channel.transmit(BPSKModulator().modulate(codeword))
    llrs = channel_llrs(received, sigma)
    hard_errors = int((received < 0).astype(np.uint8).sum() != 0)

    # 4. Decode with the paper's algorithm: normalized min-sum, 18 iterations.
    decoder = NormalizedMinSumDecoder(code, max_iterations=18, alpha=1.25)
    result = decoder.decode(llrs)
    recovered = encoder.extract_information(result.bits)

    channel_bit_errors = int(((received < 0).astype(np.uint8) != codeword).sum())
    print(f"\nEb/N0 = {ebn0_db} dB: {channel_bit_errors} channel bit errors "
          f"before decoding")
    print(f"Decoder converged: {bool(result.converged)} "
          f"after {int(result.iterations)} iterations")
    print(f"Information recovered without error: {bool(np.array_equal(recovered, info))}")

    # 5. The architecture models behind the paper's Tables 1-3.
    print()
    print(throughput_table([low_cost_architecture(), high_speed_architecture()]))
    print()
    print(implementation_report(low_cost_architecture(), CYCLONE_II_EP2C50F))
    print()
    print(implementation_report(high_speed_architecture(), STRATIX_II_EP2S180))


if __name__ == "__main__":
    main()
