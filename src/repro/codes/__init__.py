"""LDPC code representations and the CCSDS C2 code construction.

The central objects are:

* :class:`~repro.codes.parity_check.ParityCheckMatrix` — a sparse parity-check
  matrix with degree profiles and syndrome checks,
* :class:`~repro.codes.qc.QCLDPCCode` — a Quasi-Cyclic code described by a
  block array of circulants,
* :func:`~repro.codes.ccsds_c2.build_ccsds_c2_code` — the (8176, 7156) CCSDS
  near-earth code (2 x 16 array of 511 x 511 weight-2 circulants),
* :class:`~repro.codes.shortening.ShortenedCode` — the (8160, 7136)
  transmitted frame with virtual fill, and
* :class:`~repro.codes.tanner.TannerGraph` — the bipartite graph view with
  girth and degree analysis.
"""

from repro.codes.ccsds_c2 import (
    CCSDS_C2_CIRCULANT_SIZE,
    CCSDS_C2_COLUMN_BLOCKS,
    CCSDS_C2_ROW_BLOCKS,
    build_ccsds_c2_code,
    build_ccsds_c2_spec,
    build_scaled_ccsds_code,
)
from repro.codes.construction import (
    build_ccsds_like_spec,
    build_random_regular_spec,
)
from repro.codes.parity_check import ParityCheckMatrix
from repro.codes.qc import CirculantSpec, QCLDPCCode
from repro.codes.shortening import ShortenedCode
from repro.codes.tanner import TannerGraph

__all__ = [
    "ParityCheckMatrix",
    "TannerGraph",
    "CirculantSpec",
    "QCLDPCCode",
    "ShortenedCode",
    "build_ccsds_c2_code",
    "build_ccsds_c2_spec",
    "build_scaled_ccsds_code",
    "build_ccsds_like_spec",
    "build_random_regular_spec",
    "CCSDS_C2_CIRCULANT_SIZE",
    "CCSDS_C2_ROW_BLOCKS",
    "CCSDS_C2_COLUMN_BLOCKS",
]
