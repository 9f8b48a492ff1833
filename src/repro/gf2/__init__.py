"""GF(2) linear algebra substrate.

Dense binary matrix operations (:mod:`repro.gf2.dense`), a light sparse
coordinate representation (:mod:`repro.gf2.sparse`) and circulant blocks
(:mod:`repro.gf2.circulant`).  These are the building blocks used to
construct, validate, and encode the CCSDS Quasi-Cyclic LDPC code.
"""

from repro.gf2.circulant import Circulant
from repro.gf2.dense import (
    gf2_matmul,
    gf2_matvec,
    gf2_null_space,
    gf2_rank,
    gf2_row_reduce,
    gf2_solve,
    is_binary_matrix,
)
from repro.gf2.sparse import SparseBinaryMatrix

__all__ = [
    "Circulant",
    "gf2_matmul",
    "gf2_matvec",
    "gf2_null_space",
    "gf2_rank",
    "gf2_row_reduce",
    "gf2_solve",
    "is_binary_matrix",
    "SparseBinaryMatrix",
]
